"""Builders for the standard Comp-PDA families.

All constructors return canonical, validated arrays with deterministic row
order (lexicographic in the row index objects), so equal parameters always
produce byte-identical renderings.
"""

from __future__ import annotations

import math
from itertools import combinations, product

from .pda import STAR, Pda, canonical_relabel, validate_pda


# Largest array, in cells (rows x columns), that a family constructor builds:
# about 5x man(16,8). Building one takes time and memory in proportion to its
# cells.
MAX_CELLS = 1_000_000


class ArrayTooLargeError(ValueError):
    """The requested array has more cells than ``MAX_CELLS``."""


def _check_cells(name: str, count_rows, k_nodes: int, row_bits: int) -> None:
    """Refuse the F x K array ``name`` above MAX_CELLS before any row is built.
    A cheap lower bound ``row_bits`` on F's bit length refuses arrays above
    MAX_CELLS**2 cells before ``count_rows()``, which may take seconds."""
    if row_bits + k_nodes.bit_length() - 1 > 2 * MAX_CELLS.bit_length():
        raise ArrayTooLargeError(f"{name} has more cells than the limit of {MAX_CELLS}")
    cells = count_rows() * k_nodes
    if cells > MAX_CELLS:
        raise ArrayTooLargeError(
            f"{name} has {cells} cells, above the limit of {MAX_CELLS}")


def _finish(raw_grid) -> Pda:
    """Canonicalize and validate; a failure here is a construction bug."""
    grid = canonical_relabel(raw_grid)
    report = validate_pda(grid)
    if not report.ok:
        raise AssertionError(f"constructed grid is not a valid PDA:\n{report.summary()}")
    return Pda(grid)


def man_pda(k_nodes: int, i: int) -> Pda:
    """Subset-indexed PDA on ``k_nodes`` columns: rows are the size-``i``
    subsets of the nodes in lexicographic order, stars mark membership, and
    the entry for node k outside row subset T is the lexicographic rank of
    T | {k} among the size-(i+1) subsets.

    For i < K the result is (i+1)-regular with parameters
    (K, C(K,i), K*C(K-1,i-1), C(K,i+1)); for i = K it is the all-star 1xK
    array.
    """
    if k_nodes < 1:
        raise ValueError("k_nodes must be >= 1")
    if not 1 <= i <= k_nodes:
        raise ValueError(f"i must be in 1..{k_nodes}, got {i}")
    # C(K,i) >= 2**min(i,K-i); the rank table's C(K,i+1) <= C(K,i)*K is bounded too
    _check_cells(f"man({k_nodes},{i})", lambda: math.comb(k_nodes, i), k_nodes,
                 min(i, k_nodes - i) + 1)

    rank = {subset: r for r, subset in
            enumerate(combinations(range(1, k_nodes + 1), i + 1), start=1)}
    grid = []
    for row_subset in combinations(range(1, k_nodes + 1), i):
        members = set(row_subset)
        row = [STAR if k in members else rank[tuple(sorted(members | {k}))]
               for k in range(1, k_nodes + 1)]
        grid.append(row)
    return _finish(grid)


def _grid_columns(q: int, m: int) -> list[tuple[int, int]]:
    """Column index pairs (group i, value j): column number (i-1)*q + j + 1."""
    return [(i, j) for i in range(1, m + 1) for j in range(q)]


def p1_pda(q: int, m: int) -> Pda:
    """Low-file-complexity family, first kind: an m-regular
    (m*q, q**(m-1), m*q**(m-1), (q-1)*q**(m-1)) Comp-PDA with minimum
    storage number m.

    Columns are pairs (i, j) with i in 1..m, j in 0..q-1; rows are the
    vectors b in [0..q-1]**m whose coordinate sum is 0 mod q, in
    lexicographic order. Entry (b, (i, j)) is a star when b_i = j, else the
    symbol named by b with coordinate i replaced by j.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if m < 1:
        raise ValueError("m must be >= 1")
    # the loop below visits q**m = q * F vectors, at most the cell count
    _check_cells(f"p1({q},{m})", lambda: q ** (m - 1), m * q,
                 (m - 1) * (q.bit_length() - 1) + 1)

    columns = _grid_columns(q, m)
    grid = []
    for b in product(range(q), repeat=m):
        if sum(b) % q != 0:
            continue
        row = []
        for i, j in columns:
            if b[i - 1] == j:
                row.append(STAR)
            else:
                row.append(b[:i - 1] + (j,) + b[i:])
        grid.append(row)
    pda = _finish(grid)
    expected = (m * q, q ** (m - 1), m * q ** (m - 1), (q - 1) * q ** (m - 1))
    if pda.params != expected:
        raise AssertionError(f"p1_pda({q},{m}) parameters {pda.params} != {expected}")
    return pda


def p2_pda(q: int, m: int) -> Pda:
    """Low-file-complexity family, second kind: an m(q-1)-regular
    (m*q, (q-1)*q**(m-1), m*(q-1)**2*q**(m-1), q**(m-1)) Comp-PDA with
    minimum storage number m(q-1).

    Same column indexing as ``p1_pda``; rows are the vectors with nonzero
    coordinate sum mod q. Entry (b, (i, j)) is a star when b_i != j; the
    ordinary entry at (b, (i, b_i)) is the symbol named by b with coordinate
    i replaced by the unique value that makes the coordinate sum 0 mod q.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_cells(f"p2({q},{m})", lambda: (q - 1) * q ** (m - 1), m * q,
                 (m - 1) * (q.bit_length() - 1) + 1)

    columns = _grid_columns(q, m)
    grid = []
    for b in product(range(q), repeat=m):
        if sum(b) % q == 0:
            continue
        row = []
        for i, j in columns:
            if b[i - 1] != j:
                row.append(STAR)
            else:
                fix = (b[i - 1] - sum(b)) % q
                row.append(b[:i - 1] + (fix,) + b[i:])
        grid.append(row)
    pda = _finish(grid)
    expected = (m * q, (q - 1) * q ** (m - 1), m * (q - 1) ** 2 * q ** (m - 1), q ** (m - 1))
    if pda.params != expected:
        raise AssertionError(f"p2_pda({q},{m}) parameters {pda.params} != {expected}")
    return pda


def full_star_pda(k_nodes: int, f_rows: int) -> Pda:
    """All-star F x K array: every node stores everything, nothing is shuffled."""
    if k_nodes < 1 or f_rows < 1:
        raise ValueError("k_nodes and f_rows must be >= 1")
    _check_cells(f"fullstar({k_nodes},{f_rows})", lambda: f_rows, k_nodes,
                 f_rows.bit_length())
    return Pda(tuple(tuple(STAR for _ in range(k_nodes)) for _ in range(f_rows)))
