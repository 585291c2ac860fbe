"""Builders for the standard Comp-PDA families.

All constructors stream their rows into the intake, which canonicalizes and
validates them, in a deterministic row order (lexicographic in the row index
objects), so equal parameters always produce byte-identical renderings.
"""

from __future__ import annotations

import math
from itertools import combinations, product

from .pda import STAR, ParameterError, Pda, PdaValidationError, _intake


# Largest array, in cells (rows x columns), that a family constructor builds:
# about 5x man(16,8). Build time follows the cells, but intake memory follows
# symbols x K bits (each symbol's name and column mask): man(1000,1), with
# 499,500 symbols, peaks at 289 MiB of RSS, man(1000,999) at 27 MiB.
MAX_CELLS = 1_000_000


class ArrayTooLargeError(ParameterError):
    """The requested array has more cells than ``MAX_CELLS``."""


def _check_cells(name: str, count_rows, k_nodes: int, row_bits: int) -> int:
    """Return F = ``count_rows()`` unless the F x K array ``name`` is above
    MAX_CELLS. A cheap lower bound ``row_bits`` on F's bit length refuses
    arrays above MAX_CELLS**2 cells before ``count_rows()``, which may take seconds."""
    if row_bits + k_nodes.bit_length() - 1 > 2 * MAX_CELLS.bit_length():
        raise ArrayTooLargeError(f"{name} has more cells than the limit of {MAX_CELLS}")
    cells = count_rows() * k_nodes
    if cells > MAX_CELLS:
        raise ArrayTooLargeError(
            f"{name} has {cells} cells, above the limit of {MAX_CELLS}")
    return cells // k_nodes


def _finish(rows) -> Pda:
    """Canonicalize and validate streamed rows; a failure is a construction bug."""
    try:
        return _intake(rows)
    except PdaValidationError as exc:
        raise AssertionError(
            f"constructed grid is not a valid PDA:\n{exc.report.summary()}") from None


def man_pda(k_nodes: int, i: int) -> Pda:
    """Subset-indexed PDA on ``k_nodes`` columns: rows are the size-``i``
    subsets T of the nodes in lexicographic order, stars mark membership,
    and node k outside T gets T | {k}, named by the sum of 3**a over its
    0-based members a. The names are distinct and their hashes spread; a
    column bitmask would not do, as CPython hashes 2**a like 2**(a mod 61). The
    intake's first-occurrence relabel makes that name the lexicographic rank
    of T | {k} among the size-(i+1) subsets.

    For i < K the result is (i+1)-regular with parameters
    (K, C(K,i), K*C(K-1,i-1), C(K,i+1)); for i = K it is the all-star 1xK
    array.
    """
    if k_nodes < 1:
        raise ParameterError("k_nodes must be >= 1")
    if not 1 <= i <= k_nodes:
        raise ParameterError(f"i must be in 1..{k_nodes}, got {i}")
    # C(K,i) >= 2**min(i,K-i)
    _check_cells(f"man({k_nodes},{i})", lambda: math.comb(k_nodes, i), k_nodes,
                 min(i, k_nodes - i) + 1)

    bits = [1 << k for k in range(k_nodes)]
    threes = [3 ** k for k in range(k_nodes)]
    columns = list(zip(bits, threes))
    # each row T's star mask and name, T in order
    rows = zip(map(sum, combinations(bits, i)), map(sum, combinations(threes, i)))
    return _finish([STAR if mask & bit else name + three for bit, three in columns]
                   for mask, name in rows)


def _grid_columns(q: int, m: int) -> list[tuple[int, int, int]]:
    """Column index triples (group i, value j, q**(m-i)), column number
    (i-1)*q + j + 1. A vector b of [0..q-1]**m is named by the int
    1 + sum_i b_i * q**(m-i), its base-q code plus one, so no name is STAR;
    setting b_i to j adds (j - b_i) * q**(m-i) to the name."""
    return [(i, j, q ** (m - i)) for i in range(1, m + 1) for j in range(q)]


def _name(b: tuple[int, ...], q: int) -> int:
    """The int that names vector ``b`` (see ``_grid_columns``)."""
    code = 0
    for digit in b:
        code = code * q + digit
    return code + 1


def _grid_rows(name: str, q: int, m: int, count_rows) -> int:
    """Check a grid family's (q, m) and its F x mq cell count; return F."""
    if q < 2:
        raise ParameterError("q must be >= 2")
    if m < 1:
        raise ParameterError("m must be >= 1")
    return _check_cells(f"{name}({q},{m})", count_rows, m * q,
                        (m - 1) * (q.bit_length() - 1) + 1)


def p1_rows(q: int, m: int) -> int:
    """F = q**(m-1), the row count of ``p1_pda(q, m)``, under its checks."""
    return _grid_rows("p1", q, m, lambda: q ** (m - 1))


def p2_rows(q: int, m: int) -> int:
    """F = (q-1)*q**(m-1), the row count of ``p2_pda(q, m)``, under its checks."""
    return _grid_rows("p2", q, m, lambda: (q - 1) * q ** (m - 1))


def p1_pda(q: int, m: int) -> Pda:
    """Low-file-complexity family, first kind: an m-regular
    (m*q, q**(m-1), m*q**(m-1), (q-1)*q**(m-1)) Comp-PDA with minimum
    storage number m.

    Columns are pairs (i, j) with i in 1..m, j in 0..q-1; rows are the
    vectors b in [0..q-1]**m whose coordinate sum is 0 mod q, in
    lexicographic order. Entry (b, (i, j)) is a star when b_i = j, else the
    symbol named by b with coordinate i replaced by j.
    """
    # the loop below visits q**m = q * F vectors, at most the cell count
    f_rows = p1_rows(q, m)
    columns = _grid_columns(q, m)

    def rows():
        for b in product(range(q), repeat=m):
            if sum(b) % q == 0:
                name = _name(b, q)
                yield [STAR if b[i - 1] == j else name + (j - b[i - 1]) * weight
                       for i, j, weight in columns]
    pda = _finish(rows())
    expected = (m * q, f_rows, m * f_rows, (q - 1) * f_rows)
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
    f_rows = p2_rows(q, m)
    columns = _grid_columns(q, m)

    def rows():
        for b in product(range(q), repeat=m):
            total = sum(b) % q
            if total:
                name = _name(b, q)
                # at j = b_i the fix is (j - total) mod q
                yield [STAR if b[i - 1] != j else name + ((j - total) % q - j) * weight
                       for i, j, weight in columns]
    pda = _finish(rows())
    expected = (m * q, f_rows, m * (q - 1) * f_rows, f_rows // (q - 1))
    if pda.params != expected:
        raise AssertionError(f"p2_pda({q},{m}) parameters {pda.params} != {expected}")
    return pda


def full_star_pda(k_nodes: int, f_rows: int) -> Pda:
    """All-star F x K array: every node stores everything, nothing is shuffled."""
    if k_nodes < 1 or f_rows < 1:
        raise ParameterError("k_nodes and f_rows must be >= 1")
    _check_cells(f"fullstar({k_nodes},{f_rows})", lambda: f_rows, k_nodes,
                 f_rows.bit_length())
    return _finish([STAR] * k_nodes for _ in range(f_rows))


def stack_pda(*pdas: Pda) -> Pda:
    """Vertical union of PDAs on the same K nodes (memory sharing): the rows
    of each part in turn, each part's symbols kept apart from the others'.
    The result is canonical and validated like a parsed array: a part that
    is not a valid PDA raises PdaValidationError."""
    if not pdas:
        raise ParameterError("stack_pda needs at least one PDA")
    widths = sorted({pda.k for pda in pdas})
    if len(widths) > 1:
        raise ParameterError(f"stacked PDAs need equal K, got K in {widths}")

    def rows():
        offset = 0
        for pda in pdas:
            for row in pda.grid:
                yield [entry + offset if entry != STAR else STAR for entry in row]
            offset += max(map(max, pda.grid))  # the part's largest label, 0 if all stars
    return _intake(rows())
