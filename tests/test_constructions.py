"""PDA family constructors: exact grids, parameter tuples, validity."""

import hashlib
import itertools
import math

import pytest

from pdamr import (
    STAR,
    ArrayTooLargeError,
    ParameterError,
    Pda,
    PdaValidationError,
    full_star_pda,
    man_pda,
    p1_pda,
    p2_pda,
    parse_pda,
    pda_stats,
    render_pda,
    stack_pda,
    validate_pda,
)
from pdamr import constructions

EXAMPLE_GRID = (
    (STAR, STAR, 1, 2),
    (STAR, 1, STAR, 3),
    (STAR, 2, 3, STAR),
    (1, STAR, STAR, 4),
    (2, STAR, 4, STAR),
    (3, 4, STAR, STAR),
)


def test_man_reproduces_example_grid():
    assert man_pda(4, 2).grid == EXAMPLE_GRID


def test_man_entries_are_lexicographic_ranks():
    # row T, column k outside T: the 1-based rank of T | {k} among the
    # (i+1)-subsets in lexicographic order
    for k in range(1, 11):
        for i in range(1, k + 1):
            rank = {s: r for r, s in enumerate(itertools.combinations(range(k), i + 1), 1)}
            grid = tuple(tuple(STAR if node in row else rank[tuple(sorted(row + (node,)))]
                               for node in range(k))
                         for row in itertools.combinations(range(k), i))
            assert man_pda(k, i).grid == grid, (k, i)


def test_man_trivial_when_i_equals_k():
    for k in (1, 3, 5):
        pda = man_pda(k, k)
        assert pda.grid == ((STAR,) * k,)
        assert pda.params == (k, 1, k, 0)


def test_man_parameters_and_regularity():
    # (K, C(K,i), K*C(K-1,i-1), C(K,i+1)), (i+1)-regular with tau = i
    for k in range(1, 11):
        for i in range(1, k + 1):
            pda = man_pda(k, i)
            assert pda.params == (k, math.comb(k, i), k * math.comb(k - 1, i - 1),
                                  math.comb(k, i + 1))
            stats = pda_stats(pda)
            assert stats.tau == i
            assert stats.storage_load == i
            if i < k:
                assert stats.regular_g == i + 1


def test_man_specific_instance():
    stats = pda_stats(man_pda(5, 2))
    assert man_pda(5, 2).params == (5, 10, 20, 10)
    assert stats.regular_g == 3
    assert stats.tau == 2


def test_man_argument_checks():
    with pytest.raises(ValueError):
        man_pda(0, 1)
    with pytest.raises(ValueError):
        man_pda(4, 0)
    with pytest.raises(ValueError):
        man_pda(4, 5)


def test_p1_exact_small_grid():
    assert p1_pda(2, 2).grid == ((STAR, 1, STAR, 2), (2, STAR, 1, STAR))


def test_p2_exact_small_grid():
    assert p2_pda(2, 2).grid == ((1, STAR, STAR, 2), (STAR, 2, 1, STAR))


def test_p1_p2_parameter_tuples():
    # P1: m-regular (mq, q^(m-1), m q^(m-1), (q-1) q^(m-1)), tau = m
    # P2: m(q-1)-regular (mq, (q-1)q^(m-1), m(q-1)^2 q^(m-1), q^(m-1)), tau = m(q-1)
    for q in range(2, 5):
        for m in range(1, 5):
            pda = p1_pda(q, m)
            assert pda.params == (m * q, q ** (m - 1), m * q ** (m - 1),
                                  (q - 1) * q ** (m - 1))
            stats = pda_stats(pda)
            assert stats.tau == m
            if pda.s:
                assert stats.regular_g == m

            pda = p2_pda(q, m)
            assert pda.params == (m * q, (q - 1) * q ** (m - 1),
                                  m * (q - 1) ** 2 * q ** (m - 1), q ** (m - 1))
            stats = pda_stats(pda)
            assert stats.tau == m * (q - 1)
            assert stats.regular_g == m * (q - 1)


@pytest.mark.parametrize("q,m,params,g,tau", [
    (2, 3, (6, 4, 12, 4), 3, 3),
    (3, 2, (6, 3, 6, 6), 2, 2),
])
def test_p1_specific_instances(q, m, params, g, tau):
    pda = p1_pda(q, m)
    assert pda.params == params
    assert pda_stats(pda).regular_g == g
    assert pda_stats(pda).tau == tau


@pytest.mark.parametrize("q,m,params,g,tau", [
    (3, 2, (6, 6, 24, 3), 4, 4),
    (2, 3, (6, 4, 12, 4), 3, 3),
])
def test_p2_specific_instances(q, m, params, g, tau):
    pda = p2_pda(q, m)
    assert pda.params == params
    assert pda_stats(pda).regular_g == g
    assert pda_stats(pda).tau == tau


def test_p1_p2_argument_checks():
    for builder in (p1_pda, p2_pda):
        with pytest.raises(ValueError):
            builder(1, 2)
        with pytest.raises(ValueError):
            builder(2, 0)


def test_full_star():
    assert full_star_pda(3, 1).grid == ((STAR, STAR, STAR),)
    assert full_star_pda(1, 2).grid == ((STAR,), (STAR,))
    stats = pda_stats(full_star_pda(4, 2))
    assert stats.tau == 4
    assert stats.storage_load == 4
    with pytest.raises(ValueError):
        full_star_pda(0, 1)


def all_small_pdas():
    pdas = []
    for k in range(1, 9):
        for i in range(1, k + 1):
            pdas.append(man_pda(k, i))
    for q in range(2, 5):
        for m in range(1, 5):
            if q * m <= 8:
                pdas.append(p1_pda(q, m))
                pdas.append(p2_pda(q, m))
    pdas.append(full_star_pda(4, 3))
    return pdas


def test_all_constructions_validate():
    for pda in all_small_pdas():
        assert validate_pda(pda.grid).ok


def test_cross_star_subgrid_exhaustive():
    # the g x g subarray spanned by a symbol's occurrences is all stars off
    # the occurrences themselves
    for pda in all_small_pdas():
        for places in pda.occurrences.values():
            for i1, j1 in places:
                for i2, j2 in places:
                    if (i1, j1) != (i2, j2):
                        assert pda.grid[i1][j2 - 1] == STAR


def test_p1_beats_subset_family_file_count():
    # strictly fewer rows than the subset family of equal storage load
    for q in range(2, 5):
        for m in range(2, 5):
            assert p1_pda(q, m).f < math.comb(m * q, m)


@pytest.mark.parametrize("k,i", [(30, 15), (20, 10), (2000, 1)])
def test_man_rejects_oversized_arrays(k, i):
    cells = math.comb(k, i) * k
    with pytest.raises(ArrayTooLargeError, match=rf"man\({k},{i}\) has {cells} cells"):
        man_pda(k, i)


def test_man_cell_limit_is_inclusive(monkeypatch):
    # man(5,2) has C(5,2) * 5 = 50 cells
    monkeypatch.setattr(constructions, "MAX_CELLS", 50)
    assert man_pda(5, 2).f == 10
    monkeypatch.setattr(constructions, "MAX_CELLS", 49)
    with pytest.raises(ArrayTooLargeError):
        man_pda(5, 2)


def test_man_cell_limit_admits_benchmark_array():
    # man(16,8), the largest array built by the tests, demos and benchmark
    assert math.comb(16, 8) * 16 <= constructions.MAX_CELLS


@pytest.mark.parametrize("k,i", [(200, 1), (100, 2)])
def test_man_names_hash_apart(monkeypatch, k, i):
    # the intake keys its labels by name; names that share a hash would make
    # that dict quadratic, as column bitmasks wider than 61 bits would
    names = set()
    real = constructions._intake

    def record(rows):
        rows = list(rows)
        names.update(entry for row in rows for entry in row if entry != STAR)
        return real(rows)

    monkeypatch.setattr(constructions, "_intake", record)
    pda = man_pda(k, i)
    assert len(names) == pda.s == math.comb(k, i + 1)
    assert len(set(map(hash, names))) == len(names)


# a small array of each other family with its F x K cell count
@pytest.mark.parametrize("build,args,cells", [
    (p1_pda, (2, 2), 8),
    (p2_pda, (3, 2), 36),
    (full_star_pda, (3, 2), 6),
], ids=["p1", "p2", "fullstar"])
def test_other_families_share_the_inclusive_cell_limit(monkeypatch, build, args, cells):
    monkeypatch.setattr(constructions, "MAX_CELLS", cells)
    pda = build(*args)
    assert pda.f * pda.k == cells
    monkeypatch.setattr(constructions, "MAX_CELLS", cells - 1)
    with pytest.raises(ArrayTooLargeError, match=f"has {cells} cells"):
        build(*args)


def test_cell_limit_admits_largest_prop1_array():
    # the largest row count the benchmark's prop1 sweep reads through
    # p2_rows, p2(3,8) at K = 24 (it builds no array); the cell limit must
    # admit it, or the sweep would be refused
    assert (3 - 1) * 3 ** 7 * 24 == 104_976 <= constructions.MAX_CELLS


# sha256 of render_pda of each array, computed with the constructors that named
# symbols by tuples and looked up each man entry by a sorted set union
PINNED_RENDERINGS = {
    (man_pda, (16, 8)): "3a21cfdbfe0b880c737e27d9692f9892aac2497b7ebaa62e648c84f925c05efe",
    (man_pda, (9, 4)): "c64cca3d7563a52d89b2d03be96fa4b8b4b6564aeb03c4f00dcc1b9f2712acfe",
    (p1_pda, (2, 12)): "4ffa5cd4f56aa527f62e716c8864a2fa023d7f4a1192308cb20a5e168e036edf",
    (p1_pda, (3, 8)): "b5492b94211fb588874172543ce9794b4e36f188e00032dba517c5a30347403f",
    # P2's symbol names include the all-zero vector, whose base-q code is 0
    (p2_pda, (3, 8)): "a8be37139afd319032befd74e675864d1236919594909030b1df22e564d69599",
    (p2_pda, (4, 6)): "4baf99f7e681e10b98e1e0be5d57b8cf50faaef1e86553f0007f47fbb0ac2b17",
    (p2_pda, (6, 4)): "17939bc3ff1749195e8f3a71d2dac109676f53c0390122d2f2356061df63f585",
}


@pytest.mark.parametrize("build,args", list(PINNED_RENDERINGS),
                         ids=lambda x: getattr(x, "__name__", None) or ",".join(map(str, x)))
def test_rendering_pinned(build, args):
    text = render_pda(build(*args))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == PINNED_RENDERINGS[(build, args)]


def test_stack_matches_offset_labels_parsed():
    parts = (man_pda(5, 2), man_pda(5, 3), man_pda(5, 4))
    rows, offset = [], 0
    for pda in parts:
        rows += [" ".join("*" if e == STAR else str(e + offset) for e in row)
                 for row in pda.grid]
        offset += pda.s
    parsed = parse_pda(f"{len(rows)} 5\n" + "\n".join(rows) + "\n")
    stack = stack_pda(*parts)
    assert stack == parsed
    assert stack.params == (5, 10 + 10 + 5, 20 + 30 + 20, 10 + 5 + 1)
    assert stack.s_t == {3: 10, 4: 5, 5: 1}
    assert validate_pda(stack.grid).ok


def test_stack_keeps_parts_apart():
    # two copies of one array share no symbol, so every multiplicity is kept
    pda = p2_pda(3, 2)
    twice = stack_pda(pda, pda)
    assert twice.f == 2 * pda.f and twice.s == 2 * pda.s
    assert twice.s_t == {g: 2 * n for g, n in pda.s_t.items()}
    assert stack_pda(pda) == pda


def test_stack_of_subarray_with_label_gaps():
    # column subarrays keep the parent's labels, gaps included
    sub = Pda(((STAR, 4), (4, STAR), (STAR, 9)))
    stack = stack_pda(sub, sub)
    assert stack.grid == ((STAR, 1), (1, STAR), (STAR, 2),
                          (STAR, 3), (3, STAR), (STAR, 4))


def test_stack_argument_checks():
    with pytest.raises(ParameterError, match="equal K"):
        stack_pda(man_pda(4, 2), man_pda(5, 2))
    with pytest.raises(ParameterError):
        stack_pda()
    with pytest.raises(PdaValidationError):
        stack_pda(Pda(((1, 1),)))


@pytest.mark.parametrize("call", [
    lambda: man_pda(0, 1), lambda: man_pda(4, 5), lambda: p1_pda(1, 2),
    lambda: p2_pda(2, 0), lambda: full_star_pda(0, 1), lambda: man_pda(30, 15),
], ids=["man-k", "man-i", "p1-q", "p2-m", "fullstar", "too-large"])
def test_constructor_errors_are_parameter_errors(call):
    with pytest.raises(ParameterError):
        call()
