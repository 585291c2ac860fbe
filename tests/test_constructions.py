"""PDA family constructors: exact grids, parameter tuples, validity."""

import math

import pytest

from pdamr import (
    STAR,
    ArrayTooLargeError,
    full_star_pda,
    man_pda,
    p1_pda,
    p2_pda,
    pda_stats,
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
                        assert pda.grid[i1][j2] == STAR


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
    # p2(3,8), the largest family array of the benchmark's prop1 sweep
    assert (3 - 1) * 3 ** 7 * 24 == 104_976 <= constructions.MAX_CELLS
