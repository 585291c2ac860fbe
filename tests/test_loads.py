"""Closed-form loads, the fundamental tradeoff, and the file-complexity ratios.

Frozen expected values were computed by independent means before the
implementation: small sums evaluated by hand, plus the brute-force
subset-enumeration oracle at the bottom of this file.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from random_pdas import balanced_comp_pdas, comp_pdas, greedy_comp_pda

from pdamr import (
    InsufficientTauError,
    JobSpec,
    NoMatchingFamilyError,
    ParameterError,
    achieved_load,
    comb,
    full_star_pda,
    man_pda,
    measure_loads,
    optimal_file_complexity,
    optimal_load,
    p1_pda,
    p2_pda,
    parse_pda,
    pda_stats,
    prop1_check,
    render_pda,
    stack_pda,
    tradeoff_curve,
    u_value,
    z_value,
)
from pdamr.loads import (
    MAX_TRADEOFF_TERM_BITS,
    _binomial_bits,
    check_tradeoff_budget,
    tradeoff_terms,
)


def test_comb_zero_convention():
    assert comb(5, 2) == 10
    assert comb(5, -1) == 0
    assert comb(5, 6) == 0
    assert comb(-1, 0) == 0


def test_u_value_small():
    assert u_value(4, 3, 1) == 3
    assert u_value(4, 3, 2) == 3
    assert u_value(4, 3, 3) == Fraction(5, 2)


@pytest.mark.parametrize("k,q", [(4, 3), (6, 2), (7, 5), (10, 10)])
def test_u_value_at_one(k, q):
    assert u_value(k, q, 1) == comb(k - 1, q - 1)


def test_z_value_small():
    assert z_value(4, 3, 2) == Fraction(5, 3)
    assert z_value(4, 3, 3) == Fraction(1, 2)
    for k, q in ((4, 3), (7, 4), (9, 9)):
        assert z_value(k, q, k) == 0


def literal_z_value(k, q, u):
    """The converse bound's node value as the literal sum over l."""
    return sum((Fraction(q - l, q * l) * comb(u, l) * comb(k - u, q - l)
                for l in range(u + q - k, min(u, q) + 1)), Fraction(0))


def test_z_value_matches_tradeoff():
    for k in range(2, 13):
        for q in range(1, k + 1):
            for u in range(k - q + 1, k + 1):
                assert z_value(k, q, u) == literal_z_value(k, q, u)
                assert literal_z_value(k, q, u) == comb(k, q) * optimal_load(k, q, u)


def test_range_checks():
    with pytest.raises(ValueError):
        u_value(4, 3, 0)
    with pytest.raises(ValueError):
        u_value(4, 3, 5)
    with pytest.raises(ValueError):
        z_value(4, 3, 1)  # below K-Q+1
    with pytest.raises(ValueError):
        optimal_load(4, 3, 1)
    with pytest.raises(ValueError):
        optimal_load(4, 5, 4)


def test_optimal_load_values():
    assert optimal_load(4, 3, 2) == Fraction(5, 12)
    assert optimal_load(4, 3, 3) == Fraction(1, 8)
    assert optimal_load(10, 10, 2) == Fraction(2, 5)
    assert optimal_load(10, 8, 3) == Fraction(119, 360)
    for k, q in ((4, 3), (6, 6), (9, 2)):
        assert optimal_load(k, q, k) == 0


def test_optimal_load_interpolates():
    assert optimal_load(4, 3, Fraction(5, 2)) == Fraction(13, 48)
    # interpolation sits on the segment between neighbours
    lo, hi = optimal_load(6, 4, 3), optimal_load(6, 4, 4)
    assert optimal_load(6, 4, Fraction(13, 4)) == lo + (hi - lo) * Fraction(1, 4)


def test_optimal_load_collapses_when_all_active():
    for k in range(2, 11):
        for r in range(1, k):
            assert optimal_load(k, k, r) == (1 - Fraction(r, k)) / r


def test_optimal_load_nonincreasing_in_q():
    # more active nodes never raise the optimal load
    for k in range(2, 11):
        for r in range(1, k + 1):
            values = [optimal_load(k, q, r) for q in range(k - r + 1, k + 1)]
            assert all(a >= b for a, b in zip(values, values[1:])), (k, r)


def test_tradeoff_curve_points():
    curve = tradeoff_curve(4, 3)
    assert curve.points == ((2, Fraction(5, 12)), (3, Fraction(1, 8)), (4, Fraction(0)))
    assert curve.evaluate(Fraction(5, 2)) == Fraction(13, 48)
    # strictly decreasing in r
    for k in range(2, 11):
        for q in range(2, k + 1):
            pts = [l for _, l in tradeoff_curve(k, q).points]
            assert all(a > b for a, b in zip(pts, pts[1:]))


def test_achieved_load_example():
    pair = achieved_load(man_pda(4, 2), 3)
    assert (pair.r, pair.l) == (2, Fraction(5, 12))


def test_achieved_load_trivial_and_p1():
    pair = achieved_load(full_star_pda(4, 2), 2)
    assert (pair.r, pair.l) == (4, 0)
    pair = achieved_load(p1_pda(2, 2), 3)
    assert (pair.r, pair.l) == (2, Fraction(1, 2))


def test_achieved_load_insufficient_tau():
    with pytest.raises(InsufficientTauError):
        achieved_load(man_pda(4, 2), 1)  # tau = 2 < K - Q + 1 = 4


def test_achieved_load_rejects_starless_row():
    # a valid PDA whose second row has no star is not a Comp-PDA
    pda = parse_pda("2 2\n* *\n1 2\n")
    with pytest.raises(ValueError, match="not a Comp-PDA"):
        achieved_load(pda, 2)


def test_achieved_load_regular_identity():
    # for a g-regular array the general formula collapses to the single-term
    # expression; evaluate that expression independently here
    def regular_load(pda, q_active):
        stats = pda_stats(pda)
        k, g = pda.k, stats.regular_g
        total = Fraction(comb(k - g, q_active - 1), comb(k - 1, q_active - 1))
        for l in range(max(1, g - k + q_active - 1), min(g, q_active)):
            total += Fraction(comb(g - 1, l) * comb(k - g, q_active - l - 1),
                              l * comb(k - 1, q_active - 1))
        return (1 - Fraction(pda.t, pda.k * pda.f)) * total

    cases = [(man_pda(5, 2), 4), (man_pda(6, 3), 5), (p1_pda(3, 2), 5),
             (p2_pda(2, 3), 5), (p2_pda(3, 2), 4)]
    for pda, q_active in cases:
        assert achieved_load(pda, q_active).l == regular_load(pda, q_active)


def brute_force_load(pda, q_active):
    """Independent oracle: enumerate active sets and count signal lengths in
    units of one block, straight from the per-symbol length law."""
    total = Fraction(0)
    for active in combinations(range(pda.k), q_active):
        chosen = set(active)
        for places in pda.occurrences.values():
            g = sum(1 for _, c in places if c in chosen)
            if g == 1:
                total += 1
            elif g >= 2:
                total += Fraction(g, g - 1)
    return total / comb(pda.k, q_active) / (pda.f * q_active)


def test_achieved_load_against_brute_force():
    cases = []
    for k in range(2, 7):
        for i in range(1, k + 1):
            cases.append(man_pda(k, i))
    cases += [p1_pda(2, 2), p1_pda(3, 2), p2_pda(2, 2), p2_pda(3, 2), p1_pda(2, 3)]
    for pda in cases:
        tau = pda_stats(pda).tau
        for q_active in range(pda.k - tau + 1, pda.k + 1):
            assert achieved_load(pda, q_active).l == brute_force_load(pda, q_active), \
                (pda.params, q_active)


def valid_qs(pda):
    """Every active-set size the array tolerates: K - tau + 1 .. K."""
    return range(pda.k - pda_stats(pda).tau + 1, pda.k + 1)


@settings(max_examples=150, deadline=None)
@given(comp_pdas(), balanced_comp_pdas())
def test_random_comp_pda_obeys_converse(greedy, balanced):
    for pda in (greedy, balanced):
        r = pda_stats(pda).storage_load
        for q_active in valid_qs(pda):
            assert achieved_load(pda, q_active).l >= optimal_load(pda.k, q_active, r)


@settings(max_examples=100, deadline=None)
@given(comp_pdas(), balanced_comp_pdas())
def test_random_comp_pda_three_witnesses_agree(greedy, balanced):
    # closed form, per-symbol enumeration and the exhaustive transcripts;
    # D = Q and V = lcm(1..Q-1) make every coded block split evenly
    for pda in (greedy, balanced):
        for q_active in valid_qs(pda):
            load = achieved_load(pda, q_active).l
            assert load == brute_force_load(pda, q_active)
            job = JobSpec(pda.f, q_active, 8, math.lcm(*range(1, q_active)), 8, seed=q_active)
            report = measure_loads(pda, job, q_active)
            assert report.l_measured == load
            assert report.match and report.all_reference_match


@pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (1, 3)])
def test_memory_sharing_lies_on_the_tradeoff(a, b):
    # a copies of man(K,i) stacked with b copies of man(K,i+1) sit exactly on
    # the interpolated curve at their own (fractional) storage load
    for k in range(3, 7):
        for i in range(1, k - 1):
            pda = stack_pda(*[man_pda(k, i)] * a, *[man_pda(k, i + 1)] * b)
            r = pda_stats(pda).storage_load
            assert i < r < i + 1
            for q_active in range(k - i + 1, k + 1):
                pair = achieved_load(pda, q_active)
                assert (pair.r, pair.l) == (r, optimal_load(k, q_active, r)), (k, i, q_active)


def test_on_curve_array_with_unequal_storage_needs_few_files():
    # one row, node 4 stores nothing: on the curve at r = 3 with F = 1 < C(4,3)
    pda = parse_pda("1 4\n* * * 1\n")
    pair = achieved_load(pda, 2)
    assert (pair.r, pair.l) == (3, Fraction(1, 4)) == (3, optimal_load(4, 2, 3))
    assert pda.f < comb(4, 3)


def check_file_complexity(pda) -> bool:
    """The file-complexity claim with the hypothesis it needs: when every
    node stores the same number of batches, r is an integer and some valid Q
    puts the array on the curve, it has at least C(K,r) rows. Returns
    whether the premise held."""
    r = pda_stats(pda).storage_load
    per_node = {len(pda.star_rows(j)) for j in range(pda.k)}
    if len(per_node) > 1 or r.denominator != 1:
        return False
    if not any(achieved_load(pda, q).l == optimal_load(pda.k, q, r) for q in valid_qs(pda)):
        return False
    assert pda.f >= comb(pda.k, int(r)), render_pda(pda)
    return True


@settings(max_examples=300, deadline=None)
@given(comp_pdas(), balanced_comp_pdas())
def test_on_curve_with_equal_storage_needs_man_file_count(greedy, balanced):
    # the balanced arrays meet the equal-storage premise by construction
    check_file_complexity(greedy)
    check_file_complexity(balanced)


def test_file_complexity_on_every_small_star_pattern():
    # every star pattern with K <= 4 and F <= 4 (F <= 6 at K = 2) and an equal
    # star count in every column, filled greedily
    held = 0
    for k, max_f in ((2, 6), (3, 4), (4, 4)):
        for f in range(1, max_f + 1):
            for masks in product(range(1, 1 << k), repeat=f):
                if len({sum(mask >> j & 1 for mask in masks) for j in range(k)}) == 1:
                    held += check_file_complexity(greedy_comp_pda(masks, k))
    assert held == 102


def test_subset_family_meets_tradeoff_small():
    for k in range(1, 6):
        for q in range(1, k + 1):
            for r in range(k - q + 1, k + 1):
                assert achieved_load(man_pda(k, r), q).l == optimal_load(k, q, r)


def test_optimal_file_complexity():
    assert optimal_file_complexity(4, 2) == 6
    assert optimal_file_complexity(10, 3) == 120
    for k in (1, 4, 9):
        assert optimal_file_complexity(k, k) == 1
    with pytest.raises(ValueError):
        optimal_file_complexity(4, 0)
    with pytest.raises(ValueError):
        optimal_file_complexity(4, 5)


def test_prop1_concrete_instance():
    rep = prop1_check(4, 2, 3)
    assert rep.family == "P1" and rep.q == 2
    assert rep.l_ratio == Fraction(6, 5)
    assert rep.alpha == Fraction(2, 5)
    assert rep.f_construction == 2
    assert rep.f_optimal == 6
    assert rep.f_ratio == Fraction(1, 3)
    assert rep.a_q == pytest.approx(1.0)
    assert rep.b_q == pytest.approx(math.sqrt(2))
    assert rep.beta == pytest.approx(2 / 3)
    assert rep.alpha_in_range and rep.beta_in_range


def test_prop1_p2_branch():
    rep = prop1_check(6, 4, 4)  # K - r = 2 divides K, q = 3
    assert rep.family == "P2" and rep.q == 3
    assert rep.c == Fraction(2, 3)
    assert rep.f_construction == p2_pda(3, 2).f == 6
    assert rep.alpha_in_range and rep.beta_in_range


def test_prop1_mid_size():
    rep = prop1_check(6, 3, 5)
    assert rep.l_ratio == Fraction(21, 13)
    assert 1 <= rep.l_ratio <= 1 + Fraction(2, 3)


def test_prop1_rejections():
    with pytest.raises(ValueError):
        prop1_check(4, 4, 3)  # r = K excluded
    with pytest.raises(ValueError):
        prop1_check(6, 1, 3)  # r below K - Q + 1
    with pytest.raises(NoMatchingFamilyError):
        prop1_check(7, 3, 7)  # 3 and 4 both fail to divide 7
    with pytest.raises(NoMatchingFamilyError):
        prop1_check(2, 1, 2)  # would need q = K, outside 2..K-1


def prop1_sweep(max_k):
    """Every (K, r, Q) that ``prop1_check`` admits with K <= max_k, as the
    criterion-7 sweep and the benchmark visit them, with its report."""
    for k in range(2, max_k + 1):
        for r in range(1, k):
            for q_active in range(k - r + 1, k + 1):
                try:
                    rep = prop1_check(k, r, q_active)
                except NoMatchingFamilyError:
                    break
                yield (k, r, q_active), rep


def test_prop1_closed_form_matches_the_built_array():
    checked = 0
    for (k, r, q_active), rep in prop1_sweep(12):
        m = r if rep.family == "P1" else k - r
        pda = (p1_pda if rep.family == "P1" else p2_pda)(rep.q, m)
        stats = pda_stats(pda)
        # the two facts the closed form rests on: r-regular, with T/F = r
        assert stats.regular_g == r and stats.storage_load == r, (k, r, q_active)
        assert rep.l_achieved == achieved_load(pda, q_active).l, (k, r, q_active)
        assert rep.f_construction == pda.f, (k, r, q_active)
        checked += 1
    assert checked == 89


PROP1_WITHOUT_ARRAYS = """
import sys
sys.path[:0] = sys.argv[1:]
import pdamr.constructions
from test_loads import prop1_sweep

def refuse(raw_grid):
    raise AssertionError("prop1_check built an array")

pdamr.constructions._finish = refuse
print(sum(1 for _ in prop1_sweep(24)))
"""


def test_prop1_sweep_builds_no_array():
    # a subprocess, so that no array cached by another test can answer for one
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", PROP1_WITHOUT_ARRAYS, str(root / "src"), str(root / "tests")],
        capture_output=True, text=True, cwd=root, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "520\n"


def test_tradeoff_terms_count_every_summed_term():
    def summed(k, q):
        return sum(len(range(r + q - k, min(r, q - 1) + 1)) for r in range(k - q + 1, k + 1))

    for k in range(1, 31):
        for q in range(1, k + 1):
            assert tradeoff_terms(k, q) == summed(k, q), (k, q)
    with pytest.raises(ParameterError):
        tradeoff_terms(0, 1)


def test_tradeoff_curve_refuses_over_budget():
    with pytest.raises(ParameterError, match="estimated 1.53e[+]14 term-bits"):
        tradeoff_curve(100000, 50000)


def test_term_bits_refuse_every_curve_over_a_million_terms():
    # at c = K-Q+1 <= 200 the curve sums c(c+1)/2 + (Q-1-c)*c terms; the
    # smallest Q over 10^6 of them (c = 9: K = 111125, 2.33e8 term-bits)
    # weighs the least of any such curve, and the term-bits still refuse it
    for c in range(1, 201):
        q = c + 1 + (10**6 - c * (c + 1) // 2) // c + 1
        k = q + c - 1
        assert tradeoff_terms(k - 1, q - 1) <= 10**6 < tradeoff_terms(k, q), c
        with pytest.raises(ParameterError, match="term-bits"):
            check_tradeoff_budget(k, q)


def test_every_q_budget_stops_at_the_limit():
    # the running weight of every Q passes the limit within the first few
    # hundred curves, however large K is
    start = time.perf_counter()
    with pytest.raises(ParameterError, match=r"for Q = 1\.\.\d+ weighs"):
        check_tradeoff_budget(10**400)
    assert time.perf_counter() - start < 0.1
    # just past the limit the weight shows enough digits to pass it
    with pytest.raises(ParameterError, match="estimated 200193106 term-bits"):
        check_tradeoff_budget(219)


def test_tradeoff_budget_refuses_weights_past_the_float_range():
    # terms or anchors past the float range, or a product past it
    for k, q in ((10**400, 10**400), (10**400, 10**399), (10**120, 10**119)):
        with pytest.raises(ParameterError, match="estimated over 1.8e[+]308 term-bits"):
            check_tradeoff_budget(k, q)


def test_binomial_bits_bound_large_n():
    for n in (10**3, 10**5, 10**6, 10**9):
        for k in (1, 2, n // 3, n // 2, n - 1):
            exact = (math.lgamma(n + 1) - math.lgamma(k + 1)
                     - math.lgamma(n - k + 1)) / math.log(2)
            assert _binomial_bits(n, k) >= exact * (1 - 1e-9), (n, k)


def test_tradeoff_budget_weighs_terms_by_their_bits():
    for n in range(0, 60):
        for k in range(0, n + 1):
            assert _binomial_bits(n, k) >= math.log2(comb(n, k)) - 1e-9, (n, k)
    # every curve of K = 40 and of K = 200 runs; a huge K at Q = 2 sums one term
    check_tradeoff_budget(40)
    check_tradeoff_budget(200)
    check_tradeoff_budget(10**400, 2)
    check_tradeoff_budget(100000, 300)
    with pytest.raises(ParameterError, match=f"above the limit of {MAX_TRADEOFF_TERM_BITS}"):
        check_tradeoff_budget(100000, 400)
    with pytest.raises(ParameterError, match="estimated 4.04e[+]09 term-bits"):
        tradeoff_curve(100000, 1000)
    # each anchor point weighs 1000 term-bits: 10^5 of them (1.6 s) run,
    # 10^6 (about 16 s) are refused although their terms weigh nothing
    check_tradeoff_budget(100000, 100000)
    with pytest.raises(ParameterError, match="estimated 1e[+]09 term-bits"):
        check_tradeoff_budget(1000000, 1000000)
