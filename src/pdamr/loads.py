"""Closed-form storage/communication loads, the fundamental tradeoff, and the
file-complexity comparisons, all in exact rational arithmetic.

Loads are normalized quantities: the storage load r counts stored copies per
library file, the communication load L counts shuffled bits as a fraction of
the N*D*V bits of all intermediate values. Every function here returns
``Fraction`` values so measured-versus-formula comparisons can demand
equality instead of tolerances. Only the Stirling-scale constants of
``prop1_check`` (a_q, b_q, beta) are floats, since they are irrational.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .constructions import p1_rows, p2_rows
from .pda import ParameterError, Pda, pda_stats

BETA_BOUND = math.sqrt(2 * math.pi) * math.e ** 2  # upper range for beta, ~18.48
# The one tradeoff budget: each curve's exact terms x the bit length of
# C(K-1,Q-1), which bounds every term of the curve, plus TRADEOFF_ANCHOR_BITS
# per anchor point. On a 2-vCPU Xeon every Q of K = 200 weighs 1.45e8
# (3.0-3.6 s), (K, Q) = (100000, 300) 1.32e8 (1.7 s), (100000, 400) 3.0e8
# (5.0 s) and (100000, 100000) 1.0e8 (1.6 s)
MAX_TRADEOFF_TERM_BITS = 2 * 10**8
# An anchor costs about 16 us however small its terms (an optimal_load call),
# as much as 750-1200 term-bits cost on the curves above
TRADEOFF_ANCHOR_BITS = 1000


def comb(n: int, k: int) -> int:
    """Binomial coefficient with C(n,k) = 0 outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


class InsufficientTauError(ParameterError):
    """The PDA stores too few copies per row for the requested active-set size."""

    def __init__(self, tau: int, needed: int):
        self.tau = tau
        self.needed = needed
        super().__init__(f"minimum storage number {tau} < required {needed}")


class NoMatchingFamilyError(ParameterError):
    """Neither low-file-complexity construction covers the requested (K, r)."""


@dataclass(frozen=True)
class LoadPair:
    r: Fraction
    l: Fraction


@dataclass(frozen=True)
class TradeoffCurve:
    """Integer anchor points of the fundamental tradeoff for one (K, Q);
    between anchors the curve is their linear interpolation."""

    k_nodes: int
    q_active: int
    points: tuple[tuple[int, Fraction], ...]  # (r, L*(r)), r ascending

    def evaluate(self, r) -> Fraction:
        return optimal_load(self.k_nodes, self.q_active, r)


def _check_kq(k_nodes: int, q_active: int) -> None:
    if k_nodes < 1:
        raise ParameterError("k_nodes must be >= 1")
    if not 1 <= q_active <= k_nodes:
        raise ParameterError(f"q_active must be in 1..{k_nodes}, got {q_active}")


def u_value(k_nodes: int, q_active: int, u: int) -> Fraction:
    """Per-symbol signal weight of a multiplicity-``u`` symbol: the bracket
    C(K-u,Q-1) + sum_l C(u-1,l)*C(K-u,Q-l-1)/l that scales its average
    contribution to the shuffle. Defined for u in 1..K; constant in u over
    {1,2} and strictly decreasing beyond when Q >= 3."""
    _check_kq(k_nodes, q_active)
    if not 1 <= u <= k_nodes:
        raise ParameterError(f"u must be in 1..{k_nodes}, got {u}")
    total = Fraction(comb(k_nodes - u, q_active - 1))
    lo = max(1, u - k_nodes + q_active - 1)
    hi = min(u, q_active) - 1
    for l in range(lo, hi + 1):
        total += Fraction(comb(u - 1, l) * comb(k_nodes - u, q_active - l - 1), l)
    return total


def z_value(k_nodes: int, q_active: int, u: int) -> Fraction:
    """Node value of the converse bound at integer storage ``u``:
    sum_l ((Q-l)/(Q*l)) * C(u,l) * C(K-u,Q-l) over l in [u+Q-K .. min(u,Q)],
    which is C(K,Q) times the fundamental tradeoff at r = u."""
    _check_kq(k_nodes, q_active)
    if not k_nodes - q_active + 1 <= u <= k_nodes:
        raise ParameterError(
            f"u must be in {k_nodes - q_active + 1}..{k_nodes}, got {u}")
    return comb(k_nodes, q_active) * optimal_load(k_nodes, q_active, u)


def optimal_load(k_nodes: int, q_active: int, r) -> Fraction:
    """Fundamental storage-communication tradeoff L*(r) for a K-node system
    where the first Q nodes to finish mapping carry the shuffle.

    For integer r in [K-Q+1 .. K]:
        L*(r) = (1 - r/K) * sum_l (1/l) * C(r,l)*C(K-r-1,Q-l-1) / C(K-1,Q-1),
    summing l from r+Q-K to min(r, Q-1). Non-integer r interpolates linearly
    between the neighbouring integer points, which is exact because the
    integer sequence is convex.
    """
    _check_kq(k_nodes, q_active)
    r = Fraction(r)
    lo_bound, hi_bound = k_nodes - q_active + 1, k_nodes
    if not lo_bound <= r <= hi_bound:
        raise ParameterError(f"r must be in [{lo_bound}, {hi_bound}], got {r}")

    if r.denominator != 1:
        below, above = r.numerator // r.denominator, r.numerator // r.denominator + 1
        l_below = optimal_load(k_nodes, q_active, below)
        l_above = optimal_load(k_nodes, q_active, above)
        return l_below + (l_above - l_below) * (r - below)

    r = int(r)
    total = Fraction(0)
    for l in range(r + q_active - k_nodes, min(r, q_active - 1) + 1):
        total += Fraction(comb(r, l) * comb(k_nodes - r - 1, q_active - l - 1), l)
    return (1 - Fraction(r, k_nodes)) * total / comb(k_nodes - 1, q_active - 1)


def tradeoff_terms(k_nodes: int, q_active: int) -> int:
    """How many Fraction terms ``optimal_load`` sums over the integer anchors
    of the (K, Q) curve.

    With b = Q-1 and c = K-b, the anchor r = K-a (a in 0..b) sums min(a, c)
    terms: b(b+1)/2 in all when b <= c, else c(c+1)/2 + (b-c)*c.
    """
    _check_kq(k_nodes, q_active)
    b, c = q_active - 1, k_nodes - q_active + 1
    return b * (b + 1) // 2 if b <= c else c * (c + 1) // 2 + (b - c) * c


def _binomial_bits(n: int, k: int) -> float:
    """An O(1) estimate of the bit length of C(n, k): m*log2(e*n/m) with
    m = min(k, n-k), an upper bound on log2 C(n, k) for any size of n."""
    m = min(k, n - k)
    return m * (math.log2(n) - math.log2(m) + math.log2(math.e)) if m > 0 else 0.0


def check_tradeoff_budget(k_nodes: int, q_active: int | None = None) -> None:
    """Refuse a tradeoff request above MAX_TRADEOFF_TERM_BITS before any term
    is summed. Each curve weighs its exact terms times the estimated bit
    length of its binomials, plus TRADEOFF_ANCHOR_BITS for each of its Q
    anchor points; ``q_active`` None stands for every Q in 1..K, whose
    running weight is refused as soon as it passes the limit."""
    _check_kq(k_nodes, 1 if q_active is None else q_active)
    weight = 0.0
    for q in range(1, k_nodes + 1) if q_active is None else (q_active,):
        try:
            weight += (tradeoff_terms(k_nodes, q) * _binomial_bits(k_nodes - 1, q - 1)
                       + q * TRADEOFF_ANCHOR_BITS)
        except OverflowError:  # an int past the float range, at Q over 1e154
            weight = math.inf
        if weight > MAX_TRADEOFF_TERM_BITS:
            which = f"Q = {q}" if q_active is not None else f"Q = 1..{q}"
            shown = f"{weight:.3g}"
            if weight == math.inf:
                shown = f"over {sys.float_info.max:.3g}"
            elif float(shown) <= MAX_TRADEOFF_TERM_BITS:  # 3 digits hide the excess
                shown = str(math.ceil(weight))
            raise ParameterError(
                f"the tradeoff of K = {k_nodes} for {which} weighs an estimated "
                f"{shown} term-bits (exact terms x the bit length of C(K-1,Q-1), "
                f"plus {TRADEOFF_ANCHOR_BITS} per anchor point), "
                f"above the limit of {MAX_TRADEOFF_TERM_BITS}")


def tradeoff_curve(k_nodes: int, q_active: int) -> TradeoffCurve:
    """All integer anchor points of the fundamental tradeoff for (K, Q)."""
    check_tradeoff_budget(k_nodes, q_active)
    points = tuple((r, optimal_load(k_nodes, q_active, r))
                   for r in range(k_nodes - q_active + 1, k_nodes + 1))
    return TradeoffCurve(k_nodes, q_active, points)


def achieved_load(pda: Pda, q_active: int) -> LoadPair:
    """Exact storage/communication load pair of the coded shuffle scheme built
    from ``pda`` when ``q_active`` nodes stay active.

    L = (1 - T/(F*K)) * sum_t theta_t * u_value(K, Q, t) / C(K-1, Q-1).
    For a g-regular array the sum collapses to the single term t = g, which
    ``prop1_check`` evaluates through the same ``_load``.
    """
    _check_kq(pda.k, q_active)
    stats = pda_stats(pda)
    if not stats.is_comp:
        raise ParameterError("not a Comp-PDA: some row has no star")
    needed = pda.k - q_active + 1
    if stats.tau < needed:
        raise InsufficientTauError(stats.tau, needed)

    return LoadPair(r=stats.storage_load,
                    l=_load(pda.k, q_active, stats.storage_load, stats.theta))


def _load(k_nodes: int, q_active: int, r, theta: dict) -> Fraction:
    """The load (1 - r/K) * sum_t theta_t * u_value(K, Q, t) / C(K-1, Q-1)."""
    weight = sum(frac * u_value(k_nodes, q_active, t) for t, frac in theta.items())
    return (1 - Fraction(r) / k_nodes) * weight / comb(k_nodes - 1, q_active - 1)


def optimal_file_complexity(k_nodes: int, r: int) -> int:
    """Minimum number of file batches any scheme needs to sit exactly on the
    tradeoff at integer storage r (met with equality by the subset family)."""
    if not 1 <= r <= k_nodes:
        raise ParameterError(f"r must be in 1..{k_nodes}, got {r}")
    return comb(k_nodes, r)


@dataclass(frozen=True)
class Prop1Report:
    """How close a low-file-complexity construction sits to the tradeoff.

    l_ratio = achieved/optimal load; alpha = r*(l_ratio - 1) and must land in
    [0, 2]. f_construction is the family's closed-form row count (no array
    is built), f_optimal = C(K, r), and beta scales their ratio against the
    Stirling envelope A_q * sqrt(K) * B_q**(-K); it must land in [0, sqrt(2*pi)*e**2].
    """

    k_nodes: int
    r: int
    q_active: int
    family: str  # "P1" or "P2"
    q: int
    c: Fraction  # r / K, equal to 1/q (P1) or (q-1)/q (P2)
    l_achieved: Fraction
    l_optimal: Fraction
    l_ratio: Fraction
    alpha: Fraction
    f_construction: int
    f_optimal: int
    f_ratio: Fraction
    a_q: float
    b_q: float
    beta: float
    alpha_in_range: bool
    beta_in_range: bool


def _family_for(k_nodes: int, r: int):
    """The construction covering storage load r on k_nodes nodes: its family,
    q and row count F. P1 has m = r and P2 m = K - r, each with q = K/m."""
    for family, rows, m in (("P1", p1_rows, r), ("P2", p2_rows, k_nodes - r)):
        q = k_nodes // m
        if k_nodes % m == 0 and 2 <= q <= k_nodes - 1:
            return family, q, rows(q, m)
    raise NoMatchingFamilyError(
        f"r/K = {r}/{k_nodes} is not 1/q or (q-1)/q for any q in 2..{k_nodes - 1}")


def prop1_check(k_nodes: int, r: int, q_active: int) -> Prop1Report:
    """Evaluate the closeness-to-optimal and file-complexity-reduction claims
    for the low-file-complexity construction matching (K, r), under active-set
    size Q. Requires K-Q+1 <= r <= K-1 and r/K in {1/q, (q-1)/q}. Builds no
    array: f_construction is the family's row count (``p1_rows`` / ``p2_rows``,
    refused above the cell limit as ``gen`` refuses it)."""
    _check_kq(k_nodes, q_active)
    if not k_nodes - q_active + 1 <= r <= k_nodes - 1:
        raise ParameterError(
            f"r must be in {k_nodes - q_active + 1}..{k_nodes - 1}, got {r}")
    family, q, f_construction = _family_for(k_nodes, r)

    # both families are r-regular with T/F = r: P1 has g = m = r, P2 g = m(q-1) = r
    l_achieved = _load(k_nodes, q_active, r, {r: Fraction(1)})
    l_optimal = optimal_load(k_nodes, q_active, r)
    l_ratio = l_achieved / l_optimal
    alpha = r * (l_ratio - 1)

    c = Fraction(r, k_nodes)
    f_optimal = optimal_file_complexity(k_nodes, r)
    f_ratio = Fraction(f_construction, f_optimal)
    a_q = math.sqrt(q - 1) / (c * q)
    b_q = (q / (q - 1)) ** ((q - 1) / q)
    beta = float(f_ratio) * b_q ** k_nodes / (a_q * math.sqrt(k_nodes))

    return Prop1Report(
        k_nodes=k_nodes, r=r, q_active=q_active,
        family=family, q=q, c=c,
        l_achieved=l_achieved, l_optimal=l_optimal, l_ratio=l_ratio, alpha=alpha,
        f_construction=f_construction, f_optimal=f_optimal, f_ratio=f_ratio,
        a_q=a_q, b_q=b_q, beta=beta,
        alpha_in_range=0 <= alpha <= 2,
        beta_in_range=0 <= beta <= BETA_BOUND,
    )
