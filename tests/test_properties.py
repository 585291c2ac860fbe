"""Property-based checks over randomly drawn PDAs, subsets, and parameters."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from pdamr import (
    EmptyStarRowError,
    PdaFormatError,
    PdaValidationError,
    column_subarray,
    full_star_pda,
    man_pda,
    optimal_load,
    p1_pda,
    p2_pda,
    parse_pda,
    pda_stats,
    render_pda,
    stack_pda,
)


def _pool():
    pdas = []
    for k in range(1, 6):
        for i in range(1, k + 1):
            pdas.append(man_pda(k, i))
    for q in (2, 3):
        for m in (1, 2):
            pdas.append(p1_pda(q, m))
            pdas.append(p2_pda(q, m))
    pdas.append(full_star_pda(4, 3))
    return pdas


POOL = _pool()

pdas = st.sampled_from(POOL)


@given(pdas)
def test_roundtrip_through_text(pda):
    assert parse_pda(render_pda(pda)) == pda


@given(pdas)
def test_symbol_count_identity(pda):
    stats = pda_stats(pda)
    assert sum(t * n for t, n in stats.s_t.items()) == pda.k * pda.f - pda.t
    if pda.s:
        assert sum(stats.theta.values()) == 1


@given(st.data())
def test_subarray_preserves_pda_rules(data):
    pda = data.draw(pdas)
    nodes = data.draw(st.lists(st.integers(1, pda.k), min_size=1,
                               max_size=pda.k, unique=True))
    try:
        sub = column_subarray(pda, nodes)
    except EmptyStarRowError:
        return
    stack_pda(sub)  # the intake raises PdaValidationError on a broken rule


@given(st.data())
def test_subarray_never_fails_when_tau_large_enough(data):
    pda = data.draw(pdas)
    tau = pda_stats(pda).tau
    size = data.draw(st.integers(max(1, pda.k - tau + 1), pda.k))
    nodes = data.draw(st.permutations(range(1, pda.k + 1))).copy()[:size]
    sub = column_subarray(pda, nodes)  # must not raise
    assert sub.f == pda.f and sub.k == size


@settings(max_examples=60)
@given(st.data())
def test_interpolated_load_sits_between_anchors(data):
    k = data.draw(st.integers(2, 12))
    q = data.draw(st.integers(1, k))
    lo_r, hi_r = k - q + 1, k
    if lo_r == hi_r:
        return
    num = data.draw(st.integers(lo_r * 12, hi_r * 12))
    r = Fraction(num, 12)
    value = optimal_load(k, q, r)
    below = optimal_load(k, q, int(r) if r.denominator == 1 else r.numerator // r.denominator)
    above = optimal_load(k, q, min(hi_r, (r.numerator + r.denominator - 1) // r.denominator))
    assert min(below, above) <= value <= max(below, above)


@settings(max_examples=60)
@given(st.integers(2, 14), st.data())
def test_tradeoff_decreasing_in_storage(k, data):
    q = data.draw(st.integers(2, k))
    values = [optimal_load(k, q, r) for r in range(k - q + 1, k + 1)]
    assert all(a > b for a, b in zip(values, values[1:]))


TOKENS = st.sampled_from(["*", "1", "2", "3", "12", "0", "007", "-1", "+1", "x", "#",
                          "\u0663", "\u00b2", "\uff11", "1" * 5000])


@st.composite
def pda_like_text(draw):
    """Text shaped like a PDA file, with bad tokens mixed in."""
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(TOKENS, min_size=k, max_size=k).map(" ".join),
                         min_size=1, max_size=4))
    header = draw(st.sampled_from(["{f} {k}", "{f}", "{f} {k} 1", "\u0662 {k}", "-{f} {k}"]))
    text = "\n".join([header.format(f=len(rows), k=k)] + rows)
    return text.encode("utf-8") if draw(st.booleans()) else text


@settings(max_examples=300)
@given(st.one_of(st.text(), st.binary(), pda_like_text()))
def test_parse_raises_only_pda_errors(text):
    try:
        parse_pda(text)
    except (PdaFormatError, PdaValidationError):
        pass
