"""Parsing, validation, statistics, and column restriction of PDAs."""

import time
from fractions import Fraction

import pytest

from pdamr import (
    STAR,
    EmptyStarRowError,
    ParameterError,
    Pda,
    PdaFormatError,
    PdaValidationError,
    achieved_load,
    column_subarray,
    man_pda,
    full_star_pda,
    p1_pda,
    p2_pda,
    parse_pda,
    pda_stats,
    render_pda,
    stack_pda,
    validate_pda,
)

# the 3-regular (4,6,12,4) array used as the running example
EXAMPLE_TEXT = """\
6 4
* * 1 2
* 1 * 3
* 2 3 *
1 * * 4
2 * 4 *
3 4 * *
"""

EXAMPLE_GRID = (
    (STAR, STAR, 1, 2),
    (STAR, 1, STAR, 3),
    (STAR, 2, 3, STAR),
    (1, STAR, STAR, 4),
    (2, STAR, 4, STAR),
    (3, 4, STAR, STAR),
)


def test_parse_example():
    pda = parse_pda(EXAMPLE_TEXT)
    assert pda.params == (4, 6, 12, 4)
    assert pda.grid == EXAMPLE_GRID


def test_parse_accepts_bytes_comments_and_blank_lines():
    text = b"# a comment\n\n6 4\n" + EXAMPLE_TEXT.split("\n", 1)[1].encode()
    assert parse_pda(text).grid == EXAMPLE_GRID


def test_parse_trivial_single_star():
    pda = parse_pda("1 1\n*")
    assert pda.params == (1, 1, 1, 0)


def test_parse_canonicalizes_labels():
    # labels 7 and 3 become 1 and 2 by first occurrence
    pda = parse_pda("2 2\n* 7\n3 *\n")
    # 7 first, then 3; but both also need the cross-star rule, which holds
    assert pda.grid == ((STAR, 1), (2, STAR))


def test_parse_rejects_repeated_symbol_in_row():
    with pytest.raises(PdaValidationError) as err:
        parse_pda("1 2\n1 1")
    violations = err.value.report.violations
    assert any(v.rule == "a" and v.rows == (1, 1) for v in violations)


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("abc\n", "header"),
    ("2 2 2\n", "header"),
    ("2 x\n* *\n", "header must hold two integers"),
    ("1.5 2\n* *\n", "header must hold two integers"),
    ("1_0 2\n" + "* *\n" * 10, "header must hold two integers"),
    ("+2 2\n* *\n* *\n", "header must hold two integers"),
    ("0 3\n", "degenerate"),
    ("3 0\n", "degenerate"),
    ("2 2\n* *\n", "expected 2 grid rows"),
    ("1 2\n* * *\n", "expected 2 entries"),
    ("1 2\n* 0\n", "bad entry"),
    ("1 2\n* -1\n", "bad entry"),
    ("1 2\n* x\n", "bad entry"),
    # the row count is checked before any row is tokenized
    ("2 2\n* 1\n1 x\n* *\n", "expected 2 grid rows"),
    # a format error wins over a rule broken by an earlier row
    ("2 2\n1 1\n* x\n", "bad entry"),
])
def test_parse_syntax_errors(text, fragment):
    with pytest.raises(PdaFormatError) as err:
        parse_pda(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text", [
    "1 2\n* \u0663\n", "1 2\n* \u00b2\n", "\u0661 1\n*\n", "1 1\n*\u2028\n",
    pytest.param("1 2\n* " + "1" * 5000 + "\n", id="5000-digit-label"),
])
def test_parse_str_rejects_non_ascii_digits_and_huge_labels(text):
    # str input gets the same ASCII-only rule as bytes input
    with pytest.raises(PdaFormatError):
        parse_pda(text)


def test_syntax_error_reports_position():
    with pytest.raises(PdaFormatError) as err:
        parse_pda("1 3\n* 2 x\n")
    assert err.value.line == 2
    assert err.value.column == 5


def test_syntax_error_position_after_an_earlier_match():
    # the bad token "0" also occurs inside the earlier token "10"
    with pytest.raises(PdaFormatError) as err:
        parse_pda("1 3\n\t10  * 0\n")
    assert (err.value.line, err.value.column) == (2, 8)


def test_validate_example_grid_ok():
    report = validate_pda(EXAMPLE_GRID)
    assert report.ok
    assert report.params == (4, 6, 12, 4)


def test_validate_reports_cross_star_break():
    # flipping entry (1,3) from 1 to 3 breaks the cross-star rule against the
    # occurrence of 3 at (2,4), and puts two 3s into column 3
    grid = [list(row) for row in EXAMPLE_GRID]
    grid[0][2] = 3
    report = validate_pda(grid)
    assert not report.ok
    assert any(v.rule == "b" and v.rows == (1, 2) and v.cols == (3, 4)
               for v in report.violations)
    assert any(v.rule == "a" and v.rows == (1, 3) and v.cols == (3, 3)
               for v in report.violations)


def test_validate_canonical_rules():
    report = validate_pda(((STAR, 2), (2, STAR)))
    rules = {v.rule for v in report.violations}
    assert rules == {"coverage", "numbering"}
    report = validate_pda(((1, STAR), (STAR, 3)))
    assert {v.rule for v in report.violations} == {"coverage", "numbering"}


def test_validate_reports_each_coverage_gap_once():
    report = validate_pda(((1, 5, 7),))
    assert [v.message for v in report.violations if v.rule == "coverage"] == [
        "symbols 2..4 never occur (labels must cover 1..7)",
        "symbol 6 never occurs (labels must cover 1..7)"]
    # the work follows the cells, not the largest label
    start = time.perf_counter()
    report = validate_pda([[STAR, 10**9]])
    assert time.perf_counter() - start < 1
    assert [(v.rule, v.message) for v in report.violations] == [
        ("coverage", "symbols 1..999999999 never occur (labels must cover 1..1000000000)"),
        ("numbering", "symbol 1000000000 first occurs at (1,2) out of first-occurrence "
                      "order (expected 1)")]


def test_validate_reports_bad_symbols():
    report = validate_pda(((STAR, -1), (STAR, "x")))
    assert [(v.rule, v.rows, v.cols) for v in report.violations] == [
        ("symbol", (1,), (2,)), ("symbol", (2,), (2,))]
    assert report.params is None
    assert "not a star or a positive integer" in report.summary()


@pytest.mark.parametrize("entry", [1.0, [1], None, "1"])
def test_validate_flags_entries_that_are_not_ints(entry):
    # the type is tested before the entry is hashed: 1.0 does not merge with
    # 1, and an unhashable entry is a violation, not a TypeError
    report = validate_pda(((STAR, 1), (entry, STAR)))
    assert [(v.rule, v.rows, v.cols) for v in report.violations] == [("symbol", (2,), (1,))]


def test_validate_merges_true_with_one():
    report = validate_pda(((STAR, 1), (True, STAR)))
    assert report.ok and report.params == (2, 2, 2, 1)


def test_validation_summary_of_valid_grid():
    assert validate_pda(EXAMPLE_GRID).summary() == "OK: (4,6,12,4) PDA"


def test_validate_all_star_ok():
    report = validate_pda(tuple((STAR,) * 3 for _ in range(3)))
    assert report.ok
    assert report.params == (3, 3, 9, 0)


def test_validate_rejects_malformed_input():
    with pytest.raises(ValueError):
        validate_pda([])
    with pytest.raises(ValueError):
        validate_pda([[STAR, 1], [STAR]])


def test_render_parse_roundtrip():
    for pda in (parse_pda(EXAMPLE_TEXT), man_pda(5, 3), p1_pda(3, 2),
                p2_pda(2, 2), full_star_pda(3, 2)):
        assert parse_pda(render_pda(pda)) == pda


def test_stats_example():
    stats = pda_stats(parse_pda(EXAMPLE_TEXT))
    assert stats.tau == 2
    assert stats.regular_g == 3
    assert stats.theta == {3: Fraction(1)}
    assert stats.storage_load == 2
    assert stats.is_comp


def test_stats_all_star():
    stats = pda_stats(full_star_pda(4, 2))
    assert stats.tau == 4
    assert stats.storage_load == 4
    assert stats.s_t == {} and stats.theta == {}
    assert stats.regular_g is None


def test_stats_matches_constructed_example():
    assert pda_stats(man_pda(4, 2)) == pda_stats(parse_pda(EXAMPLE_TEXT))


def test_stats_theta_sums_to_one():
    for pda in (man_pda(5, 2), p1_pda(2, 3), p2_pda(3, 2)):
        stats = pda_stats(pda)
        assert sum(stats.theta.values()) == 1
        assert sum(t * n for t, n in stats.s_t.items()) == pda.k * pda.f - pda.t


def test_subarray_of_example():
    sub = column_subarray(parse_pda(EXAMPLE_TEXT), [1, 2, 4])
    assert sub.grid == (
        (STAR, STAR, 2),
        (STAR, 1, 3),
        (STAR, 2, STAR),
        (1, STAR, 4),
        (2, STAR, STAR),
        (3, 4, STAR),
    )
    # labels are kept, so occurrence counts relate to the parent's
    assert {s: len(p) for s, p in sub.occurrences.items()} == {1: 2, 2: 3, 3: 2, 4: 2}


def test_subarray_identity():
    pda = parse_pda(EXAMPLE_TEXT)
    assert column_subarray(pda, [1, 2, 3, 4]) == pda


def test_subarray_outage():
    with pytest.raises(EmptyStarRowError) as err:
        column_subarray(p1_pda(2, 2), [2, 4])
    assert err.value.row == 1


def test_subarray_argument_checks():
    pda = parse_pda(EXAMPLE_TEXT)
    with pytest.raises(ValueError):
        column_subarray(pda, [])
    with pytest.raises(ValueError):
        column_subarray(pda, [1, 1])
    with pytest.raises(ValueError):
        column_subarray(pda, [0])
    with pytest.raises(ValueError):
        column_subarray(pda, [5])


def test_subarray_single_column():
    # a single column keeps every row only when it is all stars
    sub = column_subarray(Pda(((STAR, 1, STAR), (STAR, STAR, 1))), [1])
    assert sub.grid == ((STAR,), (STAR,))
    with pytest.raises(EmptyStarRowError) as err:
        column_subarray(parse_pda(EXAMPLE_TEXT), [4])
    assert err.value.row == 1


def test_subarray_argument_errors_are_parameter_errors():
    pda = parse_pda(EXAMPLE_TEXT)
    for nodes in ([], [1, 1], [0], [5]):
        with pytest.raises(ParameterError):
            column_subarray(pda, nodes)
    with pytest.raises(ParameterError):
        column_subarray(p1_pda(2, 2), [2, 4])  # an outage


def test_stats_hands_out_fresh_dicts():
    pda = man_pda(5, 2)
    first = pda_stats(pda)
    first.s_t[3] = 0
    first.theta.clear()
    assert pda_stats(pda) == pda_stats(man_pda(5, 2))
    assert pda.s_t == {3: 10} and pda.tau == 2


def test_cached_facts_of_unvalidated_grid():
    pda = Pda(((STAR, 5, STAR), (5, STAR, 7), (STAR, STAR, STAR)))
    assert pda.row_star_masks == (0b101, 0b010, 0b111)
    assert (pda.tau, pda.t, pda.s_t) == (1, 6, {1: 1, 2: 1})
    # (0-based row, 1-based node), places by ascending node, not row-major
    assert pda.occurrences == {5: ((1, 1), (0, 2)), 7: ((1, 3),)}
    # symbols ascending, not in the order of their first occurrence
    assert tuple(Pda(((9, STAR), (STAR, 3))).occurrences) == (3, 9)


def test_pda_helpers():
    pda = parse_pda(EXAMPLE_TEXT)
    assert pda.star_rows(0) == (0, 1, 2)
    assert pda.row_star_masks[5].bit_count() == 2
    assert Pda(EXAMPLE_GRID) == pda


@pytest.mark.parametrize("build", [
    lambda: parse_pda(EXAMPLE_TEXT),
    lambda: man_pda(6, 3),
    lambda: stack_pda(man_pda(5, 2), man_pda(5, 3), full_star_pda(5, 1)),
], ids=["parsed", "man-6-3", "stacked"])
def test_facts_build_no_places(build):
    # the intake hands over the row masks and symbol counts; places are
    # built only when ``occurrences`` is read
    pda = build()
    stacked = stack_pda(pda, pda)
    for array in (pda, stacked):
        pda_stats(array)
        achieved_load(array, array.k)
        render_pda(array)
        assert array.params == Pda(array.grid).params
        assert "occurrences" not in array.__dict__
    assert list(pda.occurrences.items()) == list(Pda(pda.grid).occurrences.items())
