"""The one-scan PDA intake against the pairwise definition of the PDA rules.

``reference_validate`` and ``reference_relabel`` are the validator and the
relabeling that walked every equal-symbol pair and scanned the grid once per
step; they are kept here as the oracle, verbatim but for one "coverage"
violation per maximal run of missing labels. ``validate_pda`` and
``parse_pda`` must report the same violations, in the same order, with the
same parameters, and a ``Pda`` that came through the intake must carry the
same cached facts as one built directly from its grid.
"""

import dataclasses
import re

from hypothesis import given, settings, strategies as st

from pdamr import (
    STAR,
    Pda,
    PdaValidationError,
    ValidationReport,
    Violation,
    full_star_pda,
    man_pda,
    p2_pda,
    parse_pda,
    validate_pda,
)


def reference_validate(grid, require_canonical: bool = True) -> ValidationReport:
    rows = [tuple(row) for row in grid]
    if not rows or not rows[0]:
        raise ValueError("grid must be nonempty")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("grid must be rectangular")

    violations: list[Violation] = []
    occ: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if entry == STAR:
                continue
            if not isinstance(entry, int) or entry < 0:
                violations.append(Violation(
                    "symbol", (i + 1,), (j + 1,),
                    f"entry at ({i + 1},{j + 1}) is not a star or a positive integer"))
                continue
            occ.setdefault(entry, []).append((i, j))

    for sym in sorted(occ):
        places = occ[sym]
        for a in range(len(places)):
            i1, j1 = places[a]
            for b in range(a + 1, len(places)):
                i2, j2 = places[b]
                if i1 == i2 or j1 == j2:
                    violations.append(Violation(
                        "a", (i1 + 1, i2 + 1), (j1 + 1, j2 + 1),
                        f"symbol {sym} repeats in the same "
                        f"{'row' if i1 == i2 else 'column'} at "
                        f"({i1 + 1},{j1 + 1}) and ({i2 + 1},{j2 + 1})"))
                    continue
                if rows[i1][j2] != STAR or rows[i2][j1] != STAR:
                    violations.append(Violation(
                        "b", (i1 + 1, i2 + 1), (j1 + 1, j2 + 1),
                        f"symbol {sym} at ({i1 + 1},{j1 + 1}) and ({i2 + 1},{j2 + 1}) "
                        f"needs stars at ({i1 + 1},{j2 + 1}) and ({i2 + 1},{j1 + 1})"))

    if require_canonical and occ:
        labels = sorted(occ)
        missing = sorted(set(range(1, labels[-1] + 1)) - set(labels))
        runs: list[list[int]] = []  # maximal runs of consecutive missing labels
        for n in missing:
            if runs and runs[-1][-1] == n - 1:
                runs[-1].append(n)
            else:
                runs.append([n])
        for run in runs:
            gap = (f"symbol {run[0]} never occurs" if len(run) == 1 else
                   f"symbols {run[0]}..{run[-1]} never occur")
            violations.append(Violation(
                "coverage", (), (), f"{gap} (labels must cover 1..{labels[-1]})"))
        firsts = sorted(occ, key=lambda sym: occ[sym][0])
        for expected, sym in enumerate(firsts, start=1):
            if sym != expected:
                i, j = occ[sym][0]
                violations.append(Violation(
                    "numbering", (i + 1,), (j + 1,),
                    f"symbol {sym} first occurs at ({i + 1},{j + 1}) out of "
                    f"first-occurrence order (expected {expected})"))
                break

    params = None
    if not violations:
        t = sum(row.count(STAR) for row in rows)
        params = (width, len(rows), t, len(occ))
    return ValidationReport(tuple(violations), params)


def reference_relabel(raw_grid) -> tuple[tuple[int, ...], ...]:
    mapping: dict = {}
    out = []
    for row in raw_grid:
        new_row = []
        for entry in row:
            if entry == STAR:
                new_row.append(STAR)
            else:
                if entry not in mapping:
                    mapping[entry] = len(mapping) + 1
                new_row.append(mapping[entry])
        out.append(tuple(new_row))
    return tuple(out)


def report_key(report: ValidationReport):
    return [dataclasses.astuple(v) for v in report.violations], report.params


def assert_same_facts(pda: Pda) -> None:
    direct = Pda(pda.grid)
    assert pda.occurrences == direct.occurrences
    assert list(pda.occurrences) == list(direct.occurrences)
    assert pda.row_star_masks == direct.row_star_masks
    assert (pda.tau, pda.s_t, pda.t) == (direct.tau, direct.s_t, direct.t)


@st.composite
def raw_grids(draw, planted: bool):
    """Small grids: either random cells over few labels (mostly invalid) or
    a relabeled man/P2 array with a few cells overwritten (often valid).
    With ``planted``, some cells become -1 or "x"."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 5))
        f = draw(st.integers(1, 6))
        cell = st.one_of(st.just(STAR), st.integers(1, 6))
        grid = draw(st.lists(st.lists(cell, min_size=k, max_size=k), min_size=f, max_size=f))
    else:
        base = draw(st.sampled_from([man_pda(3, 1), man_pda(4, 2), man_pda(5, 2),
                                     man_pda(5, 3), p2_pda(3, 1), p2_pda(2, 2)]))
        names = draw(st.permutations(range(1, base.s + 1)))
        grid = [[STAR if e == STAR else names[e - 1] for e in row] for row in base.grid]
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(grid) - 1))
            j = draw(st.integers(0, len(grid[0]) - 1))
            grid[i][j] = draw(st.integers(0, base.s + 1))
    if planted:
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(grid) - 1))
            j = draw(st.integers(0, len(grid[0]) - 1))
            grid[i][j] = draw(st.sampled_from([-1, "x"]))
    return grid


@settings(max_examples=250)
@given(raw_grids(planted=True), st.booleans())
def test_validate_matches_pairwise_reference(grid, require_canonical):
    got = validate_pda(grid, require_canonical=require_canonical)
    want = reference_validate(grid, require_canonical=require_canonical)
    assert report_key(got) == report_key(want)


def render_raw(grid) -> str:
    body = "\n".join(" ".join("*" if e == STAR else str(e) for e in row) for row in grid)
    return f"{len(grid)} {len(grid[0])}\n{body}\n"


@settings(max_examples=250)
@given(raw_grids(planted=False))
def test_parse_matches_relabel_then_pairwise_reference(grid):
    canonical = reference_relabel(grid)
    want = reference_validate(canonical)
    try:
        pda = parse_pda(render_raw(grid))
    except PdaValidationError as exc:
        # the same rules, cells and order as the relabelled reference, but
        # each message names its symbol as the input wrote it
        written = {label: entry for raw_row, row in zip(grid, canonical)
                   for entry, label in zip(raw_row, row) if label != STAR}
        renamed = [dataclasses.replace(v, message=re.sub(
            r"^symbol (\d+) ", lambda m: f"symbol {written[int(m[1])]} ", v.message))
            for v in want.violations]
        assert report_key(exc.report) == report_key(ValidationReport(tuple(renamed), None))
        assert not want.ok
        return
    assert want.ok
    assert pda.grid == canonical
    assert pda.params == want.params
    assert_same_facts(pda)


def test_intake_facts_of_families():
    for pda in (man_pda(6, 3), p2_pda(3, 2), man_pda(4, 4), full_star_pda(3, 2)):
        assert_same_facts(pda)
