"""Placement delivery arrays: representation, parsing, validation, statistics.

A placement delivery array (PDA) is an F x K array whose entries are either a
star or an ordinary symbol. Stars encode which node stores which file batch;
ordinary symbols encode the coded delivery: equal symbols mark intermediate
values that can be exchanged in one multicast transmission.

Grid entries are plain ints: ``STAR`` (0) for a star, a positive label for an
ordinary symbol. Canonical arrays label their symbols 1..S in row-major order
of first occurrence; column subarrays keep the parent's labels, so their label
sets may have gaps.

One row-major pass (``_scan``) is the only walk over a grid's cells that
finds its facts: it relabels the symbols, records their occurrences and one
star bitmask per row, and flags entries that are not symbols. Parsed and
constructed arrays share one intake (``_intake``), which checks the PDA
rules per symbol against those masks; ``validate_pda`` and a directly built
``Pda`` read the same scan. Every ``Pda`` lists its occurrences with the
symbols ascending, places by ascending column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

STAR = 0


class ParameterError(ValueError):
    """A caller's parameter is out of range or inconsistent with the others
    (the CLI's exit code 3)."""


class PdaFormatError(ValueError):
    """PDA text that cannot be parsed. ``line``/``column`` are 1-based."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


@dataclass(frozen=True)
class Violation:
    """One broken PDA rule, with the 1-based coordinates involved.

    rule is one of:
      "a"         equal symbols share a row or a column
      "b"         the cross positions of an equal-symbol pair are not both stars
      "symbol"    an entry is not a star or a positive integer
      "coverage"  a run of labels in 1..max(labels) never occurs
      "numbering" first occurrences are not in increasing label order
    """

    rule: str
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    params: tuple[int, int, int, int] | None  # (K, F, T, S) when valid

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            k, f, t, s = self.params
            return f"OK: ({k},{f},{t},{s}) PDA"
        return "\n".join(f"rule {v.rule}: {v.message}" for v in self.violations)


class PdaValidationError(ValueError):
    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(report.summary())


class EmptyStarRowError(ParameterError):
    """A column restriction left some row without a star (outage)."""

    def __init__(self, row: int):
        self.row = row  # 1-based
        super().__init__(f"row {row} keeps no star under the requested column subset")


@dataclass(frozen=True)
class Pda:
    """Validated PDA grid, built by ``parse_pda``, the family constructors,
    ``stack_pda`` or ``column_subarray``; one built directly skips validation.
    Each fact is computed once per array; the intake hands over its scan's
    ``occurrences`` (symbols ascending, places by ascending column) and masks."""

    grid: tuple[tuple[int, ...], ...]

    @cached_property
    def f(self) -> int:
        """Row count (number of file batches)."""
        return len(self.grid)

    @cached_property
    def k(self) -> int:
        """Column count (number of nodes)."""
        return len(self.grid[0])

    @cached_property
    def t(self) -> int:
        """Total number of star entries."""
        return sum(mask.bit_count() for mask in self.row_star_masks)

    @cached_property
    def s(self) -> int:
        """Number of distinct ordinary symbols."""
        return len(self.occurrences)

    @cached_property
    def occurrences(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """symbol -> ((row, col), ...), 0-based; symbols ascending, places by column. Read-only."""
        label_of, places, _, masks, _ = _scan(self.grid)
        self.__dict__["row_star_masks"] = tuple(masks)  # one scan fills both
        return {sym: _in_column_order(places[label_of[sym]]) for sym in sorted(label_of)}

    @cached_property
    def row_star_masks(self) -> tuple[int, ...]:
        """Per row, a bitmask with bit j set when 0-based column j is a star."""
        self.occurrences  # its scan fills both
        return self.__dict__["row_star_masks"]

    @cached_property
    def tau(self) -> int:
        """Minimum number of stars over the rows."""
        return min(mask.bit_count() for mask in self.row_star_masks)

    @cached_property
    def s_t(self) -> dict[int, int]:
        """Multiplicity t -> number of symbols occurring exactly t times, t
        ascending. Read-only; ``pda_stats`` hands out copies."""
        s_t: dict[int, int] = {}
        for places in self.occurrences.values():
            s_t[len(places)] = s_t.get(len(places), 0) + 1
        return dict(sorted(s_t.items()))

    @property
    def params(self) -> tuple[int, int, int, int]:
        """(K, F, T, S)."""
        return (self.k, self.f, self.t, self.s)

    def star_rows(self, j: int) -> tuple[int, ...]:
        """0-based rows holding a star in column ``j``."""
        return tuple(i for i, mask in enumerate(self.row_star_masks) if mask >> j & 1)


@dataclass(frozen=True)
class PdaStats:
    """Derived PDA quantities, all exact.

    tau           minimum number of stars over the rows
    s_t           multiplicity t -> number of symbols occurring exactly t times
    theta         multiplicity t -> fraction of ordinary entries under such
                  symbols (S_t * t / (K*F - T)); empty for an all-star array
    regular_g     g when every symbol occurs exactly g times, else None
    storage_load  T / F, the number of stored copies per file
    is_comp       True when every row has at least one star
    """

    tau: int
    s_t: dict[int, int]
    theta: dict[int, Fraction]
    regular_g: int | None
    storage_load: Fraction
    is_comp: bool


def _rule_violations(sym, places, masks) -> list[Violation]:
    """Rules (a) and (b) for the occurrences ``places`` ((row, col), 0-based,
    row-major) of one symbol, given each row's star bitmask.

    One pass decides that both hold: the columns are distinct (their mask
    has one bit per occurrence) and each row holds stars in all the other
    columns (two occurrences in one row fail this too, since neither cell is
    a star). Only a symbol that fails has its pairs walked, so the
    violations, in content and order, are those of the pairwise definition.
    """
    cols, common = 0, -1  # common: columns starred or occupied in every row
    for i, j in places:
        bit = 1 << j
        cols |= bit
        common &= masks[i] | bit
    if cols.bit_count() == len(places) and cols & common == cols:
        return []
    violations = []
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
            if not masks[i1] >> j2 & 1 or not masks[i2] >> j1 & 1:
                violations.append(Violation(
                    "b", (i1 + 1, i2 + 1), (j1 + 1, j2 + 1),
                    f"symbol {sym} at ({i1 + 1},{j1 + 1}) and ({i2 + 1},{j2 + 1}) "
                    f"needs stars at ({i1 + 1},{j2 + 1}) and ({i2 + 1},{j1 + 1})"))
    return violations


def _scan(rows):
    """The one pass over a grid's cells, row-major. Returns
    ``(label_of, places, grid, masks, bad)``:

    label_of  symbol entry -> label 1..S, in first-occurrence order
    places    label -> list of its (row, col) occurrences, 0-based; places[0]
              is None
    grid      the rows relabelled, star cells kept as they are
    masks     per row, a bitmask with bit j set when column j is a star
    bad       a "symbol" Violation per entry that is neither STAR nor a
              positive int, row-major; such a cell keeps its entry

    An entry's type is tested before it is hashed, so 1.0 never merges with
    1 and an unhashable entry is reported, not raised.
    """
    label_of: dict = {}
    places: list = [None]
    grid, masks, bad = [], [], []
    for i, row in enumerate(rows):
        mask = 0
        labels = list(row)  # star cells stay as they are
        for j, entry in enumerate(row):
            if entry == STAR:
                mask |= 1 << j
            elif not isinstance(entry, int) or entry < 0:
                bad.append(Violation(
                    "symbol", (i + 1,), (j + 1,),
                    f"entry at ({i + 1},{j + 1}) is not a star or a positive integer"))
            else:
                label = label_of.get(entry)
                if label is None:
                    label = label_of[entry] = len(places)
                    places.append([(i, j)])
                else:
                    places[label].append((i, j))
                labels[j] = label
        grid.append(tuple(labels))
        masks.append(mask)
    return label_of, places, grid, masks, bad


def _in_column_order(places) -> tuple[tuple[int, int], ...]:
    """One symbol's row-major places by ascending column (a stable sort)."""
    return tuple(sorted(places, key=itemgetter(1)))


def validate_pda(grid, require_canonical: bool = True) -> ValidationReport:
    """Check a raw grid against the PDA rules and report every violation.

    ``grid`` is a nonempty rectangular sequence of rows of ints (STAR or a
    symbol label). With ``require_canonical`` the label set must be exactly
    1..S, numbered in row-major first-occurrence order; column subarrays are
    checked with it off.
    """
    rows = [tuple(row) for row in grid]
    if not rows or not rows[0]:
        raise ValueError("grid must be nonempty")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("grid must be rectangular")

    label_of, places, _, masks, violations = _scan(rows)
    symbols = sorted(label_of)
    for sym in symbols:
        violations += _rule_violations(sym, places[label_of[sym]], masks)

    if require_canonical and symbols:
        for before, after in zip([0] + symbols, symbols):  # one violation per gap
            if after - before > 1:
                gap = (f"symbol {before + 1} never occurs" if after - before == 2 else
                       f"symbols {before + 1}..{after - 1} never occur")
                violations.append(Violation(
                    "coverage", (), (), f"{gap} (labels must cover 1..{symbols[-1]})"))
        for expected, sym in enumerate(label_of, start=1):  # first-occurrence order
            if sym != expected:
                i, j = places[expected][0]
                violations.append(Violation(
                    "numbering", (i + 1,), (j + 1,),
                    f"symbol {sym} first occurs at ({i + 1},{j + 1}) out of "
                    f"first-occurrence order (expected {expected})"))
                break

    params = (width, len(rows), sum(map(int.bit_count, masks)), len(label_of))
    return ValidationReport(tuple(violations), None if violations else params)


def _intake(rows) -> Pda:
    """The validated canonical ``Pda`` of a nonempty rectangular grid whose
    entries are STAR or positive ints.

    ``_scan`` renumbers the symbols 1..S by first occurrence and records each
    symbol's places, row-major, and each row's star mask; ``_rule_violations``
    checks each symbol, in O(cells + sum of multiplicities) unless a rule
    breaks. Raises PdaValidationError listing every violation: any "symbol"
    ones of the scan, then the rules in label order, each naming its symbol
    as the grid wrote it. Only a valid grid has its places put in column order.
    """
    label_of, places, grid, masks, violations = _scan(rows)
    for entry, label in label_of.items():  # labels 1..S in order
        violations += _rule_violations(entry, places[label], masks)
    if violations:
        raise PdaValidationError(ValidationReport(tuple(violations), None))
    occurrences: dict[int, tuple[tuple[int, int], ...]] = {}
    for label in label_of.values():  # keys share the grid's ints; each list goes once copied
        occurrences[label], places[label] = _in_column_order(places[label]), None
    pda = Pda(tuple(grid))
    # seed the cached properties with what the scan found (Pda is frozen)
    pda.__dict__.update(occurrences=occurrences, row_star_masks=tuple(masks))
    return pda


def _symbol(token: str) -> int | None:
    """The label an ASCII token spells, or None unless it is a positive integer."""
    try:
        value = int(token) if token.isdigit() else 0
    except ValueError:  # more digits than int() converts
        return None
    return value if value > 0 else None


def _token_column(line: str, tokens: list[str], index: int) -> int:
    """1-based column of ``tokens[index]`` in ``line``, where tokens = line.split()."""
    pos = 0
    for token in tokens[:index]:
        pos = line.index(token, pos) + len(token)
    return line.index(tokens[index], pos) + 1


def parse_pda(text) -> Pda:
    """Parse PDA text: a header line ``F K`` followed by F rows of K
    whitespace-separated tokens, each ``*`` or a positive integer. Lines
    starting with ``#`` and blank lines are ignored. The text must be ASCII,
    as ``bytes`` or ``str``. Symbols are renumbered canonically; the grid is
    then validated.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise PdaFormatError(f"PDA text is not ASCII: {exc}") from None
    elif not text.isascii():
        pos = next(pos for pos, char in enumerate(text) if not char.isascii())
        raise PdaFormatError(f"PDA text is not ASCII: {text[pos]!r} at character {pos + 1}")

    lines = []  # (1-based line number, content)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((lineno, line))

    if not lines:
        raise PdaFormatError("empty PDA file")

    header_no, header = lines[0]
    fields = header.split()
    if len(fields) != 2:
        raise PdaFormatError("header must be 'F K'", line=header_no)
    try:
        f, k = int(fields[0]), int(fields[1])
    except ValueError:
        raise PdaFormatError("header must hold two integers", line=header_no) from None
    if f < 1 or k < 1:
        raise PdaFormatError(f"degenerate dimensions {f}x{k}", line=header_no)

    body = lines[1:]
    if len(body) != f:
        raise PdaFormatError(f"expected {f} grid rows, found {len(body)}",
                             line=body[-1][0] if body else header_no)

    entry_of = {"*": STAR}  # token -> its entry, for every token seen so far
    grid = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != k:
            raise PdaFormatError(f"expected {k} entries, found {len(tokens)}", line=lineno)
        row = list(map(entry_of.get, tokens))
        if None in row:
            for index, token in enumerate(tokens):
                if row[index] is None:
                    entry = _symbol(token)
                    if entry is None:
                        raise PdaFormatError(f"bad entry {token!r}", line=lineno,
                                             column=_token_column(line, tokens, index))
                    row[index] = entry_of[token] = entry
        grid.append(row)
    return _intake(grid)


def render_pda(pda: Pda) -> str:
    """PDA text in the file format accepted by ``parse_pda``."""
    lines = [f"{pda.f} {pda.k}"]
    for row in pda.grid:
        lines.append(" ".join("*" if entry == STAR else str(entry) for entry in row))
    return "\n".join(lines) + "\n"


def pda_stats(pda: Pda) -> PdaStats:
    """Exact derived quantities of a validated PDA."""
    s_t = dict(pda.s_t)
    ordinary = pda.k * pda.f - pda.t
    theta = {t: Fraction(count * t, ordinary) for t, count in s_t.items()}
    return PdaStats(
        tau=pda.tau,
        s_t=s_t,
        theta=theta,
        regular_g=next(iter(s_t)) if len(s_t) == 1 else None,
        storage_load=Fraction(pda.t, pda.f),
        is_comp=pda.tau >= 1,
    )


def column_subarray(pda: Pda, nodes) -> Pda:
    """Restrict to the columns in ``nodes`` (1-based labels, kept in the given
    order). Symbols keep their parent labels so occurrence counts in the
    subarray can be compared with the full array. Raises EmptyStarRowError if
    some row loses all its stars.
    """
    nodes = list(nodes)
    if not nodes:
        raise ParameterError("nodes must be nonempty")
    if len(set(nodes)) != len(nodes):
        raise ParameterError("nodes must be distinct")
    for node in nodes:
        if not 1 <= node <= pda.k:
            raise ParameterError(f"node {node} outside 1..{pda.k}")

    kept = sum(1 << (node - 1) for node in nodes)
    for i, mask in enumerate(pda.row_star_masks):
        if not mask & kept:
            raise EmptyStarRowError(i + 1)
    if len(nodes) == 1:  # itemgetter of one index returns the entry, not a tuple
        j = nodes[0] - 1
        return Pda(tuple((row[j],) for row in pda.grid))
    return Pda(tuple(map(itemgetter(*(node - 1 for node in nodes)), pda.grid)))
