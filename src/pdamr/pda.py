"""Placement delivery arrays: representation, parsing, validation, statistics.

A placement delivery array (PDA) is an F x K array whose entries are either a
star or an ordinary symbol. Stars encode which node stores which file batch;
ordinary symbols encode the coded delivery: equal symbols mark intermediate
values that can be exchanged in one multicast transmission.

Grid entries are plain ints: ``STAR`` (0) for a star, a positive label for an
ordinary symbol. Canonical arrays label their symbols 1..S in row-major order
of first occurrence; column subarrays keep the parent's labels, so their label
sets may have gaps.

One row-major pass (``_scan``) checks a grid, which may arrive one row at a
time: it relabels the symbols, records one star bitmask per row and, only
while the rules are checked, each symbol's rows and column bitmask, and
flags entries that are not symbols. Parsed and constructed arrays share one
intake (``_intake``), which checks the PDA rules per symbol against those
masks and hands the ``Pda`` only its row masks and symbol counts;
``validate_pda`` reads the same scan. A ``Pda`` builds its places on first
read, by one pass over its columns that every array shares:
``Pda.occurrences`` lists them as (0-based row, 1-based node), the symbols
ascending and each symbol's places by ascending node.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
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
    ``stack_pda`` or ``column_subarray``; one built directly skips validation,
    and its facts take every entry to be STAR or a positive int. Each fact
    is computed once per array, when first read. The intake hands
    over its scan's ``row_star_masks`` and ``s_t``, so of all the facts only
    ``occurrences`` builds place tuples."""

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
        return sum(self.s_t.values())

    @cached_property
    def occurrences(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """symbol -> ((row, node), ...), 0-based row and 1-based node label;
        symbols ascending, places by ascending node. Built on first read by
        one pass over the columns, each row's places sharing one int for the
        row. Read-only: plans hand out these tuples."""
        places = defaultdict(list)
        rows = list(range(self.f))
        for node, column in enumerate(zip(*self.grid), start=1):
            for i, entry in zip(rows, column):
                if entry != STAR:
                    places[entry].append((i, node))
        return {sym: tuple(places[sym]) for sym in sorted(places)}

    @cached_property
    def row_star_masks(self) -> tuple[int, ...]:
        """Per row, a bitmask with bit j set when 0-based column j is a star."""
        return tuple(sum(1 << j for j, entry in enumerate(row) if entry == STAR)
                     for row in self.grid)

    @cached_property
    def tau(self) -> int:
        """Minimum number of stars over the rows."""
        return min(mask.bit_count() for mask in self.row_star_masks)

    @cached_property
    def s_t(self) -> dict[int, int]:
        """Multiplicity t -> number of symbols occurring exactly t times, t
        ascending. Read-only; ``pda_stats`` hands out copies."""
        return _multiplicities(map(len, self.occurrences.values()))

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


def _multiplicities(counts) -> dict[int, int]:
    """Multiplicity t -> number of symbols, t ascending, from each symbol's
    occurrence count."""
    return dict(sorted(Counter(counts).items()))


def _rule_violations(sym, label, rows, cols, grid, masks) -> list[Violation]:
    """Rules (a) and (b) for the symbol written ``sym`` in the input and
    ``label`` in the relabelled ``grid``, which occurs in ``rows`` (0-based,
    row-major, a row once per occurrence) and in the columns of bitmask
    ``cols``, given each row's star bitmask.

    The symbol passes iff its column mask has one bit per occurrence and
    each occurrence row has stars in all of its columns but one: that one is
    the occurrence's own, which is never a star. This is the pairwise rule
    set, and it builds no place. Only a symbol that fails has its places
    walked, row-major, and its pairs listed, so the violations, in content
    and order, are those of the pairwise definition.
    """
    if cols.bit_count() == len(rows) and all(
            (cols & ~masks[i]).bit_count() == 1 for i in rows):
        return []
    places = [(i, j) for i in dict.fromkeys(rows)
              for j, entry in enumerate(grid[i]) if entry == label]
    violations = []
    for (i1, j1), (i2, j2) in combinations(places, 2):
        if i1 == i2 or j1 == j2:
            violations.append(Violation(
                "a", (i1 + 1, i2 + 1), (j1 + 1, j2 + 1),
                f"symbol {sym} repeats in the same "
                f"{'row' if i1 == i2 else 'column'} at "
                f"({i1 + 1},{j1 + 1}) and ({i2 + 1},{j2 + 1})"))
        elif not masks[i1] >> j2 & 1 or not masks[i2] >> j1 & 1:
            violations.append(Violation(
                "b", (i1 + 1, i2 + 1), (j1 + 1, j2 + 1),
                f"symbol {sym} at ({i1 + 1},{j1 + 1}) and ({i2 + 1},{j2 + 1}) "
                f"needs stars at ({i1 + 1},{j2 + 1}) and ({i2 + 1},{j1 + 1})"))
    return violations


def _scan(rows):
    """The one pass over a grid's cells, row-major; ``rows`` may be a
    stream. Returns ``(label_of, grid, masks, rows_of, cols_of, bad)``:

    label_of  symbol entry -> label 1..S, in first-occurrence order
    grid      the rows relabelled, as tuples; star cells kept as they are,
              a cell whose entry is not a symbol None
    masks     per row, a bitmask with bit j set when column j is a star
    rows_of   label -> list of the 0-based rows of its occurrences,
              row-major, a row once per occurrence; rows_of[0] is None
    cols_of   label -> bitmask of the columns it occurs in
    bad       a "symbol" Violation per entry that is neither STAR nor a
              positive int, row-major

    An entry's type is tested before it is hashed, so 1.0 never merges with
    1 and an unhashable entry is reported, not raised.
    """
    label_of: dict = {}
    rows_of: list = [None]
    cols_of: list = [0]
    grid, masks, bad = [], [], []
    for i, row in enumerate(rows):
        mask = 0
        labels = list(row)  # star cells stay as they are
        for j, entry in enumerate(row):
            if entry == STAR:
                mask |= 1 << j
            elif not isinstance(entry, int) or entry < 0:
                labels[j] = None
                bad.append(Violation(
                    "symbol", (i + 1,), (j + 1,),
                    f"entry at ({i + 1},{j + 1}) is not a star or a positive integer"))
            else:
                label = label_of.get(entry)
                if label is None:
                    label = label_of[entry] = len(rows_of)
                    rows_of.append([i])
                    cols_of.append(1 << j)
                else:
                    rows_of[label].append(i)
                    cols_of[label] |= 1 << j
                labels[j] = label
        grid.append(tuple(labels))
        masks.append(mask)
    return label_of, grid, masks, rows_of, cols_of, bad


def validate_pda(grid) -> ValidationReport:
    """Check a raw grid against the PDA rules and report every violation.

    ``grid`` is a nonempty rectangular sequence of rows of ints (STAR or a
    symbol label). The label set must be exactly 1..S, numbered in row-major
    first-occurrence order; ``stack_pda`` renumbers and checks a grid
    labelled otherwise.
    """
    rows = [tuple(row) for row in grid]
    if not rows or not rows[0]:
        raise ValueError("grid must be nonempty")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("grid must be rectangular")

    label_of, labelled, masks, rows_of, cols_of, violations = _scan(rows)
    symbols = sorted(label_of)
    for sym in symbols:
        label = label_of[sym]
        violations += _rule_violations(sym, label, rows_of[label], cols_of[label],
                                       labelled, masks)

    if symbols:
        for before, after in zip([0] + symbols, symbols):  # one violation per gap
            if after - before > 1:
                gap = (f"symbol {before + 1} never occurs" if after - before == 2 else
                       f"symbols {before + 1}..{after - 1} never occur")
                violations.append(Violation(
                    "coverage", (), (), f"{gap} (labels must cover 1..{symbols[-1]})"))
        for expected, sym in enumerate(label_of, start=1):  # first-occurrence order
            if sym != expected:
                i = rows_of[expected][0]
                j = labelled[i].index(expected)
                violations.append(Violation(
                    "numbering", (i + 1,), (j + 1,),
                    f"symbol {sym} first occurs at ({i + 1},{j + 1}) out of "
                    f"first-occurrence order (expected {expected})"))
                break

    params = (width, len(rows), sum(map(int.bit_count, masks)), len(label_of))
    return ValidationReport(tuple(violations), None if violations else params)


def _intake(rows) -> Pda:
    """The validated canonical ``Pda`` of a nonempty rectangular grid whose
    entries are STAR or positive ints; ``rows`` may be a stream.

    ``_scan`` renumbers the symbols 1..S by first occurrence and records each
    row's star mask and, for the check, each symbol's rows and column mask;
    ``_rule_violations`` checks each symbol, in O(cells + sum of
    multiplicities) unless a rule breaks. Raises PdaValidationError listing
    every violation: any "symbol" ones of the scan, then the rules in label
    order, each naming its symbol as the grid wrote it. The ``Pda`` gets only
    the row masks and the symbol counts; it builds its places when read.
    """
    label_of, grid, masks, rows_of, cols_of, violations = _scan(rows)
    for entry, label in label_of.items():  # labels 1..S in order
        violations += _rule_violations(entry, label, rows_of[label], cols_of[label],
                                       grid, masks)
    if violations:
        raise PdaValidationError(ValidationReport(tuple(violations), None))
    pda = Pda(tuple(grid))
    # seed the cached properties with what the scan found (Pda is frozen)
    pda.__dict__.update(row_star_masks=tuple(masks),
                        s_t=_multiplicities(map(len, rows_of[1:])))
    return pda


def _number(token: str) -> int | None:
    """The int an ASCII token spells in decimal digits, or None for any other
    token (a sign, an underscore, or more digits than int() converts)."""
    try:
        return int(token) if token.isdigit() else None
    except ValueError:
        return None


def _token_column(line: str, tokens: list[str], index: int) -> int:
    """1-based column of ``tokens[index]`` in ``line``, where tokens = line.split()."""
    pos = 0
    for token in tokens[:index]:
        pos = line.index(token, pos) + len(token)
    return line.index(tokens[index], pos) + 1


def _content(lines):
    """(1-based line number, line) of each line that is neither blank nor a
    ``#`` comment."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, line


def _tokenized_rows(body, k: int):
    """The entries of each body line, one row at a time: STAR or a positive
    int per token. Raises PdaFormatError at the first row that is not K
    such tokens."""
    entry_of = {"*": STAR}  # token -> its entry, for every token seen so far
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != k:
            raise PdaFormatError(f"expected {k} entries, found {len(tokens)}", line=lineno)
        row = list(map(entry_of.get, tokens))
        if None in row:
            for index, token in enumerate(tokens):
                if row[index] is None:
                    entry = _number(token)
                    if not entry:  # not a positive integer
                        raise PdaFormatError(f"bad entry {token!r}", line=lineno,
                                             column=_token_column(line, tokens, index))
                    row[index] = entry_of[token] = entry
        yield row


def parse_pda(text) -> Pda:
    """Parse PDA text: a header line ``F K`` followed by F rows of K
    whitespace-separated tokens, each ``*`` or a positive integer; every
    integer, F and K included, is written in decimal digits alone. Lines
    starting with ``#`` and blank lines are ignored. The text must be ASCII,
    as ``bytes`` or ``str``.

    The header is checked and the rows counted first; then the rows are
    tokenized one at a time into the intake, which renumbers the symbols
    canonically and validates the grid. No raw grid is kept, and a
    PdaFormatError anywhere in the text wins over any PdaValidationError.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise PdaFormatError(f"PDA text is not ASCII: {exc}") from None
    elif not text.isascii():
        pos = next(pos for pos, char in enumerate(text) if not char.isascii())
        raise PdaFormatError(f"PDA text is not ASCII: {text[pos]!r} at character {pos + 1}")

    lines = text.splitlines()
    body = _content(lines)
    header_no, header = next(body, (None, None))
    if header is None:
        raise PdaFormatError("empty PDA file")
    fields = header.split()
    if len(fields) != 2:
        raise PdaFormatError("header must be 'F K'", line=header_no)
    f, k = map(_number, fields)  # decimal digits, as a body token
    if f is None or k is None:
        raise PdaFormatError("header must hold two integers", line=header_no)
    if f < 1 or k < 1:
        raise PdaFormatError(f"degenerate dimensions {f}x{k}", line=header_no)

    found, last_no = 0, header_no
    for last_no, _ in body:
        found += 1
    if found != f:
        raise PdaFormatError(f"expected {f} grid rows, found {found}", line=last_no)

    body = _content(lines)
    next(body)  # the header
    return _intake(_tokenized_rows(body, k))


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


def _column_mask(pda: Pda, nodes) -> int:
    """Bitmask of ``nodes`` (1-based labels; bit node-1). Raises
    ParameterError unless they are nonempty, distinct and in 1..K, and
    EmptyStarRowError if some row keeps no star among them."""
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
    return kept


def column_subarray(pda: Pda, nodes) -> Pda:
    """Restrict to the columns in ``nodes`` (1-based labels, kept in the given
    order). Symbols keep their parent labels so occurrence counts in the
    subarray can be compared with the full array. Raises EmptyStarRowError if
    some row loses all its stars.
    """
    nodes = list(nodes)
    _column_mask(pda, nodes)
    if len(nodes) == 1:  # itemgetter of one index returns the entry, not a tuple
        j = nodes[0] - 1
        return Pda(tuple((row[j],) for row in pda.grid))
    return Pda(tuple(map(itemgetter(*(node - 1 for node in nodes)), pda.grid)))
