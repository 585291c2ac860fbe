"""Bit-exact execution of the coded shuffle scheme on synthetic workloads.

The engine runs the full map / shuffle / reduce pipeline that a Comp-PDA
describes, over every (or a sampled set of) active node subsets, counts the
signal bits exactly, and checks the reduced outputs of every active node
against a direct reference evaluation that ignores placement entirely.

The synthetic workload is deterministic and nonlinear: files are FNV-1a
counter streams of the job seed, each intermediate value is the first V bits
of an FNV-1a block stream keyed by (function, file), and each reduce output
hashes its function's intermediate values packed end to end. Nothing in
the shuffle or reduce path exploits any structure of these functions.

Every value is a plain int of known width from map to reduce. A job's map
outputs live in per-function columns (N values each) and each function
tuple's coded blocks are packed from them, both once per job in its
``Workload``; a transcript only reads these tables and XORs plain ints. The
reduce outputs are ``Bits``, and a transcript's ``Bits`` per signal are made
only when its ``signals`` is read.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from itertools import combinations
from operator import xor
from typing import NamedTuple

from .bits import Bits, block_stream, le64
from .loads import LoadPair, _check_kq, achieved_load, comb
from .pda import ParameterError, Pda, column_subarray

# Grid cells a measure_loads request may walk, transcripts x F x K; an
# exhaustive man(12,6) Q=8 walks 5,488,560
MAX_TRANSCRIPT_CELLS = 10_000_000
# Bytes a job's files, map values and reference outputs hash (each once per
# job); man(4,2) with V = 2**23 hashes 94.4M in about 12 s
MAX_HASHED_BYTES = 10**8


class DivisibilityError(ParameterError):
    """A job parameter fails a divisibility requirement of the scheme."""

    def __init__(self, message: str, divisor: int | None = None, value: int | None = None):
        self.divisor = divisor
        self.value = value
        super().__init__(message)


class EngineDefectError(RuntimeError):
    """An internal invariant of the engine failed. This is a bug, never a
    problem with the caller's parameters, so it is not a ValueError."""


@dataclass(frozen=True)
class JobSpec:
    """Synthetic workload: N files of W bits, D output functions with V-bit
    intermediate values and U-bit outputs, all derived from ``seed``.

    A job is run against a PDA with F rows, which partitions the files into F
    batches of eta = N/F files. ``job_geometry`` holds the rules a job must
    meet on a PDA and an active-set size, since they need F and Q.
    """

    n_files: int
    d_functions: int
    w_bits: int
    v_bits: int
    u_bits: int
    seed: int = 0

    def __post_init__(self):
        for name in ("n_files", "d_functions", "w_bits", "v_bits", "u_bits"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")


class Geometry(NamedTuple):
    eta: int         # files per batch, N/F
    block_bits: int  # width of every coded block, eta*(D/Q)*V


def job_geometry(pda: Pda, job: JobSpec, q: int) -> Geometry:
    """Block geometry of ``job`` on ``pda`` with active sets of size ``q``.

    The one home of the job rules, in order: q in 1..K, then F | N, q | D
    and lcm(1..q-1) | eta*(D/q)*V (DivisibilityError), since a symbol seen
    g <= q times among the active columns splits its blocks into g-1 parts.
    """
    _check_kq(pda.k, q)
    if job.n_files % pda.f != 0:
        raise DivisibilityError(
            f"row count {pda.f} must divide the number of files {job.n_files}",
            divisor=pda.f, value=job.n_files)
    if job.d_functions % q != 0:
        raise DivisibilityError(
            f"active-set size {q} must divide the number of functions {job.d_functions}",
            divisor=q, value=job.d_functions)
    eta = job.n_files // pda.f
    per_v = eta * (job.d_functions // q)
    need = math.lcm(*range(1, q))
    if per_v * job.v_bits % need != 0:
        step = need // math.gcd(need, per_v)
        valid = -(-job.v_bits // step) * step
        raise DivisibilityError(
            f"lcm(1..{q - 1}) = {need} must divide eta*(D/Q)*V = {per_v * job.v_bits} "
            f"so coded blocks split evenly; at or above V = {job.v_bits}, the "
            f"smallest valid V is {valid} (--iva-bits {valid})",
            divisor=need, value=per_v * job.v_bits)
    return Geometry(eta, per_v * job.v_bits)


def hashed_bytes(job: JobSpec) -> int:
    """Bytes FNV-1a hashes for ``job`` once: its N files, N*D map values and
    D reference outputs. Transcripts that match reuse all of them."""
    def stream(nbits: int, header: int, payload: int) -> int:
        return -(-nbits // 64) * (header + 8 + payload)  # 8: LE64 block index
    n, d = job.n_files, job.d_functions
    return (n * stream(job.w_bits, 16, 0)
            + n * d * stream(job.v_bits, 16, -(-job.w_bits // 8))
            + d * stream(job.u_bits, 8, -(-n * job.v_bits // 8)))


class Workload:
    """Lazy cache of files, map outputs, coded blocks and reference outputs
    for a job.

    Files are packed bytes and reduce outputs ``Bits``. The map outputs are
    held as columns: one list of N V-bit ints per function, computed once
    per job, from which each function tuple's coded blocks are packed once
    per batch size. One instance can be shared across the transcripts of
    many active sets and arrays; everything it produces is a pure function of
    the job.
    """

    def __init__(self, job: JobSpec):
        self.job = job
        self._files: dict[int, bytes] = {}
        self._columns: dict[int, list[int]] = {}
        self._blocks: dict[tuple[tuple[int, ...], int], list[int]] = {}
        self._reduced: dict[tuple[int, tuple[int, ...]], Bits] = {}
        self._reference: dict[int, Bits] | None = None

    def file(self, n: int) -> bytes:
        """File n (1-based): W bits of the seeded counter stream, packed MSB-first."""
        if n not in self._files:
            self._files[n] = block_stream(
                le64(self.job.seed) + le64(n), b"", self.job.w_bits).to_bytes()
        return self._files[n]

    def iva(self, d: int, n: int) -> int:
        """Intermediate value of function d on file n: first V bits of the
        block stream keyed by LE64(d) || LE64(n) over the file bytes.
        Not cached; ``column`` calls it once per (d, n) and job."""
        return block_stream(le64(d) + le64(n), self.file(n), self.job.v_bits).value

    def column(self, d: int) -> list[int]:
        """The N intermediate values of function d, file n at index n-1."""
        if d not in self._columns:
            self._columns[d] = [self.iva(d, n) for n in range(1, self.job.n_files + 1)]
        return self._columns[d]

    def blocks(self, functions: tuple[int, ...], eta: int) -> list[int]:
        """The coded blocks of ``functions`` over batches of ``eta`` files
        (eta divides N): block i packs the values of batch i (0-based),
        function-major, MSB first, as the node reducing ``functions`` sends
        and decodes it."""
        key = (functions, eta)
        if key not in self._blocks:
            v = self.job.v_bits
            columns = [self.column(d) for d in functions]
            packed = []
            for start in range(0, self.job.n_files, eta):
                value = 0
                for column in columns:
                    for x in column[start:start + eta]:
                        value = value << v | x
                packed.append(value)
            self._blocks[key] = packed
        return self._blocks[key]

    def reduce_output(self, d: int, values: list[int]) -> Bits:
        """Reduce function d: first U bits of the block stream keyed by LE64(d)
        over the N V-bit intermediate values of d, packed MSB-first with the
        last byte zero-padded.

        Memoized on (d, values); the payload is packed only on a miss, and a
        value outside 0..2**V-1 is refused there, so it is never cached."""
        if len(values) != self.job.n_files:
            raise ValueError("reduce needs one intermediate value per file")
        key = (d, tuple(values))
        if key not in self._reduced:
            v = self.job.v_bits
            if min(key[1]) < 0 or max(key[1]) >> v:
                raise ValueError(f"intermediate values must fit in {v} bits")
            bits = "".join([format(value, f"0{v}b") for value in key[1]])
            pad = -len(bits) % 8
            payload = (int(bits, 2) << pad).to_bytes((len(bits) + pad) // 8, "big")
            self._reduced[key] = block_stream(le64(d), payload, self.job.u_bits)
        return self._reduced[key]

    def reference(self) -> dict[int, Bits]:
        """Every output computed directly from all files, ignoring placement."""
        if self._reference is None:
            self._reference = {d: self.reduce_output(d, self.column(d))
                               for d in range(1, self.job.d_functions + 1)}
        return self._reference


@dataclass(frozen=True)
class Placement:
    """Which batches (hence files) each node stores, from the stars of the
    full PDA only; the active set plays no role here."""

    eta: int
    node_files: dict[int, tuple[int, ...]]  # node -> 1-based file ids


def batch_files(row: int, eta: int) -> range:
    """1-based file ids of 0-based batch ``row``."""
    return range(row * eta + 1, (row + 1) * eta + 1)


def build_placement(pda: Pda, job: JobSpec) -> Placement:
    """Assign file batches to nodes by the star pattern of the PDA."""
    eta = job_geometry(pda, job, 1).eta  # q = 1 leaves only the F | N check
    node_files = {
        k: tuple(n for row in pda.star_rows(k - 1) for n in batch_files(row, eta))
        for k in range(1, pda.k + 1)
    }
    return Placement(eta=eta, node_files=node_files)


@dataclass(frozen=True)
class ActiveSetPlan:
    """Deterministic shuffle plan for one active set, one entry per symbol.

    ``occurrences`` maps each surviving symbol, ascending, to its places
    (0-based row, 1-based node label) in the active columns; the places keep
    the array's order, by column. Singletons go to ``singleton_assignment``
    (symbol -> responsible sender, the smallest active node with a star in
    that row). For a symbol occurring g >= 2 times the place order labels
    the parts: the block at place t splits into g-1 equal parts, most
    significant first, one for the column of each other place, in order.
    """

    active: tuple[int, ...]
    subarray: Pda
    occurrences: dict[int, tuple[tuple[int, int], ...]]
    singleton_assignment: dict[int, int]
    reduce_assignment: dict[int, tuple[int, ...]]


def plan_active_set(pda: Pda, active, job: JobSpec) -> ActiveSetPlan:
    """Build the shuffle/reduce plan for ``active`` (1-based node labels).

    Raises EmptyStarRowError if the restriction to the active columns leaves
    a row uncovered (the excluded outage case), then checks ``job_geometry``.
    """
    active = tuple(sorted(active))
    q = len(active)
    subarray = column_subarray(pda, active)
    job_geometry(pda, job, q)

    active_mask = sum(1 << (k - 1) for k in active)
    occurrences: dict[int, tuple[tuple[int, int], ...]] = {}
    singleton_assignment: dict[int, int] = {}
    for sym, occ in pda.occurrences.items():
        places = [(i, j + 1) for i, j in occ if active_mask >> j & 1]
        if len(places) == 1:
            senders = pda.row_star_masks[places[0][0]] & active_mask
            singleton_assignment[sym] = (senders & -senders).bit_length()
        if places:
            occurrences[sym] = tuple(places)

    functions = range(1, job.d_functions + 1)
    reduce_assignment = {
        k: tuple(functions[p::q]) for p, k in enumerate(active)
    }

    return ActiveSetPlan(
        active=active,
        subarray=subarray,
        occurrences=occurrences,
        singleton_assignment=singleton_assignment,
        reduce_assignment=reduce_assignment,
    )


@dataclass(frozen=True)
class TranscriptReport:
    """One full map/shuffle/reduce run for one active set.

    ``coded`` holds one coded word per symbol, ascending: (symbol, sender
    columns, joined word, part width). A singleton's word is its block with
    its one sender; a symbol seen g >= 2 times joins its g signals end to
    end, in sender order. ``signals`` cuts them into the multicast payloads
    keyed by (sender, symbol); ``outputs`` holds the reduced outputs per
    active node; ``reference_match`` whether every decoded intermediate
    value equals the map output and every output equals the placement-free
    reference evaluation.
    """

    active: tuple[int, ...]
    coded: tuple[tuple[int, tuple[int, ...], int, int], ...]
    per_node_bits: dict[int, int]
    per_symbol_bits: dict[int, int]
    total_bits: int
    outputs: dict[int, dict[int, Bits]]
    reference_match: bool

    @cached_property
    def signals(self) -> dict[tuple[int, int], Bits]:
        """Each signal as ``Bits``, keyed by (sender, symbol) ascending;
        built on first read only (cached_property writes the instance
        ``__dict__``, which a frozen dataclass allows)."""
        sent: dict[int, list[tuple[int, Bits]]] = {k: [] for k in self.active}
        for sym, senders, joined, w in self.coded:
            low = (1 << w) - 1
            for t, k in enumerate(senders, 1):
                sent[k].append((sym, Bits(joined >> w * (len(senders) - t) & low, w)))
        return {(k, sym): signal for k, payloads in sent.items() for sym, signal in payloads}


def run_transcript(pda: Pda, job: JobSpec, active,
                   workload: Workload | None = None) -> TranscriptReport:
    """Execute the scheme for one active set and verify the reduced outputs.

    Map: every node computes all intermediate values of its stored batches
    (the workload's columns and coded blocks, computed once per job).
    Shuffle: singleton symbols are sent uncoded by their responsible node;
    each block under a g >= 2 symbol is split into g-1 labeled parts and each
    occurrence column XORs the parts labeled with it across the other
    occurrences. Reduce: nodes rebuild the blocks of their unstored batches
    from the signals plus locally computed parts, check every rebuilt value
    against the map output, then evaluate their assigned reduce functions.

    The report is built in plan order, with no sort: ``coded`` and
    ``per_symbol_bits`` by symbol, ascending, each filled as a symbol's
    signals are made: g signals of block_bits/(g-1) bits, or one block for a
    singleton.
    """
    wl = workload if workload is not None else Workload(job)
    if wl.job != job:
        raise ValueError("workload belongs to a different job")
    plan = plan_active_set(pda, active, job)
    eta, block_bits = job_geometry(pda, job, len(plan.active))
    v = job.v_bits
    masks = pda.row_star_masks
    blocks = {j: wl.blocks(plan.reduce_assignment[j], eta) for j in plan.active}

    def where(sym: int) -> str:
        return f" (active set {plan.active}, symbol {sym})"

    def require_stored(k: int, rows, rule: str, sym: int) -> None:
        missing = [i for i in rows if not masks[i] >> (k - 1) & 1]
        if missing:
            raise EngineDefectError(f"node {k} lacks batch {min(missing) + 1}, "
                                    f"which the {rule} promises" + where(sym))

    coded = []
    per_node_bits = dict.fromkeys(plan.active, 0)
    per_symbol_bits: dict[int, int] = {}
    decoded: dict[tuple[int, int], int] = {}   # (row, node) -> block rebuilt there
    for sym, places in plan.occurrences.items():
        if len(places) == 1:
            (i, j), = places
            sender = plan.singleton_assignment[sym]
            require_stored(sender, [i], "choice of singleton sender", sym)
            decoded[(i, j)] = value = blocks[j][i]
            coded.append((sym, (sender,), value, block_bits))
            per_node_bits[sender] += block_bits
            per_symbol_bits[sym] = block_bits
            continue
        g = len(places)
        w = block_bits // (g - 1)
        per_symbol_bits[sym] = w * g
        # The block at place t widened by an empty w-bit slot t has its part
        # for the column of place p in slot p, so the XOR of the widened
        # blocks is the g signals end to end, in place order.
        widened = []
        stored = -1  # bit j-1 set: node j stores every occurrence's row but its own
        column_mask = 0
        tail = w * g
        for i, j in places:
            bit = 1 << (j - 1)
            stored &= masks[i] | bit
            column_mask |= bit
            per_node_bits[j] += w
            tail -= w
            value = blocks[j][i]
            widened.append((value >> tail << tail + w) | (value & (1 << tail) - 1))
        # cross-star rule, checked per row; a failure walks the pairs for the message
        if stored & column_mask != column_mask:
            for i, j in places:
                require_stored(j, [i2 for i2, j2 in places if j2 != j], "cross-star rule", sym)
        joined = reduce(xor, widened)
        coded.append((sym, tuple([j for _, j in places]), joined, w))
        # node k XORs the signals with every other column's widened block
        # (a prefix and a suffix XOR, never its own block), which leaves its
        # block around an empty slot of its own
        suffix = [0] * g  # suffix[t]: XOR of widened[t + 1:]
        for t in range(g - 1, 0, -1):
            suffix[t - 1] = suffix[t] ^ widened[t]
        prefix = 0
        tail = w * g
        for t, (i, k) in enumerate(places):
            value = joined ^ prefix ^ suffix[t]
            tail -= w
            decoded[(i, k)] = (value >> tail + w << tail) | (value & (1 << tail) - 1)
            prefix ^= widened[t]

    # node -> function -> reduce input: a copy of the column, where each
    # decoded block overwrites the files it carries once each value is
    # checked against the column. slots[k]: per value of node k's blocks,
    # function-major, its column, input, file offset in the batch and shift
    known = {k: {d: wl.column(d).copy() for d in plan.reduce_assignment[k]}
             for k in plan.active}
    slots = {k: [(wl.column(d), known[k][d], e, block_bits - v * (p * eta + e + 1))
                 for p, d in enumerate(plan.reduce_assignment[k]) for e in range(eta)]
             for k in plan.active}
    low = (1 << v) - 1
    values_match = True
    covered = 0  # distinct (row, node) pairs decoded where the node lacks the row
    for (i, k), value in decoded.items():
        covered += not masks[i] >> (k - 1) & 1
        first = i * eta
        for column, values, e, shift in slots[k]:
            n = first + e
            values[n] = got = value >> shift & low
            values_match &= got == column[n]
    # every active node must store or decode each of the F rows. A node's
    # stored rows plus the distinct rows it decodes and lacks number at most
    # F, so their sum over the nodes is F*Q only if no node leaves a row out;
    # a failure walks the rows for the first node and file left out
    active_mask = sum(1 << (k - 1) for k in plan.active)
    stars = sum((mask & active_mask).bit_count() for mask in masks)
    if covered + stars != pda.f * len(plan.active):
        k, i = next((k, i) for k in plan.active for i in range(pda.f)
                    if not masks[i] >> (k - 1) & 1 and (i, k) not in decoded)
        raise EngineDefectError(
            f"node {k} neither stores nor decodes file {i * eta + 1}, which function "
            f"{plan.reduce_assignment[k][0]} needs" + where(pda.grid[i][k - 1]))
    outputs = {k: {d: wl.reduce_output(d, values) for d, values in known[k].items()}
               for k in plan.active}

    reference = wl.reference()
    match = values_match and all(outputs[k][d] == reference[d]
                                 for k in plan.active for d in plan.reduce_assignment[k])

    return TranscriptReport(
        active=plan.active,
        coded=tuple(coded),
        per_node_bits=per_node_bits,
        per_symbol_bits=per_symbol_bits,
        total_bits=sum(per_node_bits.values()),
        outputs=outputs,
        reference_match=match,
    )


@dataclass(frozen=True)
class LoadReport:
    """Measured loads over active sets against the closed-form prediction.

    In exhaustive mode the average runs over all C(K,Q) active sets with
    exact rational arithmetic and ``match`` demands equality with the closed
    form; in sample mode the average covers the drawn sets only and ``match``
    is informational.
    """

    mode: str  # "exhaustive" or "sample"
    q_active: int
    r_measured: Fraction
    l_measured: Fraction
    per_active_set: tuple[tuple[tuple[int, ...], int], ...]
    closed_form: LoadPair
    match: bool
    all_reference_match: bool


def measure_loads(pda: Pda, job: JobSpec, q_active: int,
                  samples: int | None = None, seed: int = 0) -> LoadReport:
    """Run transcripts over active sets of size ``q_active`` and compare the
    measured communication load with the closed-form value.

    ``samples=None`` enumerates all C(K,Q) sets; otherwise that many sets are
    drawn uniformly with replacement using ``seed``. Before any work it checks
    ``job_geometry``, ``samples`` and two budgets: transcripts x F x K up
    to MAX_TRANSCRIPT_CELLS, ``hashed_bytes`` up to MAX_HASHED_BYTES.
    """
    job_geometry(pda, job, q_active)
    if samples is not None and samples < 1:
        raise ParameterError("samples must be >= 1")
    transcripts = comb(pda.k, q_active) if samples is None else samples
    if transcripts * pda.f * pda.k > MAX_TRANSCRIPT_CELLS:
        raise ParameterError(
            f"{transcripts} transcripts of a {pda.f}x{pda.k} array walk "
            f"{transcripts * pda.f * pda.k} cells, above the limit of "
            f"{MAX_TRANSCRIPT_CELLS}; draw fewer active sets with --samples")
    if hashed_bytes(job) > MAX_HASHED_BYTES:
        raise ParameterError(f"the job's files, map values and reference outputs hash "
                             f"{hashed_bytes(job)} bytes, above the limit of {MAX_HASHED_BYTES}")
    closed_form = achieved_load(pda, q_active)

    nodes = range(1, pda.k + 1)
    if samples is None:
        chosen = combinations(nodes, q_active)
        mode = "exhaustive"
    else:
        rng = random.Random(seed)
        chosen = (tuple(sorted(rng.sample(nodes, q_active))) for _ in range(samples))
        mode = "sample"

    wl = Workload(job)
    placement = build_placement(pda, job)
    per_active_set = []
    total = 0
    all_match = True
    for active in chosen:
        report = run_transcript(pda, job, active, workload=wl)
        per_active_set.append((report.active, report.total_bits))
        total += report.total_bits
        all_match = all_match and report.reference_match

    stored = sum(len(files) for files in placement.node_files.values())
    r_measured = Fraction(stored, job.n_files)
    l_measured = Fraction(total, len(per_active_set)) / (job.n_files * job.d_functions * job.v_bits)

    return LoadReport(
        mode=mode,
        q_active=q_active,
        r_measured=r_measured,
        l_measured=l_measured,
        per_active_set=tuple(per_active_set),
        closed_form=closed_form,
        match=(l_measured == closed_form.l and r_measured == closed_form.r),
        all_reference_match=all_match,
    )

