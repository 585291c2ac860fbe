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

Every value is a plain int of known width from map to reduce; ``Bits``
objects appear only in the signals and outputs a transcript returns.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
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
    """Lazy cache of files, intermediate values, and reference outputs for a job.

    Files are packed bytes, intermediate values V-bit ints, and reduce outputs
    ``Bits``. One instance can be shared across the transcripts of many active
    sets; everything it produces is a pure function of the job.
    """

    def __init__(self, job: JobSpec):
        self.job = job
        self._files: dict[int, bytes] = {}
        self._ivas: dict[tuple[int, int], int] = {}
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
        block stream keyed by LE64(d) || LE64(n) over the file bytes."""
        key = (d, n)
        if key not in self._ivas:
            self._ivas[key] = block_stream(
                le64(d) + le64(n), self.file(n), self.job.v_bits).value
        return self._ivas[key]

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
            self._reference = {
                d: self.reduce_output(
                    d, [self.iva(d, n) for n in range(1, self.job.n_files + 1)])
                for d in range(1, self.job.d_functions + 1)
            }
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
    (0-based row, 1-based node label) inside the active columns, by
    ascending column. Symbols occurring once go to ``singleton_assignment``
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
    for sym in sorted(pda.occurrences):
        places = [(i, j + 1) for i, j in pda.occurrences[sym] if active_mask >> j & 1]
        if len(places) > 1:
            places.sort(key=itemgetter(1))
        elif places:
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

    ``signals`` holds the multicast payloads keyed by (sender, symbol);
    ``outputs`` the reduced outputs per active node; ``reference_match``
    whether every decoded intermediate value equals the map output and every
    output equals the placement-free reference evaluation.
    """

    active: tuple[int, ...]
    signals: dict[tuple[int, int], Bits]
    per_node_bits: dict[int, int]
    per_symbol_bits: dict[int, int]
    total_bits: int
    outputs: dict[int, dict[int, Bits]]
    reference_match: bool


def run_transcript(pda: Pda, job: JobSpec, active,
                   workload: Workload | None = None) -> TranscriptReport:
    """Execute the scheme for one active set and verify the reduced outputs.

    Map: every node computes all intermediate values of its stored batches.
    Shuffle: singleton symbols are sent uncoded by their responsible node;
    each block under a g >= 2 symbol is split into g-1 labeled parts and each
    occurrence column XORs the parts labeled with it across the other
    occurrences. Reduce: nodes rebuild the blocks of their unstored batches
    from the signals plus locally computed parts, check every rebuilt value
    against the map output, then evaluate their assigned reduce functions.

    The report is built in plan order, with no sort: ``signals`` by (sender,
    symbol) and ``per_symbol_bits`` by symbol, both ascending, each filled
    as a symbol's signals are made: g signals of block_bits/(g-1) bits, or
    one block for a singleton.
    """
    wl = workload if workload is not None else Workload(job)
    if wl.job != job:
        raise ValueError("workload belongs to a different job")
    plan = plan_active_set(pda, active, job)
    eta, block_bits = job_geometry(pda, job, len(plan.active))
    v = job.v_bits
    iva = wl.iva
    masks = pda.row_star_masks

    def block(i: int, j: int) -> int:  # node j's values of batch i, function-major
        value = 0
        for d in plan.reduce_assignment[j]:
            for n in batch_files(i, eta):
                value = value << v | iva(d, n)
        return value

    def where(sym: int) -> str:
        return f" (active set {plan.active}, symbol {sym})"

    def require_stored(k: int, rows, rule: str, sym: int) -> None:
        missing = [i for i in rows if not masks[i] >> (k - 1) & 1]
        if missing:
            raise EngineDefectError(f"node {k} lacks batch {min(missing) + 1}, "
                                    f"which the {rule} promises" + where(sym))

    # sender -> [(symbol, signal)]; the plan lists symbols ascending, so
    # every sender's list is in symbol order and the report needs no sort
    sent: dict[int, list[tuple[int, Bits]]] = {k: [] for k in plan.active}
    per_node_bits = dict.fromkeys(plan.active, 0)
    per_symbol_bits: dict[int, int] = {}
    decoded: dict[tuple[int, int], int] = {}   # (row, node) -> block rebuilt there
    for sym, places in plan.occurrences.items():
        if len(places) == 1:
            (i, j), = places
            sender = plan.singleton_assignment[sym]
            require_stored(sender, [i], "choice of singleton sender", sym)
            decoded[(i, j)] = value = block(i, j)
            sent[sender].append((sym, Bits(value, block_bits)))
            per_node_bits[sender] += block_bits
            per_symbol_bits[sym] = block_bits
            continue
        g = len(places)
        w = block_bits // (g - 1)
        per_symbol_bits[sym] = w * g
        low = (1 << w) - 1
        # The block at place t widened by an empty w-bit slot t has its part
        # for the column of place p in slot p, so the XOR of the widened
        # blocks is the g signals end to end, in place order.
        widened = []
        stored = -1  # bit j-1 set: node j stores every occurrence's row but its own
        for t, (i, j) in enumerate(places):
            stored &= masks[i] | 1 << (j - 1)
            tail = w * (g - 1 - t)
            value = block(i, j)
            widened.append((value >> tail << tail + w) | (value & (1 << tail) - 1))
        # cross-star rule, checked per row; a failure walks the pairs for the message
        column_mask = sum(1 << (j - 1) for _, j in places)
        if stored & column_mask != column_mask:
            for i, j in places:
                require_stored(j, [i2 for i2, j2 in places if j2 != j], "cross-star rule", sym)
        joined = 0
        for value in widened:
            joined ^= value
        for t, (_, j) in enumerate(places):
            sent[j].append((sym, Bits(joined >> w * (g - 1 - t) & low, w)))
            per_node_bits[j] += w
        # node k XORs the signals with every other column's widened block
        # (a prefix and a suffix XOR, never its own block), which leaves its
        # block around an empty slot of its own
        suffix = [0] * g  # suffix[t]: XOR of widened[t + 1:]
        for t in range(g - 1, 0, -1):
            suffix[t - 1] = suffix[t] ^ widened[t]
        prefix = 0
        for t, (i, k) in enumerate(places):
            value = joined ^ prefix ^ suffix[t]
            tail = w * (g - 1 - t)
            decoded[(i, k)] = (value >> tail + w << tail) | (value & (1 << tail) - 1)
            prefix ^= widened[t]

    # node -> function -> value of file n at n-1, mapped if stored, else decoded
    known = {k: {d: [iva(d, n) if masks[(n - 1) // eta] >> (k - 1) & 1 else None
                     for n in range(1, job.n_files + 1)]
                 for d in plan.reduce_assignment[k]}
             for k in plan.active}
    values_match = True
    for (i, k), value in decoded.items():
        shift = block_bits
        for d in plan.reduce_assignment[k]:
            for n in batch_files(i, eta):
                shift -= v
                known[k][d][n - 1] = got = value >> shift & ((1 << v) - 1)
                values_match &= got == iva(d, n)
    for k in plan.active:
        for d in plan.reduce_assignment[k]:
            if None in known[k][d]:
                n = next(n for n, got in enumerate(known[k][d], 1) if got is None)
                raise EngineDefectError(
                    f"node {k} neither stores nor decodes file {n}, which function {d} "
                    f"needs" + where(pda.grid[(n - 1) // eta][k - 1]))
    outputs = {k: {d: wl.reduce_output(d, known[k][d]) for d in plan.reduce_assignment[k]}
               for k in plan.active}

    reference = wl.reference()
    match = values_match and all(outputs[k][d] == reference[d]
                                 for k in plan.active for d in plan.reduce_assignment[k])

    return TranscriptReport(
        active=plan.active,
        signals={(k, sym): signal for k, payloads in sent.items() for sym, signal in payloads},
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
    the Q range, ``samples``, ``job_geometry`` and two budgets: transcripts x
    F x K up to MAX_TRANSCRIPT_CELLS, ``hashed_bytes`` up to MAX_HASHED_BYTES.
    """
    _check_kq(pda.k, q_active)
    if samples is not None and samples < 1:
        raise ParameterError("samples must be >= 1")
    job_geometry(pda, job, q_active)
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

