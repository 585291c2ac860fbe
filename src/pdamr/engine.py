"""Bit-exact execution of the coded shuffle scheme on synthetic workloads.

The engine runs the full map / shuffle / reduce pipeline that a Comp-PDA
describes, over every (or a sampled set of) active node subsets, counts the
signal bits exactly, and checks the reduced outputs of every active node
against a direct reference evaluation that ignores placement entirely.

The synthetic workload is deterministic and nonlinear: every file, map
value and reduce output is a ``bits.block_stream`` (SHAKE-256). Files are
streams of the job seed, each intermediate value is the first V bits of a
stream keyed by (function, file) over the file bytes, and each reduce output
hashes its function's intermediate values packed end to end. One tag byte
in front of each header names the kind, so no two kinds share a hash input.
Nothing in the shuffle or reduce path exploits any structure of these
functions.

Every value is a plain int of known width from map to reduce. A job's map
outputs live in per-function columns (N values each) and each function
tuple's coded blocks are packed from them, both once per job in its
``Workload``; a transcript only reads these tables, XORs plain ints, writes
each decoded block into its nodes' reduce inputs as one slice per function,
and checks each input whole against its column. The reduce outputs are
``Bits``; a transcript's bit tallies and ``Bits`` per signal are made only
when read.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from itertools import combinations
from operator import xor
from typing import NamedTuple

from .bits import Bits, block_stream, le64, msb_bytes, pack, unpack
from .loads import LoadPair, _check_kq, achieved_load, comb
from .pda import (ParameterError, Pda, _check_int, _check_type, _column_mask,
                  column_subarray)

# Grid cells a measure_loads request may walk, transcripts x F x K; an
# exhaustive man(12,6) Q=8 walks 5,488,560
MAX_TRANSCRIPT_CELLS = 10_000_000
# Bytes a job's files, map values and reference outputs hash (each once per
# job); man(4,2) with V = 2**23 hashes 37.7M in about 0.6 s
MAX_HASHED_BYTES = 5 * 10**7
MAX_DECODED_VALUES = 10**7  # transcripts x N x D values copied and decoded, ~1.1 us each

# The tag byte in front of each stream kind's header
FILE_TAG, MAP_TAG, REDUCE_TAG = b"\x00", b"\x01", b"\x02"


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
            _check_int(name, getattr(self, name), 1)
        _check_int("seed", self.seed)


class Geometry(NamedTuple):
    eta: int         # files per batch, N/F
    block_bits: int  # width of every coded block, eta*(D/Q)*V


def job_geometry(pda: Pda, job: JobSpec, q: int) -> Geometry:
    """Block geometry of ``job`` on ``pda`` with active sets of size ``q``.

    The one home of the job rules, in order: q in 1..K, then F | N, q | D
    and lcm(1..m-1) | eta*(D/q)*V (DivisibilityError), with m = min(q,
    g_max) and g_max the array's largest symbol multiplicity (1 if it has no
    symbol): a symbol seen g times survives l <= min(g, q) times among the
    active columns and splits its blocks into l-1 parts.
    """
    _check_type("pda", pda, Pda)
    _check_type("job", job, JobSpec)
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
    g_max = max(pda.s_t, default=1)
    m = min(q, g_max)
    need = math.lcm(*range(1, m))
    if per_v * job.v_bits % need != 0:
        step = need // math.gcd(need, per_v)
        valid = -(-job.v_bits // step) * step
        # g_max is named only where it, not Q, ends the lcm range
        bound = (f" (no symbol occurs more than g_max = {g_max} < Q = {q} times)"
                 if g_max < q else "")
        raise DivisibilityError(
            f"lcm(1..{m - 1}) = {need} must divide eta*(D/Q)*V = {per_v * job.v_bits} "
            f"so coded blocks split evenly{bound}; at or above V = {job.v_bits}, the "
            f"smallest valid V is {valid} (--iva-bits {valid})",
            divisor=need, value=per_v * job.v_bits)
    return Geometry(eta, per_v * job.v_bits)


def hashed_bytes(job: JobSpec) -> int:
    """Bytes SHAKE-256 absorbs and squeezes for ``job`` once: its N files,
    N*D map values and D reference outputs. A stream absorbs LE64(len(header))
    || header || payload and squeezes ceil(nbits/8) bytes; a header is one
    tag byte and one or two LE64 keys. Transcripts that match reuse all of
    them."""
    def stream(nbits: int, header: int, payload: int) -> int:
        return 8 + header + payload + -(-nbits // 8)
    n, d = job.n_files, job.d_functions
    return (n * stream(job.w_bits, 17, 0)
            + n * d * stream(job.v_bits, 17, -(-job.w_bits // 8))
            + d * stream(job.u_bits, 9, -(-n * job.v_bits // 8)))


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
        """File n (1-based): the first W bits of the block stream keyed by
        FILE_TAG || LE64(seed) || LE64(n) over no payload, packed MSB-first."""
        if n not in self._files:
            self._files[n] = block_stream(
                FILE_TAG + le64(self.job.seed) + le64(n), b"", self.job.w_bits).to_bytes()
        return self._files[n]

    def iva(self, d: int, n: int) -> int:
        """Intermediate value of function d on file n: first V bits of the
        block stream keyed by MAP_TAG || LE64(d) || LE64(n) over the file bytes.
        Not cached; ``column`` calls it once per (d, n) and job."""
        return block_stream(MAP_TAG + le64(d) + le64(n), self.file(n), self.job.v_bits).value

    def column(self, d: int) -> list[int]:
        """The N intermediate values of function d, file n at index n-1."""
        if d not in self._columns:
            self._columns[d] = [self.iva(d, n) for n in range(1, self.job.n_files + 1)]
        return self._columns[d]

    def blocks(self, functions: tuple[int, ...], eta: int) -> list[int]:
        """The coded blocks of ``functions`` over batches of ``eta`` files
        (eta divides N): block i is ``bits.pack`` of the values of batch i
        (0-based), function-major, as the node reducing ``functions`` sends
        and decodes it."""
        key = (functions, eta)
        if key not in self._blocks:
            columns = [self.column(d) for d in functions]
            self._blocks[key] = [
                pack([x for column in columns for x in column[start:start + eta]], self.job.v_bits)
                for start in range(0, self.job.n_files, eta)]
        return self._blocks[key]

    def reduce_output(self, d: int, values: list[int]) -> Bits:
        """Reduce function d: first U bits of the block stream keyed by
        REDUCE_TAG || LE64(d) over the N V-bit intermediate values of d, as
        the ``bits.msb_bytes`` of their ``bits.pack``.

        Memoized on (d, values); the payload is packed only on a miss, and a
        value outside 0..2**V-1 is refused there, so it is never cached."""
        if len(values) != self.job.n_files:
            raise ValueError("reduce needs one intermediate value per file")
        key = (d, tuple(values))
        if key not in self._reduced:
            v = self.job.v_bits
            if min(key[1]) < 0 or max(key[1]) >> v:
                raise ValueError(f"intermediate values must fit in {v} bits")
            payload = msb_bytes(pack(key[1], v), len(key[1]) * v)
            self._reduced[key] = block_stream(REDUCE_TAG + le64(d), payload, self.job.u_bits)
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


def build_placement(pda: Pda, job: JobSpec) -> Placement:
    """Assign file batches to nodes by the star pattern of the PDA: 0-based
    row i is files i*eta+1..(i+1)*eta. Every node's tuple holds the same int
    object for a file id."""
    eta = job_geometry(pda, job, 1).eta  # q = 1 leaves only the F | N check
    files = list(range(1, job.n_files + 1))
    node_files = {
        k: tuple(n for row in pda.star_rows(k - 1) for n in files[row * eta:(row + 1) * eta])
        for k in range(1, pda.k + 1)
    }
    return Placement(eta=eta, node_files=node_files)


@dataclass(frozen=True)
class ActiveSetPlan:
    """Deterministic shuffle plan for one active set of ``pda``, one entry
    per symbol.

    ``occurrences`` maps each surviving symbol, ascending, to its places
    (0-based row, 1-based node label) in the active columns: the array's own
    place tuples, in the array's order, by node, and the array's own tuple
    of places when all of them survive. It stores no sender: a symbol's
    senders are read from the array where it is sent. For a symbol occurring
    g >= 2 times the place order labels the parts: the block at place t
    splits into g-1 equal parts, most significant first, one for the column
    of each other place, in order.
    """

    pda: Pda
    active: tuple[int, ...]
    occurrences: dict[int, tuple[tuple[int, int], ...]]
    reduce_assignment: dict[int, tuple[int, ...]]

    @cached_property
    def subarray(self) -> Pda:
        """The array restricted to the active columns, copied on first read;
        no transcript reads it."""
        return column_subarray(self.pda, self.active)


def plan_active_set(pda: Pda, active, job: JobSpec) -> ActiveSetPlan:
    """Build the shuffle/reduce plan for ``active`` (1-based node labels).

    Raises EmptyStarRowError if some row keeps no star among the active
    columns (the excluded outage case), checked on the row masks, then
    checks ``job_geometry``. The plan is a filter of ``pda.occurrences``
    that builds no place tuple, copies no grid and stores no sender.
    """
    _check_type("active", active, Iterable)
    active = tuple(active)
    active_mask = _column_mask(pda, active)  # before sorting, which mixed types break
    active = tuple(sorted(active))
    q = len(active)
    job_geometry(pda, job, q)

    node_mask = active_mask << 1  # bit k set for active node k
    occurrences: dict[int, tuple[tuple[int, int], ...]] = {}
    for sym, places in pda.occurrences.items():
        kept = [place for place in places if node_mask >> place[1] & 1]
        if kept:
            occurrences[sym] = places if len(kept) == len(places) else tuple(kept)

    functions = range(1, job.d_functions + 1)
    reduce_assignment = {
        k: tuple(functions[p::q]) for p, k in enumerate(active)
    }

    return ActiveSetPlan(
        pda=pda,
        active=active,
        occurrences=occurrences,
        reduce_assignment=reduce_assignment,
    )


@dataclass(frozen=True)
class TranscriptReport:
    """One full map/shuffle/reduce run for one active set.

    ``coded`` holds one coded word per symbol, ascending: (symbol, sender
    columns, joined word, part width). A singleton's word is its block with
    its one sender; a symbol seen g >= 2 times joins its g signals end to
    end, in sender order. It is the only record of what was sent: the bit
    tallies ``per_node_bits`` and ``per_symbol_bits`` (keys ascending) and
    ``total_bits`` are read from it on first read, and ``signals`` cuts it
    into the payloads keyed by (sender, symbol). ``outputs`` holds the
    reduced outputs per active node; ``reference_match`` whether every
    reduce input equals its map-output column (so every decoded value is
    checked) and every output equals the placement-free reference evaluation.
    """

    active: tuple[int, ...]
    coded: tuple[tuple[int, tuple[int, ...], int, int], ...]
    outputs: dict[int, dict[int, Bits]]
    reference_match: bool

    @cached_property
    def per_node_bits(self) -> dict[int, int]:
        bits = dict.fromkeys(self.active, 0)
        for _, senders, _, w in self.coded:
            for k in senders:
                bits[k] += w
        return bits

    @cached_property
    def per_symbol_bits(self) -> dict[int, int]:
        return {sym: w * len(senders) for sym, senders, _, w in self.coded}

    @cached_property
    def total_bits(self) -> int:
        return sum(w * len(senders) for _, senders, _, w in self.coded)

    @cached_property
    def signals(self) -> dict[tuple[int, int], Bits]:
        """Each signal as ``Bits``, keyed by (sender, symbol) ascending;
        built on first read only (cached_property writes the instance
        ``__dict__``, which a frozen dataclass allows)."""
        sent: dict[int, list[tuple[int, Bits]]] = {k: [] for k in self.active}
        for sym, senders, joined, w in self.coded:
            for k, part in zip(senders, unpack(joined, len(senders), w)):
                sent[k].append((sym, Bits(part, w)))
        return {(k, sym): signal for k, payloads in sent.items() for sym, signal in payloads}


def run_transcript(pda: Pda, job: JobSpec, active,
                   workload: Workload | None = None) -> TranscriptReport:
    """Execute the scheme for one active set and verify the reduced outputs.

    Map: every node computes all intermediate values of its stored batches
    (the workload's columns and coded blocks, computed once per job).
    Shuffle: a singleton symbol is sent uncoded by the lowest active node
    with a star in its row, read from the array's row mask;
    each block under a g >= 2 symbol is split into g-1 labeled parts and each
    occurrence column XORs the parts labeled with it across the other
    occurrences. Reduce: nodes rebuild the blocks of their unstored batches
    from the signals plus locally computed parts, ``bits.unpack`` each block
    once and write it into their inputs as one eta-value slice per function,
    then reduce; each input is compared whole with its column.

    The symbol loop fills only ``coded``, by symbol ascending with no sort:
    one block for a singleton, or g signals of block_bits/(g-1) bits. The
    report reads its bit tallies from it.
    """
    wl = workload if workload is not None else Workload(job)
    _check_type("workload", wl, Workload)
    if wl.job != job:
        raise ParameterError("workload belongs to a different job")
    plan = plan_active_set(pda, active, job)
    eta, block_bits = job_geometry(pda, job, len(plan.active))
    v = job.v_bits
    masks = pda.row_star_masks
    active_mask = sum(1 << (k - 1) for k in plan.active)
    blocks = {j: wl.blocks(plan.reduce_assignment[j], eta) for j in plan.active}

    def where(sym: int) -> str:
        return f" (active set {plan.active}, symbol {sym})"

    def require_stored(k: int, rows, rule: str, sym: int) -> None:
        missing = [i for i in rows if not masks[i] >> (k - 1) & 1]
        if missing:
            raise EngineDefectError(f"node {k} lacks batch {min(missing) + 1}, "
                                    f"which the {rule} promises" + where(sym))

    coded = []
    decoded: dict[tuple[int, int], int] = {}   # (row, node) -> block rebuilt there
    for sym, places in plan.occurrences.items():
        if len(places) == 1:
            (i, j), = places
            senders = masks[i] & active_mask  # the lowest active star sends it
            sender = (senders & -senders).bit_length()
            decoded[(i, j)] = value = blocks[j][i]
            coded.append((sym, (sender,), value, block_bits))
            continue
        g = len(places)
        w = block_bits // (g - 1)
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

    # node -> (offset, function, input) per function: function p's values
    # sit at offset p*eta of each block (Workload.blocks' order), and a
    # decoded block overwrites the files it carries in the copied column
    inputs = {k: [(p * eta, d, wl.column(d).copy())
                  for p, d in enumerate(plan.reduce_assignment[k])] for k in plan.active}
    covered = 0  # distinct (row, node) pairs decoded where the node lacks the row
    for (i, k), value in decoded.items():
        covered += not masks[i] >> (k - 1) & 1
        first = i * eta
        unpacked = unpack(value, block_bits // v, v)
        for start, _, values in inputs[k]:
            values[first:first + eta] = unpacked[start:start + eta]
    # every active node must store or decode each of the F rows. A node's
    # stored rows plus the distinct rows it decodes and lacks number at most
    # F, so their sum over the nodes is F*Q only if no node leaves a row out;
    # a failure walks the rows for the first node and file left out
    stars = sum((mask & active_mask).bit_count() for mask in masks)
    if covered + stars != pda.f * len(plan.active):
        k, i = next((k, i) for k in plan.active for i in range(pda.f)
                    if not masks[i] >> (k - 1) & 1 and (i, k) not in decoded)
        raise EngineDefectError(
            f"node {k} neither stores nor decodes file {i * eta + 1}, which function "
            f"{plan.reduce_assignment[k][0]} needs" + where(pda.grid[i][k - 1]))
    outputs = {k: {d: wl.reduce_output(d, values) for _, d, values in inputs[k]}
               for k in plan.active}

    reference = wl.reference()
    return TranscriptReport(
        active=plan.active,
        coded=tuple(coded),
        outputs=outputs,
        reference_match=all(values == wl.column(d) and outputs[k][d] == reference[d]
                            for k in plan.active for _, d, values in inputs[k]),
    )


def active_sets(k_nodes: int, q_active: int, samples: int | None = None, seed: int = 0):
    """The active sets of ``q_active`` of the nodes 1..``k_nodes``, drawn one
    at a time, never listed: all C(K,Q) in ``combinations`` order when
    ``samples`` is None, else ``samples`` sorted draws of ``rng.sample`` from
    ``random.Random(seed)``, uniform with replacement. Checks nothing."""
    nodes = range(1, k_nodes + 1)
    if samples is None:
        return combinations(nodes, q_active)
    rng = random.Random(seed)
    return (tuple(sorted(rng.sample(nodes, q_active))) for _ in range(samples))


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
    """Fold ``run_transcript`` over ``active_sets(K, q_active, samples, seed)``
    and compare the measured loads with the closed form; the storage load is
    read from the row masks, T/F, so no ``Placement`` is built.

    Before any work it checks ``job_geometry``, ``samples``, ``seed`` and
    three budgets: transcripts x F x K up to MAX_TRANSCRIPT_CELLS,
    transcripts x N x D up to MAX_DECODED_VALUES, ``hashed_bytes`` up to
    MAX_HASHED_BYTES.
    """
    job_geometry(pda, job, q_active)
    if samples is not None:
        _check_int("samples", samples, 1)
    _check_int("seed", seed)
    transcripts = comb(pda.k, q_active) if samples is None else samples
    if transcripts * pda.f * pda.k > MAX_TRANSCRIPT_CELLS:
        raise ParameterError(
            f"{transcripts} transcripts of a {pda.f}x{pda.k} array walk "
            f"{transcripts * pda.f * pda.k} cells, above the limit of "
            f"{MAX_TRANSCRIPT_CELLS}; draw fewer active sets with --samples")
    if transcripts * job.n_files * job.d_functions > MAX_DECODED_VALUES:
        raise ParameterError(
            f"{transcripts} transcripts of {job.n_files} files x {job.d_functions} functions "
            f"decode {transcripts * job.n_files * job.d_functions} values, above the limit "
            f"of {MAX_DECODED_VALUES}; draw fewer active sets with --samples")
    if hashed_bytes(job) > MAX_HASHED_BYTES:
        raise ParameterError(f"the job's files, map values and reference outputs hash "
                             f"{hashed_bytes(job)} bytes, above the limit of {MAX_HASHED_BYTES}")
    closed_form = achieved_load(pda, q_active)

    wl = Workload(job)
    per_active_set = []
    all_match = True
    for active in active_sets(pda.k, q_active, samples, seed):
        report = run_transcript(pda, job, active, workload=wl)
        per_active_set.append((report.active, report.total_bits))
        all_match = all_match and report.reference_match

    r_measured = Fraction(pda.t, pda.f)  # stored files eta*T over N = eta*F
    total = sum(bits for _, bits in per_active_set)
    l_measured = Fraction(total, len(per_active_set)) / (job.n_files * job.d_functions * job.v_bits)

    return LoadReport(
        mode="exhaustive" if samples is None else "sample",
        q_active=q_active,
        r_measured=r_measured,
        l_measured=l_measured,
        per_active_set=tuple(per_active_set),
        closed_form=closed_form,
        match=(l_measured == closed_form.l and r_measured == closed_form.r),
        all_reference_match=all_match,
    )

