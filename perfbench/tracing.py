"""Per-layer tracing installed from outside the pdamr package.

``Tracer.install`` replaces public entry points of pdamr's modules with
wrappers that time them (spans) or count them (counters). The wrappers are
put in every pdamr module namespace that holds the original object, so calls
through ``from .engine import measure_loads`` style imports are seen too.
Nothing in the package is edited; a target that no longer exists is listed
in ``absent`` and its metrics are reported as absent, never as zero.

Spans are kept in memory. Hot entry points (``Workload.iva``,
``block_stream``) only add to per-layer totals and to their parent's child
time; every other span is also stored as (name, start, end, parent, pass id)
and written out when the benchmark ends.
"""

from __future__ import annotations

import inspect
import statistics
import sys
from time import perf_counter

# layer -> entry points (module, attribute path). Several entry points may
# share a layer, e.g. every PDA family constructor.
SPANS = {
    "cli.simulate": [("pdamr.cli", "cmd_simulate")],
    "cli.read_pda": [("pdamr.cli", "read_pda")],
    "cli.emit": [("pdamr.cli", "emit")],
    "pda.parse": [("pdamr.pda", "parse_pda")],
    "pda.validate": [("pdamr.pda", "validate_pda")],
    "pda.stats": [("pdamr.pda", "pda_stats")],
    "pda.column_subarray": [("pdamr.pda", "column_subarray")],
    "pda.render": [("pdamr.pda", "render_pda")],
    "constructions.build": [("pdamr.constructions", name) for name in
                            ("man_pda", "p1_pda", "p2_pda", "full_star_pda")],
    "loads.achieved_load": [("pdamr.loads", "achieved_load")],
    "loads.tradeoff": [("pdamr.loads", "tradeoff_curve")],
    "loads.prop1": [("pdamr.loads", "prop1_check")],
    "engine.measure_loads": [("pdamr.engine", "measure_loads")],
    "engine.plan": [("pdamr.engine", "plan_active_set")],
    "engine.placement": [("pdamr.engine", "build_placement")],
    "engine.transcript": [("pdamr.engine", "run_transcript")],
    "engine.map": [("pdamr.engine", "Workload.iva")],
    "engine.reduce": [("pdamr.engine", "Workload.reduce_output")],
    "engine.reference": [("pdamr.engine", "Workload.reference")],
    "bits.block_stream": [("pdamr.bits", "block_stream")],
}
# Layers called so often that storing each span would dominate memory.
AGGREGATE_ONLY = {"engine.map", "bits.block_stream"}
COUNTERS = {
    "bits.objects_built": ("pdamr.bits", "Bits.__init__"),
    "bits.split_calls": ("pdamr.bits", "Bits.split"),
    "bits.concat_calls": ("pdamr.bits", "Bits.concat"),
    "bits.xor_calls": ("pdamr.bits", "Bits.__xor__"),
}
CALL_COUNTS = {
    "engine.plan_calls": "engine.plan",
    "engine.placement_calls": "engine.placement",
    "engine.reduce_calls": "engine.reduce",
    "engine.iva_calls": "engine.map",
    "bits.block_stream_calls": "bits.block_stream",
}
# Child layers subtracted from a transcript to leave encode, decode and verify.
TRANSCRIPT_CHILDREN = ("engine.map", "engine.reduce", "engine.reference",
                       "engine.plan", "engine.placement")


def _wrap(module: str, path: str, make_wrapper) -> bool:
    """Replace an entry point with ``make_wrapper(original)`` on its owner and
    in every pdamr module namespace that imported the same object. Returns
    False when the entry point does not exist."""
    owner = sys.modules.get(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or name not in vars(owner):
        return False
    raw = inspect.getattr_static(owner, name)
    if isinstance(raw, staticmethod):
        setattr(owner, name, staticmethod(make_wrapper(raw.__func__)))
        return True
    wrapper = make_wrapper(raw)
    setattr(owner, name, wrapper)
    if not inspect.isclass(owner):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "pdamr":
                for attr, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, attr, wrapper)
    return True


class Tracer:
    """Spans and counters of one pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.stack: list[tuple] = []  # (layer, child seconds by layer, span id)
        self.spans: list = []        # (layer, start, end, parent span id, pass id)
        self.totals: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {"bits.fnv_bytes": 0, "engine.shuffled_bits": 0}
        self.shuffle_self = 0.0
        self.iva_keys: set = set()
        self.absent: list[str] = []
        # hooks that read call arguments (before) or results (after)
        self.before = {"bits.block_stream": self._count_fnv, "engine.map": self._note_iva}
        self.after = {"engine.transcript": self._note_transcript}

    def install(self) -> None:
        for layer, targets in SPANS.items():
            found = [_wrap(*target, lambda f, layer=layer: self._timed(layer, f))
                     for target in targets]
            if not any(found):
                self.absent.append(layer)
        for counter, target in COUNTERS.items():
            if not _wrap(*target, lambda f, counter=counter: self._counted(counter, f)):
                self.absent.append(counter)

    def _counted(self, counter: str, func):
        counts = self.counts
        counts[counter] = 0

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return func(*args, **kwargs)
        return wrapper

    def _timed(self, layer: str, func):
        stack, spans, keep = self.stack, self.spans, layer not in AGGREGATE_ONLY
        before = self.before.get(layer)
        after = self.after.get(layer)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = None
            if keep:
                sid = len(spans)
                spans.append(None)
            frame = (layer, {}, sid)
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(frame, start, end)
            if after is not None:
                after(result, end - start, frame[1])
            return result
        return wrapper

    def _close(self, frame, start: float, end: float) -> None:
        layer, _, sid = frame
        duration = end - start
        parent = None
        if self.stack:
            child = self.stack[-1][1]
            child[layer] = child.get(layer, 0.0) + duration
            parent = next((f[2] for f in reversed(self.stack) if f[2] is not None), None)
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if all(f[0] != layer for f in self.stack):
            self.totals[layer] = self.totals.get(layer, 0.0) + duration
        if sid is not None:
            self.spans[sid] = (layer, start, end, parent, self.pass_id)

    def _count_fnv(self, args) -> None:
        header, payload, nbits = args
        self.counts["bits.fnv_bytes"] += -(-nbits // 64) * (len(header) + 8 + len(payload))

    def _note_iva(self, args) -> None:
        workload, d, n = args
        self.iva_keys.add((workload.job, d, n))

    def _note_transcript(self, report, duration: float, children: dict) -> None:
        self.counts["engine.shuffled_bits"] += report.total_bits
        self.shuffle_self += duration - sum(children.get(c, 0.0) for c in TRANSCRIPT_CHILDREN)

    def layer_metrics(self) -> dict:
        """Per-layer values of this pass; None marks an absent target."""
        def unless_absent(layer, value):
            return None if layer in self.absent else value

        out = {f"{layer}_s": unless_absent(layer, self.totals.get(layer, 0.0))
               for layer in SPANS}
        out.update({name: unless_absent(layer, self.calls.get(layer, 0))
                    for name, layer in CALL_COUNTS.items()})
        out.update({name: unless_absent(name, self.counts[name]) for name in COUNTERS})
        transcript = "engine.transcript"
        out["engine.transcripts"] = unless_absent(transcript, self.calls.get(transcript, 0))
        out["engine.shuffled_bits"] = unless_absent(
            transcript, self.counts["engine.shuffled_bits"])
        out["engine.shuffle_self_s"] = unless_absent(transcript, self.shuffle_self)
        out["bits.fnv_bytes"] = unless_absent("bits.block_stream", self.counts["bits.fnv_bytes"])
        calls, distinct = out["engine.iva_calls"], len(self.iva_keys)
        out["engine.iva_distinct"] = unless_absent("engine.map", distinct)
        out["engine.iva_reuse_ratio"] = unless_absent(
            "engine.map", (calls - distinct) / calls if calls else 0.0)
        return out

    def transcript_ms(self) -> list[float]:
        return [(end - start) * 1e3 for layer, start, end, _, _ in self.spans
                if layer == "engine.transcript"]


def tail_percentile(n: int) -> int:
    """Highest whole percentile p with at least ten of ``n`` samples above
    it; 50 when there are too few samples for any, 0 when there are none."""
    if n == 0:
        return 0
    best = 50
    for p in range(50, 100):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]
