"""Correctness-gated benchmark of pdamr: one exhaustive verification per pass.

    python3 perfbench/run.py --workload {shuffle,payload,structural}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; pdamr is imported from its ``src``
directory. Each workload is a closed loop with one client: passes run one
after another, each in a fresh interpreter (perfbench/worker.py), until the
next pass would end after ``--seconds``. A pass counts only when it passes
its correctness gate (perfbench/workloads.py); a failed pass counts in
``failed`` and its time stays out of every timing.

With ``--trace 0`` the last line reports the end-to-end metrics. With
``--trace 1`` untraced and traced passes alternate: the traced ones wrap
pdamr's public entry points (perfbench/tracing.py) and give the per-layer
metrics, and ``trace.overhead_s`` is traced minus untraced ``verify_s``.
Spans and per-pass records go to ``.perfbench/trace-<workload>-<seed>.json``.
The workload rationale, recorded digests and machine record are in
perfbench/record.json; ``python3 perfbench/selftest.py`` checks that the gate
fails tampered results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LOOP_DEADLINE_S = 150  # a run must end within 180 s even if a pass hangs
MIN_PASSES = {False: 3, True: 4}  # per run, untraced / traced mode
EXACT_COUNTS = ("engine.transcripts", "engine.shuffled_bits", "engine.placement_calls",
                "bits.fnv_bytes", "bits.objects_built")

sys.path.insert(0, str(HERE))
from tracing import tail_percentile, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": f"{platform.python_implementation()} {platform.python_version()}",
            "nproc": os.cpu_count(), "cpu_model": model}


def run_pass(workload: str, seed: int, pass_id: int, traced: bool, workdir: Path,
             timeout: float, tamper: str | None = None) -> dict:
    """Run one pass in a fresh interpreter and return its record; ``ok`` is
    False unless the worker exited cleanly and its gate reported nothing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--pass-id", str(pass_id), "--tmp", tmp]
        cmd += ["--trace"] if traced else []
        cmd += ["--tamper", tamper] if tamper else []
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"ok": False, "failures": ["pass timed out"], "traced": traced,
                    "wall_s": timeout}
        ended = time.clock_gettime(time.CLOCK_MONOTONIC)
    lines = out.strip().splitlines()
    record: dict = {"failures": [f"worker exited with code {proc.returncode}"]}
    if proc.returncode == 0 and lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            record = {"failures": ["worker printed no record"]}
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    if ready:
        record["setup_s"] = ready[0] - spawned
    record.update(ok=not record["failures"], traced=traced, wall_s=ended - spawned)
    return record


def run_loop(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Closed loop of passes, stopped before the next one would end after
    ``seconds``; returns the pass records."""
    records: list[dict] = []
    start = time.monotonic()
    while True:
        traced = trace and len(records) % 2 == 1
        same = [r["wall_s"] for r in records if r["traced"] == traced]
        elapsed = time.monotonic() - start
        if elapsed >= LOOP_DEADLINE_S or (len(records) >= MIN_PASSES[trace] and same
                                          and elapsed + max(same) > seconds):
            break
        records.append(run_pass(workload, seed, len(records), traced, workdir,
                                LOOP_DEADLINE_S - elapsed))
    return records


def end_to_end(records: list[dict]) -> dict:
    """Medians over the passes that passed the gate; set-up time over all."""
    good = [r for r in records if r["ok"]]
    setups = [r["setup_s"] for r in records if "setup_s" in r]
    return {
        "verify_s": statistics.median(r["verify_s"] for r in good) if good else None,
        # whole invocation: interpreter start, import, set-up, pass and exit
        "results_per_s": statistics.median(r["items"] / r["wall_s"] for r in good)
        if good else None,
        "setup_s": statistics.median(setups) if setups else None,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good) if good else None,
        "ok_share": len(good) / len(records),
    }


def per_layer(records: list[dict]) -> tuple[dict, list[str]]:
    """Median over traced passes of each layer value, plus transcript
    percentiles and tracing overhead; also returns gate failures found
    only by comparing passes (exact counts that differ)."""
    traced = [r for r in records if r["ok"] and r["traced"]]
    plain = [r for r in records if r["ok"] and not r["traced"]]
    problems = []
    values: dict = {}
    if traced:
        for name in traced[0]["layers"]:
            column = [r["layers"][name] for r in traced]
            if None in column:
                values[name] = None
                continue
            exact = all(isinstance(v, int) for v in column)
            values[name] = (statistics.median_low if exact else statistics.median)(column)
            if name in EXACT_COUNTS and len(set(column)) > 1:
                problems.append(f"{name} differs between traced passes: {column}")
        samples = sorted(ms for r in traced for ms in r["transcript_ms"])
        tail = tail_percentile(len(samples))
        values["engine.transcript_p50_ms"] = percentile(samples, 50) if samples else 0.0
        values["engine.transcript_tail_ms"] = percentile(samples, tail) if samples else 0.0
        values["engine.transcript_tail_pct"] = tail
        values["engine.transcript_samples"] = len(samples)
    if traced and plain:
        values["trace.overhead_s"] = (statistics.median(r["verify_s"] for r in traced)
                                      - statistics.median(r["verify_s"] for r in plain))
    return values, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pdamr" / "__init__.py").is_file():
        print(f"error: no pdamr package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)

    trace = bool(args.trace)
    records = run_loop(args.workload, args.seed, args.seconds, trace, workdir)
    failed = [r for r in records if not r["ok"]]
    for r in failed:
        print(f"failed pass: {r['failures']}", file=sys.stderr)

    print("machine:", json.dumps(machine()))
    times = [r["verify_s"] for r in records if r["ok"] and not r["traced"]]
    if times:
        tail = tail_percentile(len(times))
        print(f"verify_s: median {statistics.median(times):.4f} s over {len(times)} passes"
              + (f", p{tail} {percentile(times, tail):.4f} s" if len(times) >= 20 else "")
              + f"; passes: {' '.join(f'{t:.3f}' for t in times)}")

    problems: list[str] = []
    if trace:
        values, problems = per_layer(records)
        out = workdir / f"trace-{args.workload}-{args.seed}.json"
        out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "machine": machine(),
            "absent": sorted({a for r in records for a in r.get("absent", [])}),
            "span_fields": ["name", "start", "end", "parent", "pass"],
            "passes": records,
        }))
        print(f"trace: {out}")
    else:
        values = end_to_end(records)
    for problem in problems:
        print(f"failed check: {problem}", file=sys.stderr)
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        metrics[m["name"]] = {"value": values.get(m["name"]), "unit": m["unit"]}
        if metrics[m["name"]]["value"] is None:
            print(f"{m['name']}: absent")

    result = {
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
