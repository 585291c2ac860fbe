"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed S --pass-id P --tmp DIR
                                [--trace] [--tamper KIND]

Imports pdamr, makes the pass inputs from the seed, prints a line
``READY <CLOCK_MONOTONIC seconds>`` once set-up is done, runs the pass with
its correctness gate, and prints one JSON record as its last line. A fresh
process per pass makes every pass pay what one ``pdamr`` invocation pays:
module-level caches such as the PDA instances behind ``prop1_check`` start
cold each time.

The parent puts the checkout's ``src`` directory on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB (VmHWM)."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-id", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tamper", choices=("digest", "match", "violations"))
    args = parser.parse_args()

    import pdamr
    import pdamr.cli
    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(args.pass_id)
        tracer.install()
    inputs = workloads.setup(pdamr, args.workload, args.seed, Path(args.tmp))
    print("READY", time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)

    start = time.perf_counter()
    failures, items, expected_bits = workloads.run_pass(
        pdamr, args.workload, inputs, args.tamper)
    verify_s = time.perf_counter() - start

    record = {"verify_s": verify_s, "items": items, "failures": failures,
              "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        layers = tracer.layer_metrics()
        if expected_bits is not None and layers["engine.shuffled_bits"] is not None \
                and layers["engine.shuffled_bits"] != expected_bits:
            failures.append(f"shuffled bits {layers['engine.shuffled_bits']} != "
                            f"closed form {expected_bits}")
        record.update(layers=layers, absent=tracer.absent,
                      transcript_ms=tracer.transcript_ms(), spans=tracer.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
