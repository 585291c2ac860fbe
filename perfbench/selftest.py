"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py [--seed N]

Runs genuine passes and passes whose result is tampered with before the gate
sees it: a wrong ``results`` digest and ``match: false`` on ``payload``, and
a dropped violation on ``structural``. Each tampered pass must be counted as
failed, with the reason the tampering should cause, and its time must stay
out of ``verify_s``. Exits 0 when the gate behaves, 1 otherwise.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import run

CASES = [  # (workload, tamper, reason the gate must give)
    ("payload", None, None),
    ("payload", "digest", "results digest"),
    ("payload", "match", "match is not true"),
    ("structural", None, None),
    ("structural", "violations", "violation rules"),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    workdir = run.ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)

    problems, records = [], []
    for pass_id, (workload, tamper, reason) in enumerate(CASES):
        record = run.run_pass(workload, args.seed, pass_id, False, workdir,
                              run.LOOP_DEADLINE_S, tamper)
        records.append(record)
        reasons = record["failures"]
        if tamper is None and not record["ok"]:
            problems.append(f"genuine {workload} pass failed: {reasons}")
        if tamper is not None and (record["ok"] or not any(reason in r for r in reasons)):
            problems.append(f"{workload} pass tampered with {tamper!r} was not failed "
                            f"for {reason!r}: {reasons}")
        print(f"{workload:10s} tamper={tamper or '-':10s} ok={record['ok']} {reasons}")

    metrics = run.end_to_end(records)
    genuine = [r["verify_s"] for r in records if r["ok"]]
    if metrics["verify_s"] != statistics.median(genuine):
        problems.append("verify_s includes the time of a failed pass")
    if metrics["ok_share"] != 2 / len(CASES):
        problems.append(f"ok_share {metrics['ok_share']} != {2 / len(CASES)}")

    for problem in problems:
        print(f"FAIL: {problem}")
    print("gate self-test:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
