"""The benchmark's correctness gate, one genuine pass per workload.

Each pass checks its results against the digests pinned in
``perfbench/record.json``, so a change that moves one fails here and not
only in a benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["shuffle", "payload", "structural"])
def test_genuine_pass_meets_the_gate(workload, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "1", "--pass-id", "0", "--tmp", str(tmp_path)],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["failures"] == []
