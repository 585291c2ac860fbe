"""The benchmark's tracer (``perfbench/tracing.py``) finds every entry point
it wraps, so removing or renaming one fails here and not in a traced pass."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = sys.argv[1:]
import pdamr
import pdamr.cli
import tracing
tracer = tracing.Tracer(0)
tracer.install()
assert tracer.absent == [], tracer.absent
assert isinstance(tracer.layer_metrics(), dict)
"""


def test_tracer_finds_every_target():
    # a subprocess, since installing the tracer rebinds the package's functions
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
