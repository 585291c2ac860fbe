"""Every demo script, every README python block and every command of the
README's CLI tour runs to completion against the package sources."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pdamr import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=120)
        assert proc.returncode == 0, block + proc.stderr


def test_readme_cli_tour_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"^## CLI tour\n\n```sh\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    commands = [shlex.split(line)[1:] for line in tour.group(1).splitlines()
                if line.startswith("pdamr ")]
    assert commands
    monkeypatch.chdir(tmp_path)  # the tour writes its .pda files to the working directory
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
