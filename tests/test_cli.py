"""Exit codes, report shapes, and determinism of the command-line front end."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pdamr
from pdamr import (
    ArrayTooLargeError,
    Bits,
    DivisibilityError,
    EmptyStarRowError,
    InsufficientTauError,
    JobSpec,
    NoMatchingFamilyError,
    ParameterError,
    PdaFormatError,
    PdaValidationError,
    cli,
    engine,
    full_star_pda,
    man_pda,
    measure_loads,
    p1_pda,
    render_pda,
    tradeoff_curve,
)
from pdamr.engine import LoadReport
from pdamr.loads import LoadPair, _check_kq


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def ex1_path(tmp_path):
    path = tmp_path / "ex1.pda"
    path.write_text(render_pda(man_pda(4, 2)))
    return str(path)


def test_gen_matches_library(capsys, tmp_path):
    out = tmp_path / "man.pda"
    code, stdout, _ = run(capsys, "gen", "man", "--k", "4", "--i", "2",
                          "--out", str(out))
    assert code == 0
    assert out.read_text() == render_pda(man_pda(4, 2))
    assert "(4,6,12,4)" in stdout and "tau=2" in stdout


def test_gen_to_stdout(capsys):
    code, stdout, stderr = run(capsys, "gen", "fullstar", "--k", "3", "--f", "1")
    assert code == 0
    assert stdout == "1 3\n* * *\n"
    assert "(3,1,3,0)" in stderr


def test_gen_p1(capsys, tmp_path):
    out = tmp_path / "p1.pda"
    code, stdout, _ = run(capsys, "gen", "p1", "--q", "2", "--m", "2",
                          "--out", str(out))
    assert code == 0
    assert out.read_text() == "2 4\n* 1 * 2\n2 * 1 *\n"
    assert "(4,2,4,2)" in stdout


def test_gen_bad_parameters(capsys):
    code, _, stderr = run(capsys, "gen", "man", "--k", "4", "--i", "9")
    assert code == 3
    assert "error" in stderr


def test_validate_ok_and_failure(capsys, ex1_path, tmp_path):
    code, stdout, _ = run(capsys, "validate", "--pda", ex1_path)
    assert code == 0
    assert json.loads(stdout)["results"]["ok"] is True

    bad = tmp_path / "bad.pda"
    bad.write_text("1 2\n1 1\n")
    code, stdout, _ = run(capsys, "validate", "--pda", bad.as_posix())
    assert code == 2
    payload = json.loads(stdout)
    assert payload["results"]["ok"] is False
    assert payload["results"]["violations"][0]["rule"] == "a"


def test_validate_names_the_symbol_as_written(capsys, tmp_path):
    # the file has no symbol 1: the intake's label 1 is the input's 30
    bad = tmp_path / "bad.pda"
    bad.write_text("2 2\n* 30\n30 7\n")
    code, stdout, _ = run(capsys, "validate", "--pda", bad.as_posix())
    assert code == 2
    assert [v["message"] for v in json.loads(stdout)["results"]["violations"]] == [
        "symbol 30 at (1,2) and (2,1) needs stars at (1,1) and (2,2)"]


def test_validate_syntax_error(capsys, tmp_path):
    bad = tmp_path / "bad.pda"
    bad.write_text("1 2\n* %\n")
    code, _, stderr = run(capsys, "validate", "--pda", bad.as_posix())
    assert code == 2
    assert "bad entry" in stderr


def test_stats(capsys, ex1_path):
    code, stdout, _ = run(capsys, "stats", "--pda", ex1_path)
    assert code == 0
    results = json.loads(stdout)["results"]
    assert results["tau"] == 2
    assert results["regular_g"] == 3
    assert results["storage_load"]["exact"] == "2"


def test_array_commands_build_no_places(capsys, ex1_path, monkeypatch):
    # validate, stats and analyze read the intake's row masks and symbol
    # counts; none of them builds the array's place tuples
    def refuse(pda):
        raise AssertionError("Pda.occurrences read")

    monkeypatch.setattr(pdamr.Pda, "occurrences", property(refuse))
    for argv in (["validate"], ["stats"], ["analyze", "--q", "3"]):
        code, stdout, _ = run(capsys, *argv, "--pda", ex1_path)
        assert code == 0, argv
        assert json.loads(stdout)["results"]


def test_subarray(capsys, ex1_path):
    code, stdout, _ = run(capsys, "subarray", "--pda", ex1_path,
                          "--nodes", "1,2,4")
    assert code == 0
    assert stdout == "6 3\n* * 2\n* 1 3\n* 2 *\n1 * 4\n2 * *\n3 4 *\n"


def test_analyze_example(capsys, ex1_path):
    code, stdout, _ = run(capsys, "analyze", "--pda", ex1_path, "--q", "3")
    assert code == 0
    results = json.loads(stdout)["results"]
    assert results["achieved"]["r"]["exact"] == "2"
    assert results["achieved"]["l"]["exact"] == "5/12"
    assert results["optimal_l"]["exact"] == "5/12"
    assert results["gap_ratio"]["exact"] == "1"
    assert results["file_complexity"] == 6
    assert results["optimal_file_complexity"] == 6


def test_analyze_p1_gap(capsys, tmp_path):
    path = tmp_path / "p1.pda"
    run(capsys, "gen", "p1", "--q", "2", "--m", "2", "--out", str(path))
    code, stdout, _ = run(capsys, "analyze", "--pda", str(path), "--q", "3")
    assert code == 0
    results = json.loads(stdout)["results"]
    assert results["achieved"]["l"]["exact"] == "1/2"
    assert results["gap_ratio"]["exact"] == "6/5"
    assert results["file_complexity"] == 2
    assert results["optimal_file_complexity"] == 6


@pytest.mark.parametrize("q", ["1", "2", "3"])
def test_analyze_fullstar_gap_is_one(capsys, tmp_path, q):
    # the all-star array sits at r = K, where both loads are 0
    path = tmp_path / "fs.pda"
    run(capsys, "gen", "fullstar", "--k", "3", "--f", "1", "--out", str(path))
    code, stdout, _ = run(capsys, "analyze", "--pda", str(path), "--q", q)
    assert code == 0
    results = json.loads(stdout)["results"]
    assert results["achieved"]["l"]["exact"] == "0"
    assert results["optimal_l"]["exact"] == "0"
    assert results["gap_ratio"]["exact"] == "1"


def test_analyze_insufficient_tau(capsys, ex1_path):
    code, _, stderr = run(capsys, "analyze", "--pda", ex1_path, "--q", "1")
    assert code == 3
    assert "minimum storage number" in stderr


def test_tradeoff_csv(capsys):
    code, stdout, _ = run(capsys, "tradeoff", "--k", "4", "--q", "3")
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == "k,q,r,l_exact,l_decimal"
    assert lines[1] == "4,3,2,5/12,0.416666666666667"
    assert lines[2] == "4,3,3,1/8,0.125"
    assert lines[3] == "4,3,4,0,0"


def test_tradeoff_all_q_spot_values(capsys):
    code, stdout, _ = run(capsys, "tradeoff", "--k", "10", "--all-q")
    assert code == 0
    rows = {tuple(line.split(",")[:3]): line.split(",")[3]
            for line in stdout.strip().split("\n")[1:]}
    assert rows[("10", "10", "2")] == "2/5"
    assert rows[("10", "8", "3")] == "119/360"
    # one row per integer r in [K-Q+1 .. K] for every Q
    assert len(rows) == sum(q for q in range(1, 11))


def test_tradeoff_json(capsys):
    code, stdout, _ = run(capsys, "tradeoff", "--k", "4", "--q", "3",
                          "--format", "json")
    assert code == 0
    points = json.loads(stdout)["results"]["points"]
    assert points[0] == {"q": 3, "r": 2,
                         "l": {"exact": "5/12", "decimal": "0.416666666666667"}}


def test_tradeoff_requires_q(capsys):
    code, _, stderr = run(capsys, "tradeoff", "--k", "4")
    assert code == 3
    assert "--q" in stderr or "all-q" in stderr


def test_tradeoff_rejects_q_with_all_q(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tradeoff", "--k", "4", "--q", "2", "--all-q"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument --q" in captured.err


def test_gen_man_oversized_exits_fast(capsys, tmp_path):
    out = tmp_path / "man.pda"
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "gen", "man", "--k", "30", "--i", "15",
                               "--out", str(out))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and stdout == "" and not out.exists()
    assert stderr.startswith("error: man(30,15) has ")


@pytest.mark.parametrize("argv,name", [
    (("gen", "p1", "--q", "40", "--m", "6"), "p1(40,6)"),
    (("gen", "p2", "--q", "2", "--m", "40"), "p2(2,40)"),
    (("gen", "fullstar", "--k", "3", "--f", "100000000"), "fullstar(3,100000000)"),
    (("prop1", "--k", "100", "--r", "50", "--q-active", "60"), "p1(2,50)"),
    (("prop1", "--k", "60", "--r", "40", "--q-active", "30"), "p2(3,20)"),
], ids=["p1", "p2", "fullstar", "prop1", "prop1-p2"])
def test_oversized_family_exits_fast(capsys, tmp_path, argv, name):
    out = tmp_path / "out"
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, *argv, "--out", str(out))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and stdout == "" and not out.exists()
    assert stderr.startswith(f"error: {name} has ")


@pytest.mark.parametrize("argv,name", [
    (("gen", "man", "--k", "1000000", "--i", "500000"), "man(1000000,500000)"),
    (("gen", "p1", "--q", "3", "--m", "10000001"), "p1(3,10000001)"),
    (("gen", "p2", "--q", "3", "--m", "10000001"), "p2(3,10000001)"),
    # 10**4999 rows: a count with more digits than int-to-str allows
    (("gen", "p1", "--q", "10", "--m", "5000"), "p1(10,5000)"),
    (("prop1", "--k", "1000000", "--r", "500000", "--q-active", "500001"), "p1(2,500000)"),
], ids=["man", "p1", "p2", "p1-unprintable", "prop1"])
def test_absurd_family_parameters_exit_fast(capsys, tmp_path, argv, name):
    # refused from a cheap lower bound, before the exact row count
    out = tmp_path / "out"
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, *argv, "--out", str(out))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and stdout == "" and not out.exists()
    assert stderr == f"error: {name} has more cells than the limit of 1000000\n"


def test_simulate_toy(capsys, ex1_path):
    code, stdout, _ = run(capsys, "simulate", "--pda", ex1_path, "--q", "3",
                          "--files", "6", "--functions", "3", "--iva-bits", "120")
    assert code == 0
    results = json.loads(stdout)["results"]
    assert results["l_measured"]["exact"] == "5/12"
    assert results["match"] is True
    assert results["all_reference_match"] is True
    assert all(entry["total_bits"] == 900 for entry in results["per_active_set"])


def test_simulate_suggests_minimal_v(capsys, ex1_path):
    code, _, stderr = run(capsys, "simulate", "--pda", ex1_path, "--q", "3",
                          "--files", "6", "--functions", "3", "--iva-bits", "7")
    assert code == 3
    assert "--iva-bits 8" in stderr


def test_simulate_pads_functions(capsys, ex1_path):
    code, stdout, _ = run(capsys, "simulate", "--pda", ex1_path, "--q", "3",
                          "--files", "6", "--functions", "4", "--iva-bits", "120")
    assert code == 0
    results = json.loads(stdout)["results"]
    assert results["functions_requested"] == 4
    assert results["functions_used"] == 6
    assert results["l_measured"]["exact"] == "5/12"
    assert results["l_measured_raw_functions"]["exact"] == "5/8"


def test_simulate_fullstar(capsys, tmp_path):
    path = tmp_path / "fs.pda"
    run(capsys, "gen", "fullstar", "--k", "3", "--f", "1", "--out", str(path))
    code, stdout, _ = run(capsys, "simulate", "--pda", str(path), "--q", "2",
                          "--files", "3", "--functions", "2", "--iva-bits", "8")
    assert code == 0
    assert json.loads(stdout)["results"]["l_measured"]["exact"] == "0"


def test_simulate_mismatch_exit_code(capsys, ex1_path, monkeypatch):
    # force a disagreement to confirm it is treated as a defect
    real = cli.measure_loads

    def broken(*args, **kwargs):
        report = real(*args, **kwargs)
        wrong = LoadPair(r=report.closed_form.r, l=report.closed_form.l + 1)
        return LoadReport(
            mode=report.mode, q_active=report.q_active,
            r_measured=report.r_measured, l_measured=report.l_measured,
            per_active_set=report.per_active_set, closed_form=wrong,
            match=False, all_reference_match=report.all_reference_match)

    monkeypatch.setattr(cli, "measure_loads", broken)
    code, _, _ = run(capsys, "simulate", "--pda", ex1_path, "--q", "3",
                     "--files", "6", "--functions", "3", "--iva-bits", "120")
    assert code == 4


def test_simulate_reference_mismatch_exit_code(capsys, ex1_path, monkeypatch):
    # loads that match but a reduced output that does not is still exit 4,
    # and the report is written before the exit
    real = cli.measure_loads

    def wrong_outputs(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), all_reference_match=False)

    monkeypatch.setattr(cli, "measure_loads", wrong_outputs)
    code, stdout, _ = run(capsys, "simulate", "--pda", ex1_path, "--q", "3",
                          "--files", "6", "--functions", "3", "--iva-bits", "120")
    assert code == 4
    results = json.loads(stdout)["results"]
    assert results["match"] is True and results["all_reference_match"] is False


def test_simulate_engine_defect_exit_code(capsys, tmp_path, monkeypatch):
    # a plan that drops a symbol leaves a node without a batch it needs, an
    # internal defect: exit 4, not the parameter-error exit 3
    real = engine.plan_active_set

    def broken(*args):
        plan = real(*args)
        sym = next(iter(plan.occurrences))
        return dataclasses.replace(
            plan, occurrences={s: p for s, p in plan.occurrences.items() if s != sym})

    monkeypatch.setattr(engine, "plan_active_set", broken)
    path = tmp_path / "p1.pda"
    path.write_text(render_pda(p1_pda(2, 2)))
    code, _, stderr = run(capsys, "simulate", "--pda", str(path), "--q", "3",
                          "--files", "2", "--functions", "3", "--iva-bits", "24")
    assert code == 4
    assert "internal defect: EngineDefectError: node " in stderr


def test_simulate_under_optimized_python(ex1_path):
    # python -O strips assert statements; the engine's checks must not be any
    src = str(Path(pdamr.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pdamr.cli", "simulate", "--pda", ex1_path,
         "--q", "3", "--files", "6", "--functions", "3", "--iva-bits", "120"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert results["match"] is True and results["all_reference_match"] is True


def test_prop1_report(capsys):
    code, stdout, _ = run(capsys, "prop1", "--k", "4", "--r", "2",
                          "--q-active", "3")
    assert code == 0
    results = json.loads(stdout)["results"]
    assert results["l_ratio"]["exact"] == "6/5"
    assert results["f_ratio"]["exact"] == "1/3"
    assert results["alpha_in_range"] and results["beta_in_range"]


def test_prop1_no_family(capsys):
    code, _, stderr = run(capsys, "prop1", "--k", "7", "--r", "3",
                          "--q-active", "7")
    assert code == 3
    assert "not 1/q" in stderr


def test_json_outputs_are_byte_stable(capsys, ex1_path):
    _, first, _ = run(capsys, "analyze", "--pda", ex1_path, "--q", "3")
    _, second, _ = run(capsys, "analyze", "--pda", ex1_path, "--q", "3")
    assert first == second
    _, first, _ = run(capsys, "simulate", "--pda", ex1_path, "--q", "3",
                      "--files", "6", "--functions", "3", "--iva-bits", "120")
    _, second, _ = run(capsys, "simulate", "--pda", ex1_path, "--q", "3",
                       "--files", "6", "--functions", "3", "--iva-bits", "120")
    assert first == second


# sha256 of the canonical JSON of each command's ``results`` object; a
# change to any reported value or key shows up here
PINNED_RESULTS = {
    ("simulate", "--pda", "EX1", "--q", "3", "--files", "6", "--functions", "3",
     "--iva-bits", "120"):
        "62a5527935effa5949a32d5d83e25b134943539a51414da43ae9ee1226f56859",
    ("analyze", "--pda", "EX1", "--q", "3"):
        "1225fc31f4dee18a5e30f820cc081ad0ab1e8e57b07e3efe5a1fa13a9a1132aa",
    ("stats", "--pda", "EX1"):
        "2336f42649f5c0d3c6dedca02a4a3b5d9e7536ddfaecd55952bab7e66d272ff4",
    ("tradeoff", "--k", "4", "--q", "3", "--format", "json"):
        "cc11658abe0b414938472ea14aefc41dddbe8a60c17fe55d4e0784dc4b7b4ae7",
    ("prop1", "--k", "4", "--r", "2", "--q-active", "3"):
        "c520a12fd7fa826e1ff870e5dab729695ffd0ff02eb57243b56f85ed621d509f",
}


@pytest.mark.parametrize("argv", list(PINNED_RESULTS), ids=lambda argv: argv[0])
def test_results_match_pinned_digest(capsys, ex1_path, argv):
    code, stdout, _ = run(capsys, *(ex1_path if arg == "EX1" else arg for arg in argv))
    assert code == 0
    text = json.dumps(json.loads(stdout)["results"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == PINNED_RESULTS[argv]


def test_simulate_rejects_q_zero(capsys, ex1_path):
    # the function-count padding divides by Q, so Q is checked first
    code, stdout, stderr = run(capsys, "simulate", "--pda", ex1_path, "--q", "0",
                               "--files", "6", "--functions", "3", "--iva-bits", "120")
    assert code == 3 and stdout == ""
    assert stderr == "error: q_active must be in 1..4, got 0\n"


@pytest.mark.parametrize("k", ["0", "-3"])
def test_tradeoff_all_q_rejects_k_below_one(capsys, k):
    code, stdout, stderr = run(capsys, "tradeoff", "--k", k, "--all-q")
    assert code == 3 and stdout == ""
    assert stderr == "error: k_nodes must be >= 1\n"


def test_tradeoff_budget_refuses_before_any_work(capsys):
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "tradeoff", "--k", "400", "--all-q")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and stdout == ""
    assert stderr == ("error: the tradeoff of K = 400 for Q = 1..148 weighs an estimated "
                      "2.04e+08 term-bits (exact terms x the bit length of C(K-1,Q-1), "
                      "plus 1000 per anchor point), above the limit of 200000000\n")


def test_tradeoff_budget_refuses_huge_q(capsys):
    k = str(10**400)
    code, stdout, stderr = run(capsys, "tradeoff", "--k", k, "--q", k)
    assert code == 3 and stdout == ""
    assert stderr.endswith(" weighs an estimated over 1.8e+308 term-bits (exact terms x "
                           "the bit length of C(K-1,Q-1), plus 1000 per anchor point), "
                           "above the limit of 200000000\n")


def test_tradeoff_budget_weighs_terms_by_their_bits(capsys):
    # 499,500 terms, under the term limit, but each near 8,000 bits wide
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "tradeoff", "--k", "100000", "--q", "1000")
    assert time.perf_counter() - start < 2.0
    assert code == 3 and stdout == ""
    assert stderr == ("error: the tradeoff of K = 100000 for Q = 1000 weighs an estimated "
                      "4.04e+09 term-bits (exact terms x the bit length of C(K-1,Q-1), "
                      "plus 1000 per anchor point), above the limit of 200000000\n")


def test_tradeoff_budget_weighs_each_anchor_point(capsys):
    # 999,999 terms of about 0 bits each, but 10^6 anchor points at about
    # 16 us each: 1e9 term-bits once each anchor weighs 1000
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "tradeoff", "--k", "1000000", "--q", "1000000")
    assert time.perf_counter() - start < 2.0
    assert code == 3 and stdout == ""
    assert stderr == ("error: the tradeoff of K = 1000000 for Q = 1000000 weighs an "
                      "estimated 1e+09 term-bits (exact terms x the bit length of "
                      "C(K-1,Q-1), plus 1000 per anchor point), above the limit of "
                      "200000000\n")


def test_simulate_budget_refuses_before_any_work(capsys, tmp_path):
    path = tmp_path / "man14_7.pda"
    path.write_text(render_pda(man_pda(14, 7)))
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "simulate", "--pda", str(path), "--q", "9",
                               "--files", "3432", "--functions", "9", "--file-bits", "64",
                               "--iva-bits", "840", "--output-bits", "64", "--out", os.devnull)
    assert time.perf_counter() - start < 2.0
    assert code == 3 and stdout == ""
    assert stderr == ("error: 2002 transcripts of a 3432x14 array walk 96192096 cells, "
                      "above the limit of 10000000; draw fewer active sets with --samples\n")


def test_simulate_hashed_bytes_budget_refuses_before_any_work(capsys, tmp_path):
    # V = 2**30 passes the cell budget (96 cells) but would hash 4.8 GB
    path = tmp_path / "ex1.pda"
    run(capsys, "gen", "man", "--k", "4", "--i", "2", "--out", str(path))
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "simulate", "--pda", str(path), "--q", "3",
                               "--files", "6", "--functions", "3",
                               "--iva-bits", "1073741824", "--out", os.devnull)
    assert time.perf_counter() - start < 2.0
    assert code == 3 and stdout == ""
    assert stderr == ("error: the job's files, map values and reference outputs hash "
                      "4831839075 bytes, above the limit of 50000000\n")


# sha256 of the whole output of `tradeoff --k 40 --all-q`, recorded before
# the work budget existed
PINNED_ALL_Q = {
    "csv": "6a31a1287c1b9388fd5be99139f57b883349fbfd9920f278d7c3794f098cdf55",
    "json": "a81429563b6953d5975c460bb6ac9f8f287082417ac61b99659a2353c449ca45",
}


@pytest.mark.parametrize("fmt", list(PINNED_ALL_Q))
def test_tradeoff_all_q_output_pinned(capsys, fmt):
    code, stdout, _ = run(capsys, "tradeoff", "--k", "40", "--all-q", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(stdout.encode("ascii")).hexdigest() == PINNED_ALL_Q[fmt]


def test_missing_file(capsys):
    code, _, stderr = run(capsys, "stats", "--pda", "/nonexistent.pda")
    assert code == 3
    assert "error" in stderr


def test_parameter_errors_share_one_base():
    for error in (DivisibilityError, InsufficientTauError, NoMatchingFamilyError,
                  ArrayTooLargeError, EmptyStarRowError):
        assert issubclass(error, ParameterError)
    for error in (PdaFormatError, PdaValidationError, engine.EngineDefectError):
        assert not issubclass(error, ParameterError)


@pytest.mark.parametrize("call", [
    lambda: _check_kq(0, 1),
    lambda: _check_kq(4, 5),
    lambda: tradeoff_curve(4, 0),
    lambda: JobSpec(0, 1, 1, 1, 1),
    lambda: measure_loads(man_pda(4, 2), JobSpec(6, 3, 8, 8, 8), 3, samples=0),
], ids=["k", "q", "tradeoff", "jobspec", "samples"])
def test_argument_checks_raise_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("name, call", [
    ("each node", lambda: pdamr.column_subarray(man_pda(4, 2), [1.0, 2, 3])),
    ("each node", lambda: pdamr.plan_active_set(man_pda(4, 2), ["1", 2, 3],
                                                JobSpec(6, 3, 8, 8, 8))),
    ("q_active", lambda: measure_loads(man_pda(4, 2), JobSpec(6, 3, 8, 8, 8), 3.0)),
    ("samples", lambda: measure_loads(man_pda(4, 2), JobSpec(6, 3, 8, 8, 8), 3, samples=2.5)),
    ("n_files", lambda: JobSpec(6.0, 3, 8, 8, 8)),
    ("seed", lambda: JobSpec(6, 3, 8, 8, 8, seed=1.5)),
    ("seed", lambda: measure_loads(man_pda(4, 2), JobSpec(6, 3, 8, 8, 8), 3, samples=2, seed=[1])),
    ("seed", lambda: measure_loads(man_pda(4, 2), JobSpec(6, 3, 8, 8, 8), 3, samples=2, seed="x")),
    ("seed", lambda: measure_loads(man_pda(4, 2), JobSpec(6, 3, 8, 8, 8), 3, samples=2, seed=1.5)),
    ("each node", lambda: pdamr.column_subarray(man_pda(4, 2), [[1], 2, 3])),
    ("each node", lambda: pdamr.plan_active_set(man_pda(4, 2), [[1], 2, 3],
                                                JobSpec(6, 3, 8, 8, 8))),
], ids=["subarray", "plan", "q", "samples", "jobspec", "seed", "sample-seed-list",
        "sample-seed-str", "sample-seed-float", "subarray-unhashable", "plan-unhashable"])
def test_non_int_arguments_raise_parameter_error(name, call):
    # a float or str must not escape as a TypeError, or pass unnoticed
    with pytest.raises(ParameterError, match=f"^{name} must be an int, got "):
        call()


@pytest.mark.parametrize("name, call", [
    ("k_nodes", lambda: man_pda(4.0, 2)),
    ("i", lambda: man_pda(4, 2.0)),
    ("q", lambda: pdamr.p1_pda(2.0, 2)),
    ("f_rows", lambda: pdamr.full_star_pda(3, 2.0)),
    ("u", lambda: pdamr.u_value(6, 3, 1.5)),
    ("u", lambda: pdamr.z_value(6, 3, 4.5)),
    ("r", lambda: pdamr.optimal_file_complexity(4, 2.0)),
    ("r", lambda: pdamr.prop1_check(4, 2.0, 3)),
    ("r", lambda: pdamr.optimal_load(4, 2, None)),
    ("r", lambda: pdamr.optimal_load(4, 2, "abc")),
    ("pdas", lambda: pdamr.stack_pda(1)),
], ids=["man-k", "man-i", "p1", "fullstar", "u_value", "z_value", "file-complexity", "prop1",
        "load-none", "load-str", "stack"])
def test_constructor_and_closed_form_arguments_raise_parameter_error(name, call):
    # a bare TypeError, AttributeError or ValueError from deeper in the library
    # must not escape; the ParameterError names the argument
    with pytest.raises(ParameterError, match=f"^{name} must "):
        call()


@pytest.mark.parametrize("name, call", [
    ("pda", lambda: pdamr.render_pda(5)),
    ("pda", lambda: pdamr.pda_stats(5)),
    ("pda", lambda: pdamr.achieved_load(5, 2)),
    ("pda", lambda: measure_loads(5, JobSpec(6, 3, 8, 8, 8), 3)),
    ("job", lambda: measure_loads(man_pda(4, 2), (6, 3, 8, 8, 8), 3)),
    ("pda", lambda: pdamr.job_geometry(5, JobSpec(6, 3, 8, 8, 8), 3)),
    ("job", lambda: pdamr.job_geometry(man_pda(4, 2), (6, 3), 3)),
    ("grid", lambda: pdamr.validate_pda(5)),
    ("each row", lambda: pdamr.validate_pda([5])),
    ("active", lambda: pdamr.run_transcript(man_pda(4, 2), JobSpec(6, 3, 8, 8, 8), 5)),
    ("pda", lambda: pdamr.run_transcript(5, JobSpec(6, 3, 8, 8, 8), (1, 2, 3))),
    ("pda", lambda: pdamr.column_subarray(5, [1, 2])),
    ("nodes", lambda: pdamr.column_subarray(man_pda(4, 2), 5)),
    ("workload", lambda: pdamr.run_transcript(man_pda(4, 2), JobSpec(6, 3, 8, 8, 8), (1, 2, 3),
                                              workload=5)),
], ids=["render", "stats", "achieved", "measure-pda", "measure-job", "geometry-pda",
        "geometry-job", "validate-grid", "validate-row", "transcript-active", "transcript-pda",
        "subarray-pda", "subarray-nodes", "transcript-workload"])
def test_entry_points_check_argument_types(name, call):
    # not an AttributeError or TypeError from deeper in the library
    with pytest.raises(ParameterError, match=f"^{name} must be of type "):
        call()


@pytest.mark.parametrize("message, call", [
    ("grid must be nonempty", lambda: pdamr.validate_pda([])),
    ("grid must be rectangular", lambda: pdamr.validate_pda([[0, 0], [0]])),
    ("workload belongs to a different job",
     lambda: pdamr.run_transcript(man_pda(4, 2), JobSpec(6, 3, 8, 8, 8), (1, 2, 3),
                                  workload=engine.Workload(JobSpec(6, 3, 8, 8, 16)))),
], ids=["validate-empty", "validate-ragged", "transcript-workload-job"])
def test_shape_and_job_mismatches_raise_parameter_error(message, call):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("name, lo, hi, call", [
    ("q_active", 1, 4, lambda q: pdamr.achieved_load(man_pda(4, 4), q)),
    ("u", 1, 4, lambda u: pdamr.u_value(4, 3, u)),
    ("u", 2, 4, lambda u: pdamr.z_value(4, 3, u)),
    ("r", 1, 4, lambda r: pdamr.optimal_file_complexity(4, r)),
    ("r", 3, 5, lambda r: pdamr.prop1_check(6, r, 4)),
    ("i", 1, 4, lambda i: man_pda(4, i)),
    ("each node", 1, 4, lambda node: pdamr.column_subarray(man_pda(4, 4), [node])),
], ids=["q_active", "u_value", "z_value", "file-complexity", "prop1", "man-i", "subarray-node"])
def test_int_ranges_share_one_message(name, lo, hi, call):
    # lo-1 and hi+1 are refused by the one range rule, lo and hi pass it
    for value in (lo - 1, hi + 1):
        with pytest.raises(ParameterError, match=rf"^{name} must be in {lo}\.\.{hi}, got {value}$"):
            call(value)
    call(lo)
    try:
        call(hi)
    except NoMatchingFamilyError:  # prop1's r = K-1 is never 1/q or (q-1)/q with q <= K-1
        assert (name, hi) == ("r", 5)


def test_bools_count_as_ints():
    # as in the grid intake, True and False are the ints 1 and 0
    assert JobSpec(True, 3, 8, 8, 8, seed=False).n_files == 1
    plan = pdamr.plan_active_set(man_pda(4, 2), [True, 2, 3], JobSpec(6, 3, 8, 8, 8))
    assert plan.active == (1, 2, 3)


def test_internal_value_error_is_a_defect(capsys, monkeypatch):
    # only ParameterError (and OSError) mean a bad request; a ValueError from
    # inside the library is a bug and exits 4
    def broken(*args):
        raise ValueError("an internal check failed")

    monkeypatch.setattr(cli, "tradeoff_curve", broken)
    code, stdout, stderr = run(capsys, "tradeoff", "--k", "4", "--q", "3")
    assert code == 4 and stdout == ""
    first, *trace = stderr.splitlines()
    assert first == "error: internal defect: ValueError: an internal check failed"
    assert trace[0] == "Traceback (most recent call last):" and "in broken" in stderr


def test_subarray_rejects_non_integer_nodes(capsys, ex1_path):
    # a node is read as the PDA text reads a number, in ASCII decimal digits
    # alone; int() takes the last three (U+0661 is the Arabic-Indic one)
    for nodes in ("1,a", "0_1", " +2", "\u0661"):
        code, stdout, stderr = run(capsys, "subarray", "--pda", ex1_path, "--nodes", nodes)
        assert code == 3 and stdout == ""
        assert stderr == f"error: --nodes must be comma-separated integers, got {nodes!r}\n"


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    texts = {"man": render_pda(man_pda(4, 2)), "star": render_pda(full_star_pda(3, 2)),
             "p1": render_pda(p1_pda(2, 2)), "invalid": "1 2\n1 1\n", "junk": "1 2\n* x\n"}
    paths = []
    for name, text in texts.items():
        (root / f"{name}.pda").write_text(text)
        paths.append(str(root / f"{name}.pda"))
    return paths + [str(root / "missing.pda")]


@st.composite
def cli_argvs(draw, paths):
    """argv of one subcommand with small ints, 0 and negatives included. Up
    to 5, so no family array is near the cell limit (p1(7,6) has 705,894
    cells and takes about a second to build)."""
    def num(*likely):  # ``likely``: values that make a valid job more common
        return str(draw(st.one_of(st.integers(-2, 5), st.sampled_from(likely or (0,)))))

    def maybe(*options):
        return [part for name in options if draw(st.booleans()) for part in (name, num())]

    pda = draw(st.sampled_from(paths))
    command = draw(st.sampled_from(
        ["gen", "validate", "stats", "subarray", "analyze", "tradeoff", "simulate", "prop1"]))
    if command == "gen":
        family = draw(st.sampled_from(sorted(cli.GEN_FAMILIES)))
        _, names, _ = cli.GEN_FAMILIES[family]
        return ["gen", family] + [part for name in names for part in (f"--{name}", num())]
    if command in ("validate", "stats"):
        return [command, "--pda", pda]
    if command == "subarray":
        nodes = ",".join(num() for _ in range(draw(st.integers(1, 4))))
        return ["subarray", "--pda", pda, "--nodes",
                draw(st.sampled_from([nodes, nodes, "", "1,,2", "a"]))]
    if command == "analyze":
        return ["analyze", "--pda", pda, "--q", num()]
    if command == "tradeoff":
        which = draw(st.sampled_from([[], ["--q", num()], ["--all-q"]]))
        return ["tradeoff", "--k", num(), *which, *draw(st.sampled_from([[], ["--format", "json"]]))]
    if command == "simulate":
        return ["simulate", "--pda", pda, "--q", num(3), "--files", num(6, 12),
                "--functions", num(3, 6), "--iva-bits", num(12, 24),
                *maybe("--file-bits", "--output-bits", "--samples")]
    return ["prop1", "--k", num(4), "--r", num(2), "--q-active", num(3)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exits_cleanly(fuzz_paths, data):
    argv = data.draw(cli_argvs(fuzz_paths))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert time.perf_counter() - start < 1.0, argv
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_emit_json_renders_every_fraction_and_nothing_else(capsys):
    payload = {"a": [Fraction(1, 3), {"b": Fraction(4), "c": [Fraction(-5, 10)]}],
               "d": 2, "e": "x", "f": None, "g": True}
    cli.emit_json(payload, None)
    assert json.loads(capsys.readouterr().out) == {
        "a": [cli.rat(Fraction(1, 3)), {"b": cli.rat(4), "c": [cli.rat(Fraction(-1, 2))]}],
        "d": 2, "e": "x", "f": None, "g": True}
    for bad in ({1, 2}, Bits(5, 3)):
        with pytest.raises(TypeError):
            cli.emit_json({"a": [{"b": bad}]}, None)
    assert capsys.readouterr().out == ""


def test_simulate_echoes_every_input(capsys, ex1_path):
    def report(*extra):
        code, stdout, _ = run(capsys, "simulate", "--pda", ex1_path, "--q", "3", "--files", "6",
                              "--functions", "3", "--iva-bits", "120", *extra)
        assert code == 0
        return json.loads(stdout)

    plain = report()
    assert plain["inputs"] == {
        "pda": ex1_path, "q": 3, "files": 6, "functions": 3, "file_bits": 64,
        "iva_bits": 120, "output_bits": 64, "seed": 0, "samples": None, "sample_seed": 0}
    # loads depend on none of these, so only the echoed inputs tell the runs apart
    for flag, key, value in (("--file-bits", "file_bits", 128),
                             ("--output-bits", "output_bits", 32),
                             ("--sample-seed", "sample_seed", 5)):
        changed = report(flag, str(value))
        assert changed["inputs"] == {**plain["inputs"], key: value}
        assert changed["results"] == plain["results"]


@pytest.fixture
def bad_path(tmp_path):
    path = tmp_path / "bad.pda"
    path.write_text("1 2\n1 1\n")
    return str(path)


# every JSON report but simulate's (pinned above): its argv, with EX1 and
# BAD standing for the two array files, its exit code and its exact inputs
REPORT_INPUTS = [
    (("validate", "--pda", "EX1"), 0, {"pda": "EX1"}),
    (("validate", "--pda", "BAD"), 2, {"pda": "BAD"}),
    (("stats", "--pda", "EX1"), 0, {"pda": "EX1"}),
    (("analyze", "--pda", "EX1", "--q", "3"), 0, {"pda": "EX1", "q": 3}),
    (("tradeoff", "--k", "4", "--q", "3", "--format", "json"), 0, {"k": 4, "q": 3}),
    (("tradeoff", "--k", "4", "--all-q", "--format", "json"), 0, {"k": 4, "q": "all"}),
    (("prop1", "--k", "4", "--r", "2", "--q-active", "3"), 0,
     {"k": 4, "r": 2, "q_active": 3}),
]


@pytest.mark.parametrize("argv, exit_code, inputs", REPORT_INPUTS,
                         ids=["validate-ok", "validate-bad", "stats", "analyze",
                              "tradeoff-q", "tradeoff-all-q", "prop1"])
def test_report_echoes_its_inputs(capsys, ex1_path, bad_path, argv, exit_code, inputs):
    paths = {"EX1": ex1_path, "BAD": bad_path}
    code, stdout, _ = run(capsys, *(paths.get(arg, arg) for arg in argv))
    assert code == exit_code
    payload = json.loads(stdout)
    assert payload["command"] == argv[0]
    assert payload["inputs"] == {key: paths.get(value, value) for key, value in inputs.items()}


@pytest.mark.parametrize("argv", [
    ("gen", "man", "--k", "4", "--i", "2"),
    ("gen", "p1", "--q", "2", "--m", "2"),
    ("gen", "p2", "--q", "3", "--m", "2"),
    ("gen", "fullstar", "--k", "3", "--f", "2"),
    ("validate", "--pda", "EX1"),
    ("validate", "--pda", "BAD"),
    ("stats", "--pda", "EX1"),
    ("subarray", "--pda", "EX1", "--nodes", "1,2,4"),
    ("analyze", "--pda", "EX1", "--q", "3"),
    ("tradeoff", "--k", "4", "--all-q"),
    ("tradeoff", "--k", "4", "--q", "3", "--format", "json"),
    ("simulate", "--pda", "EX1", "--q", "3", "--files", "6", "--functions", "4",
     "--iva-bits", "120", "--samples", "2"),
    ("prop1", "--k", "4", "--r", "2", "--q-active", "3"),
], ids=lambda argv: "-".join(argv[:2]))
def test_out_file_equals_stdout(capsys, ex1_path, bad_path, tmp_path, argv):
    argv = [{"EX1": ex1_path, "BAD": bad_path}.get(arg, arg) for arg in argv]
    code, stdout, _ = run(capsys, *argv)
    out = tmp_path / "report.out"
    assert run(capsys, *argv, "--out", str(out))[0] == code
    assert out.read_text() == stdout != ""
