"""Inputs, passes and the correctness gate of the pdamr benchmark.

A workload is built in two steps, both inside the worker process of one pass:
``setup`` turns the seed into inputs (PDA text files, job arguments, seeded
choices), and ``run_pass`` does the timed work through pdamr's public API and
returns the list of gate failures (empty when the pass is correct).

The seed never changes the shape of the work: on ``shuffle`` and ``payload``
it picks the job seed (file contents), a row order and symbol labels of the
PDA text; on ``structural`` it picks the corrupted entry and the active sets.
Every quantity the gate compares with a recorded value (the ``results``
digest of ``pdamr simulate``, the violation rules) is therefore the same for
every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

RECORD = json.loads((Path(__file__).resolve().parent / "record.json").read_text())

# One entry per `pdamr simulate` run: (name, PDA family parts, Q, files, functions,
# file bits, iva bits, output bits). A PDA with several parts is their vertical
# stack with disjoint symbol labels.
SIMULATE_CASES = {
    "shuffle": [
        ("man9_4", [(9, 4)], 6, 126, 6, 64, 60, 64),
        ("stack8_345", [(8, 3), (8, 4), (8, 5)], 6, 182, 6, 64, 60, 64),
    ],
    "payload": [
        ("man4_2_wide", [(4, 2)], 3, 6, 3, 16000, 8192, 8192),
    ],
}

STRUCT_K, STRUCT_I = 16, 8
STRUCT_PARAMS = (16, 12870, 102960, 11440)
STRUCT_ACTIVE_SETS, STRUCT_ACTIVE_SIZE = 4, 10
TRADEOFF_K = 40
PROP1_MAX_K = 24

WORKLOADS = ("shuffle", "payload", "structural")


def digest(obj) -> str:
    """sha256 of the canonical JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def stacked_text(pdamr, parts, rng: random.Random) -> str:
    """PDA text of the stacked man arrays with rows shuffled and symbols
    relabelled by ``rng``; parse_pda canonicalizes both away."""
    rows, offset = [], 0
    for k, i in parts:
        grid = pdamr.man_pda(k, i).grid
        rows += [[e + offset if e else 0 for e in row] for row in grid]
        offset += max(max(row) for row in grid)
    rng.shuffle(rows)
    labels = rng.sample(range(1, 10 * offset + 1), offset)
    body = [" ".join(str(labels[e - 1]) if e else "*" for e in row) for row in rows]
    return f"{len(rows)} {len(rows[0])}\n" + "\n".join(body) + "\n"


def subset_rank(subset, n: int) -> int:
    """0-based lexicographic rank of a sorted subset of 1..n among the
    subsets of its size, as itertools.combinations orders them."""
    rank, prev, size = 0, 0, len(subset)
    for pos, elem in enumerate(subset):
        for skipped in range(prev + 1, elem):
            rank += math.comb(n - skipped, size - pos - 1)
        prev = elem
    return rank


def expected_violations(row: int, node: int):
    """Rule-b violations of man_pda(16,8) after the star at (row, node)
    (0-based row, 1-based node) becomes a fresh singleton symbol: for each
    node x outside the row's subset T, symbol T|{x} at (row, x) pairs with its
    occurrence in column ``node``, whose cross position is the lost star.
    Each is returned as a set of its two (row, col) cells, 1-based."""
    subset = _unrank(row)
    pairs = set()
    for x in range(1, STRUCT_K + 1):
        if x in subset:
            continue
        other = tuple(sorted((set(subset) | {x}) - {node}))
        pairs.add(frozenset({(row + 1, x), (subset_rank(other, STRUCT_K) + 1, node)}))
    return pairs


def _unrank(rank: int) -> tuple[int, ...]:
    """Inverse of ``subset_rank`` for STRUCT_I-subsets of 1..STRUCT_K."""
    out, elem = [], 1
    for pos in range(STRUCT_I):
        while True:
            block = math.comb(STRUCT_K - elem, STRUCT_I - pos - 1)
            if rank < block:
                break
            rank -= block
            elem += 1
        out.append(elem)
        elem += 1
    return tuple(out)


def setup(pdamr, workload: str, seed: int, tmp: Path) -> dict:
    """Make the inputs of one pass from ``seed``; nothing here is timed as
    part of the pass."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "structural":
        row = rng.randrange(math.comb(STRUCT_K, STRUCT_I))
        node = rng.choice(_unrank(row))
        active = [tuple(sorted(rng.sample(range(1, STRUCT_K + 1), STRUCT_ACTIVE_SIZE)))
                  for _ in range(STRUCT_ACTIVE_SETS)]
        return {"row": row, "node": node, "active": active}
    jobs = []
    for name, parts, q, files, functions, w, v, u in SIMULATE_CASES[workload]:
        path = tmp / f"{name}.pda"
        path.write_text(stacked_text(pdamr, parts, rng), encoding="ascii")
        argv = ["simulate", "--pda", str(path), "--q", str(q),
                "--files", str(files), "--functions", str(functions),
                "--file-bits", str(w), "--iva-bits", str(v), "--output-bits", str(u),
                "--seed", str(rng.randrange(2 ** 32)), "--out", str(tmp / f"{name}.json")]
        jobs.append({"name": name, "argv": argv, "out": tmp / f"{name}.json",
                     "nvd": files * functions * v})
    return {"jobs": jobs}


def run_pass(pdamr, workload: str, inputs: dict, tamper: str | None = None):
    """One timed pass. Returns (failures, items, shuffled_bits_expected).

    ``tamper`` corrupts a genuine result before it is checked; it exists only
    for the gate self-test (perfbench/selftest.py)."""
    if workload == "structural":
        return structural_pass(pdamr, inputs, tamper)
    failures, items, expected_bits = [], 0, 0
    for job in inputs["jobs"]:
        code = pdamr.cli.main(job["argv"])
        if code != 0:
            failures.append(f"{job['name']}: exit code {code}")
            continue
        results = json.loads(job["out"].read_text(encoding="ascii"))["results"]
        if tamper == "digest":
            results["per_active_set"][0]["total_bits"] += 1
        elif tamper == "match":
            results["match"] = False
        failures += check_simulate(job["name"], results)
        items += len(results["per_active_set"])
        expected_bits += (Fraction(results["closed_form"]["l"]["exact"]) * job["nvd"]
                          * len(results["per_active_set"]))
    return failures, items, expected_bits


def check_simulate(name: str, results: dict) -> list[str]:
    """Gate of one `pdamr simulate` report."""
    failures = []
    if results.get("mode") != "exhaustive":
        failures.append(f"{name}: mode {results.get('mode')!r}")
    if results.get("match") is not True:
        failures.append(f"{name}: match is not true")
    if results.get("all_reference_match") is not True:
        failures.append(f"{name}: all_reference_match is not true")
    measured = results.get("l_measured", {}).get("exact")
    if measured is None or measured != results.get("closed_form", {}).get("l", {}).get("exact"):
        failures.append(f"{name}: l_measured.exact differs from closed_form.l.exact")
    want = RECORD["digests"][name]
    if digest(results) != want:
        failures.append(f"{name}: results digest {digest(results)} != recorded {want}")
    return failures


def structural_pass(pdamr, inputs: dict, tamper: str | None):
    """Library calls on man_pda(16,8); no transcript runs."""
    failures, items = [], 0
    k = STRUCT_K

    def check(ok: bool, what: str) -> None:
        nonlocal items
        items += 1
        if not ok:
            failures.append(what)

    pda = pdamr.man_pda(k, STRUCT_I)
    check(pda.params == STRUCT_PARAMS, f"man_pda params {pda.params}")
    text = pdamr.render_pda(pda)
    check(pdamr.parse_pda(text).grid == pda.grid, "render/parse round trip changed the grid")

    row, node = inputs["row"], inputs["node"]
    lines = text.split("\n")
    tokens = lines[row + 1].split(" ")
    tokens[node - 1] = str(10 * STRUCT_PARAMS[3])
    lines[row + 1] = " ".join(tokens)
    try:
        pdamr.parse_pda("\n".join(lines))
        violations = []
        failures.append("corrupted copy parsed without PdaValidationError")
    except pdamr.PdaValidationError as exc:
        violations = list(exc.report.violations)
    if tamper == "violations":
        violations = violations[1:]
    rules: dict[str, int] = {}
    for v in violations:
        rules[v.rule] = rules.get(v.rule, 0) + 1
    check(rules == RECORD["structural_violations"],
          f"violation rules {rules} != recorded {RECORD['structural_violations']}")
    cells = {frozenset(zip(v.rows, v.cols)) for v in violations}
    check(cells == expected_violations(row, node), "violation cells differ from the oracle")

    stats = pdamr.pda_stats(pda)
    check((stats.tau, stats.s_t, stats.storage_load)
          == (STRUCT_I, {STRUCT_I + 1: STRUCT_PARAMS[3]}, STRUCT_I), "pda_stats")
    loads = {}
    for q in range(k - STRUCT_I + 1, k + 1):
        pair = pdamr.achieved_load(pda, q)
        check(pair.l == pdamr.optimal_load(k, q, STRUCT_I) and pair.r == STRUCT_I,
              f"achieved_load Q={q} is off the tradeoff")
        loads[q] = str(pair.l)

    q = STRUCT_ACTIVE_SIZE
    job = pdamr.JobSpec(n_files=STRUCT_PARAMS[1], d_functions=q, w_bits=64,
                        v_bits=math.lcm(*range(1, q)), u_bits=64)
    placement = pdamr.build_placement(pda, job)
    check(all(len(files) == math.comb(k - 1, STRUCT_I - 1)
              for files in placement.node_files.values()), "placement file counts")
    for active in inputs["active"]:
        sub = pdamr.column_subarray(pda, active)
        plan = pdamr.plan_active_set(pda, active, job)
        check(sub.grid == plan.subarray.grid, f"plan subarray for {active}")
        # symbol S (a 9-subset) occurs |S & active| times among the active columns
        want = {g: math.comb(q, g) * math.comb(k - q, STRUCT_I + 1 - g)
                for g in range(1, STRUCT_I + 2)}
        want = {g: n for g, n in want.items() if n}
        got: dict[int, int] = {}
        for places in plan.occurrences.values():
            got[len(places)] = got.get(len(places), 0) + 1
        check(got == want, f"plan multiplicities for {active}")

    curves = [[(r, str(l)) for r, l in pdamr.tradeoff_curve(TRADEOFF_K, q).points]
              for q in range(1, TRADEOFF_K + 1)]
    check(all(curve[-1] == (TRADEOFF_K, "0") for curve in curves), "tradeoff at r=K is not 0")

    prop1 = []
    for kk in range(2, PROP1_MAX_K + 1):
        for r in range(1, kk):
            for qa in range(kk - r + 1, kk + 1):
                try:
                    rep = pdamr.prop1_check(kk, r, qa)
                except pdamr.NoMatchingFamilyError:
                    break
                check(rep.alpha_in_range and rep.beta_in_range, f"prop1 ({kk},{r},{qa})")
                prop1.append((kk, r, qa, rep.family, str(rep.l_ratio), str(rep.f_ratio)))

    summary = {"params": list(pda.params), "loads": loads, "tradeoff": curves, "prop1": prop1}
    want = RECORD["digests"]["structural"]
    check(digest(summary) == want, f"structural digest {digest(summary)} != recorded {want}")
    return failures, items, None
