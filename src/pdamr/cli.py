"""Command-line front end: generate, validate and analyze PDAs, tabulate the
fundamental tradeoff, and run bit-exact shuffle simulations.

Exit codes: 0 success; 2 parse/validation failure or usage error; 3 a
parameter failure (``ParameterError``, which divisibility, tau, family and
size errors derive from) or an unreadable or unwritable file; 4 measured
load disagrees with the closed form, a reduced output disagrees with the
reference, or an internal defect (``EngineDefectError`` or any other
exception; a defect, never a warning).

All reports are deterministic: one encoder, ``emit_json``, renders every
rational as a lowest-terms "p/q" string with a 15-significant-digit decimal,
JSON output is byte-stable for identical inputs, and CSV uses '.' decimals
with a header row. Library records are printed as they are, through
``dataclasses.asdict``. One writer, ``emit_report``, wraps every JSON
report, whose ``inputs`` echo every parsed flag but ``--out`` and
``--format``; ``build_parser`` declares ``--out`` once, for every command.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import asdict
from fractions import Fraction

from . import __version__
from .constructions import full_star_pda, man_pda, p1_pda, p2_pda
from .engine import JobSpec, measure_loads
from .loads import (
    _check_kq,
    achieved_load,
    check_tradeoff_budget,
    optimal_file_complexity,
    optimal_load,
    prop1_check,
    tradeoff_curve,
)
from .pda import (
    ParameterError,
    PdaFormatError,
    PdaValidationError,
    _number,
    column_subarray,
    parse_pda,
    pda_stats,
    render_pda,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARAMETER = 3
EXIT_MISMATCH = 4

# family -> (constructor, its integer arguments in order, help text)
GEN_FAMILIES = {
    "man": (man_pda, ("k", "i"), "subset family (meets the tradeoff)"),
    "p1": (p1_pda, ("q", "m"), "low-file-complexity family, first kind"),
    "p2": (p2_pda, ("q", "m"), "low-file-complexity family, second kind"),
    "fullstar": (full_star_pda, ("k", "f"), "all-star array"),
}


def rat(x) -> dict:
    """Rational rendered exactly and as a 15-significant-digit decimal."""
    frac = Fraction(x)
    return {"exact": f"{frac.numerator}/{frac.denominator}" if frac.denominator != 1
            else str(frac.numerator),
            "decimal": f"{float(frac):.15g}"}


def emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii") as handle:
            handle.write(text)


def emit_json(payload: dict, out_path: str | None) -> None:
    """Write ``payload`` as sorted, indented JSON; every Fraction in it is
    rendered by ``rat``, and any other non-JSON value raises TypeError."""
    emit(json.dumps(payload, indent=2, sort_keys=True, default=rat) + "\n", out_path)


def emit_report(args, results: dict) -> None:
    """Write the JSON report of ``args.command``. Its ``inputs`` echo every
    parsed flag but the output options, so a new flag needs no edit here."""
    inputs = {name: value for name, value in vars(args).items()
              if name not in ("command", "func", "out", "format")}
    emit_json({"tool": "pdamr", "version": __version__, "command": args.command,
               "inputs": inputs, "results": results}, args.out)


def read_pda(path: str):
    with open(path, "rb") as handle:
        return parse_pda(handle.read())


def stats_results(pda) -> dict:
    stats = pda_stats(pda)
    k, f, t, s = pda.params
    return {
        "k": k, "f": f, "t": t, "s": s,
        "tau": stats.tau,
        "is_comp": stats.is_comp,
        "regular_g": stats.regular_g,
        "storage_load": stats.storage_load,
        # str keys here, so sort_keys orders them as strings ("10" before "2")
        "symbol_counts": {str(t_): n for t_, n in stats.s_t.items()},
        "symbol_frequencies": {str(t_): v for t_, v in stats.theta.items()},
    }


def cmd_gen(args) -> int:
    build, names, _ = GEN_FAMILIES[args.family]
    pda = build(*(getattr(args, name) for name in names))
    stats = pda_stats(pda)
    emit(render_pda(pda), args.out)
    summary = (f"({pda.k},{pda.f},{pda.t},{pda.s}) PDA, "
               f"regular_g={stats.regular_g}, tau={stats.tau}")
    print(summary, file=sys.stderr if args.out is None else sys.stdout)
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        pda = read_pda(args.pda)
    except PdaValidationError as exc:
        emit_report(args, {"ok": False,
                           "violations": [asdict(v) for v in exc.report.violations]})
        return EXIT_VALIDATION
    emit_report(args, {"ok": True, **stats_results(pda)})
    return EXIT_OK


def cmd_stats(args) -> int:
    pda = read_pda(args.pda)
    emit_report(args, stats_results(pda))
    return EXIT_OK


def cmd_subarray(args) -> int:
    pda = read_pda(args.pda)
    nodes = [_number(tok) for tok in args.nodes.split(",")]  # as a PDA text token
    if None in nodes:
        raise ParameterError(f"--nodes must be comma-separated integers, got {args.nodes!r}")
    sub = column_subarray(pda, nodes)
    emit(render_pda(sub), args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    pda = read_pda(args.pda)
    pair = achieved_load(pda, args.q)
    optimal = optimal_load(pda.k, args.q, pair.r)
    gap = pair.l / optimal if optimal else Fraction(1)  # L* = 0 only at r = K, where L = 0
    f_optimal = (optimal_file_complexity(pda.k, int(pair.r))
                 if pair.r.denominator == 1 else None)
    results = {
        **stats_results(pda),
        "q_active": args.q,
        "achieved": asdict(pair),
        "optimal_l": optimal,
        "gap_ratio": gap,
        "file_complexity": pda.f,
        "optimal_file_complexity": f_optimal,
    }
    emit_report(args, results)
    return EXIT_OK


def cmd_tradeoff(args) -> int:
    if args.q == "all":
        check_tradeoff_budget(args.k)  # also refuses K < 1, which would skip every curve
        q_values = list(range(1, args.k + 1))
    elif args.q is not None:
        q_values = [args.q]
    else:
        raise ParameterError("one of --q or --all-q is required")
    rows = []
    for q in q_values:
        for r, l_star in tradeoff_curve(args.k, q).points:
            rows.append((q, r, l_star))

    if args.format == "csv":
        lines = ["k,q,r,l_exact,l_decimal"]
        for q, r, l_star in rows:
            info = rat(l_star)
            lines.append(f"{args.k},{q},{r},{info['exact']},{info['decimal']}")
        emit("\n".join(lines) + "\n", args.out)
    else:
        emit_report(args, {"points": [{"q": q, "r": r, "l": l_star} for q, r, l_star in rows]})
    return EXIT_OK


def cmd_simulate(args) -> int:
    pda = read_pda(args.pda)
    _check_kq(pda.k, args.q)  # the padding below divides by Q
    # pad with empty functions so every active node gets the same count
    d_used = -(-args.functions // args.q) * args.q
    job = JobSpec(n_files=args.files, d_functions=d_used, w_bits=args.file_bits,
                  v_bits=args.iva_bits, u_bits=args.output_bits, seed=args.seed)

    loads = measure_loads(pda, job, args.q, samples=args.samples, seed=args.sample_seed)
    results = {
        **asdict(loads),
        "per_active_set": [{"active": active, "total_bits": bits}
                           for active, bits in loads.per_active_set],
        "functions_requested": args.functions,
        "functions_used": d_used,
    }
    if d_used != args.functions:
        # load normalized by the unpadded function count, for comparison
        results["l_measured_raw_functions"] = loads.l_measured * d_used / args.functions
    emit_report(args, results)

    if not loads.all_reference_match:
        return EXIT_MISMATCH
    if loads.mode == "exhaustive" and not loads.match:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_prop1(args) -> int:
    rep = asdict(prop1_check(args.k, args.r, args.q_active))
    # K, r and Q are echoed under inputs; the irrational constants are floats
    results = {name: f"{value:.15g}" if isinstance(value, float) else value
               for name, value in rep.items() if name not in ("k_nodes", "r", "q_active")}
    emit_report(args, results)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdamr",
        description="Coded MapReduce shuffle schemes from placement delivery arrays.")
    parser.add_argument("--version", action="version", version=f"pdamr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a PDA from a family")
    fam = p.add_subparsers(dest="family", required=True)
    for family, (_, names, help_text) in GEN_FAMILIES.items():
        g = fam.add_parser(family, help=help_text)
        for name in names:
            g.add_argument(f"--{name}", type=int, required=True)
        g.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="parse and validate a PDA file")
    p.add_argument("--pda", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="derived quantities of a PDA file")
    p.add_argument("--pda", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("subarray", help="restrict a PDA to an active column set")
    p.add_argument("--pda", required=True)
    p.add_argument("--nodes", required=True, help="comma-separated 1-based columns")
    p.set_defaults(func=cmd_subarray)

    p = sub.add_parser("analyze", help="stats plus achieved and optimal loads")
    p.add_argument("--pda", required=True)
    p.add_argument("--q", type=int, required=True, help="active-set size")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("tradeoff", help="fundamental tradeoff table")
    p.add_argument("--k", type=int, required=True)
    which_q = p.add_mutually_exclusive_group()
    which_q.add_argument("--q", type=int, default=None)
    # --all-q stores "all" in q, which is how the report's inputs echo it
    which_q.add_argument("--all-q", dest="q", action="store_const", const="all")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("simulate", help="run the scheme and measure loads")
    p.add_argument("--pda", required=True)
    p.add_argument("--q", type=int, required=True, help="active-set size")
    p.add_argument("--files", type=int, required=True)
    p.add_argument("--functions", type=int, required=True)
    p.add_argument("--iva-bits", type=int, required=True)
    p.add_argument("--file-bits", type=int, default=64)
    p.add_argument("--output-bits", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None,
                   help="sample this many active sets instead of enumerating")
    p.add_argument("--sample-seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("prop1", help="closeness/file-complexity report for P1/P2")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q-active", type=int, required=True)
    p.set_defaults(func=cmd_prop1)

    for leaf in (*sub.choices.values(), *fam.choices.values()):
        if leaf.get_default("func"):  # a command, not the "gen" group
            leaf.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PdaFormatError, PdaValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except Exception as exc:  # EngineDefectError or any other bug, never a bad parameter
        print(f"error: internal defect: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
