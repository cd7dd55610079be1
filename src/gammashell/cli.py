"""Command-line front end for the verification pipelines.

Reports are deterministic: JSON (sorted keys, no timestamps) by default,
plain text with --format text, CSV for the tabular commands.  Exit codes:
0 pass, 1 verification failure, 2 usage error, 3 budget exceeded, 4 I/O.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .complexes import (
    DEFAULT_FACE_BUDGET,
    f_vector_enumerated,
    f_vector_formula,
    make_complex,
    reduced_euler_characteristic,
)
from .errors import BudgetError, DomainError, PreconditionError, VerificationError
from .facets import enumerate_facets, format_facets
from .genfun import alignment_check, series_g_r, series_P, series_XY
from .homology import (
    DEFAULT_CELL_BUDGET,
    betti_from_ranks,
    boundary_matrix,
    matrix_rank,
    matrix_to_triplets,
    shuffled_rank,
)
from .identities import (
    aigner_rhs,
    dixon_lhs,
    dixon_rhs,
    power_sum_lhs,
    threeF2_lhs,
    threeF2_rhs,
)
from .series import dump_series
from .shelling import _verify_order, betti_from_shelling

_PASS, _FAIL, _USAGE, _BUDGET, _IO = 0, 1, 2, 3, 4


def _alternating(values) -> int:
    return sum(v if i % 2 else -v for i, v in enumerate(values))


def _report(command: str, params: dict, constants: dict, results: dict, ok: bool):
    return {
        "command": command,
        "params": params,
        "constants": constants,
        "results": results,
        "pass": ok,
    }


# -- subcommand handlers -----------------------------------------------------
# each takes the parsed arguments and returns (report dict, extra) where extra
# may carry a raw text payload ("payload") or tabular rows ("rows") for the
# CSV renderer; report["pass"] decides the exit code.  Handlers touch no file:
# main renders and writes, so a command that fails writes nothing


def cmd_fvector(args: argparse.Namespace):
    params = make_complex(args.p, args.n)
    f = f_vector_formula(params)
    results = {
        "f_vector": list(f),
        "reduced_euler": reduced_euler_characteristic(f),
    }
    ok = True
    if args.enumerate_check:
        enumerated = f_vector_enumerated(params, args.face_budget)
        results["f_vector_enumerated"] = list(enumerated)
        ok = enumerated == f
        results["match"] = ok
    report = _report(
        "fvector",
        {"p": args.p, "n": args.n},
        {"face_budget": args.face_budget},
        results,
        ok,
    )
    rows = [{"dim": d - 1, "count": c} for d, c in enumerate(f)]
    return report, {"rows": rows}


def cmd_shelling(args: argparse.Namespace):
    params = make_complex(args.p, args.n)
    facets = enumerate_facets(params, args.face_budget)
    if args.order == "reversed":
        facets = list(reversed(facets))
    # a budgeted enumeration, reversed or not, lists every facet once
    rep = _verify_order(params, facets, args.witness_mode, args.witness_limit)
    ok = rep.is_shelling and not rep.disagreements
    limit = rep.witness_limit
    results = {
        "order": args.order,
        "mode": rep.mode,
        "facet_count": rep.facet_count,
        "total_pairs": rep.total_pairs,
        "constructed": rep.constructed,
        "fallback_count": len(rep.fallbacks),
        "fallbacks": [list(x) for x in rep.fallbacks[:limit]],
        "violation_count": len(rep.violations),
        "violations": [list(x) for x in rep.violations[:limit]],
        "disagreement_count": len(rep.disagreements),
        "disagreements": [list(x) for x in rep.disagreements[:limit]],
        "witnesses": {
            f"{i},{k}": [j, list(v)] for (i, k), (j, v) in rep.witnesses.items()
        },
        "witness_limit": limit,
        "is_shelling": rep.is_shelling,
    }
    report = _report(
        "shelling",
        {"p": args.p, "n": args.n},
        {"face_budget": args.face_budget},
        results,
        ok,
    )
    return report, {}


def cmd_betti(args: argparse.Namespace):
    if args.shuffle_check and args.method == "shelling":
        raise DomainError("--shuffle-check needs the matrix route (--method matrix or both)")
    params = make_complex(args.p, args.n)
    chi = reduced_euler_characteristic(f_vector_formula(params))
    results: dict = {"reduced_euler": chi, "method": args.method}
    ok = True
    from_shelling = from_matrix = None
    if args.method in ("both", "shelling"):
        from_shelling = betti_from_shelling(params)
        results["betti_from_shelling"] = list(from_shelling)
    if args.method in ("both", "matrix"):
        # each boundary matrix is built and ranked once; the shuffled rank is
        # its own elimination of the permuted matrix, compared to that rank
        ranks, stable = [], True
        for k in range(params.n):
            m = boundary_matrix(params, k, args.cell_budget)
            ranks.append(matrix_rank(m))
            if args.shuffle_check:
                stable = stable and shuffled_rank(m, args.seed) == ranks[-1]
            del m  # one matrix alive at a time
        from_matrix = betti_from_ranks(params, ranks)
        results["betti_from_matrix"] = list(from_matrix)
        if args.shuffle_check:
            results["shuffle_check"] = stable
            results["seed"] = args.seed
            ok = stable
    if args.method == "both":
        results["match"] = from_shelling == from_matrix
        ok = ok and results["match"]
    betti = from_matrix if from_matrix is not None else from_shelling
    results["alternating_betti_sum"] = _alternating(betti)
    results["euler_poincare"] = results["alternating_betti_sum"] == chi
    ok = ok and results["euler_poincare"]
    report = _report(
        "betti",
        {"p": args.p, "n": args.n},
        {"cell_budget": args.cell_budget},
        results,
        ok,
    )
    return report, {}


def cmd_identity(args: argparse.Namespace):
    rows = []
    if args.kind == "3f2":
        params = {"max": args.max_value}
        for n1, n2, n3 in itertools.product(range(args.max_value + 1), repeat=3):
            lhs, rhs = threeF2_lhs(n1, n2, n3), threeF2_rhs(n1, n2, n3)
            rows.append(
                {"n1": n1, "n2": n2, "n3": n3, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
            )
    else:
        params = {"n_max": args.n_max}
        for n in range(1, args.n_max + 1):
            if args.kind == "dixon":
                row = {"n": n, "lhs": dixon_lhs(n), "rhs": dixon_rhs(n)}
            else:
                row = {"n": n, "lhs": power_sum_lhs(n, 2), "rhs": aigner_rhs(n),
                       "linear_sum": power_sum_lhs(n, 1)}
            row["equal"] = row["lhs"] == row["rhs"] and row.get("linear_sum", 0) == 0
            rows.append(row)
    if not rows:
        raise DomainError(f"identity {args.kind} has no case to check: {params}")
    failures = [r for r in rows if not r["equal"]]
    results = {
        "kind": args.kind,
        "checked": len(rows),
        "failed": len(failures),
        "failures": failures[:50],
    }
    if args.kind in ("dixon", "aigner"):
        results["table"] = rows
    ok = not failures
    report = _report("identity", params, {}, results, ok)
    return report, {"rows": rows}


def cmd_genfun(args: argparse.Namespace):
    if args.check_alignment:
        if args.series is not None:
            raise DomainError("--check-alignment does not take a series name")
        rep = alignment_check(n_max=args.n_max)
        results = {
            "deltas": list(rep.deltas),
            "alternating_counts": {str(n): v for n, v in rep.alternating_counts.items()},
            "diagonal_by_delta": {
                str(d): {str(n): v for n, v in col.items()}
                for d, col in rep.diagonal_by_delta.items()
            },
            "matches": {str(d): m for d, m in rep.matches.items()},
            "pinned_delta": rep.pinned_delta,
            "end_to_end": {
                str(n): dict(vals) for n, vals in rep.end_to_end.items()
            },
            "end_to_end_ok": rep.end_to_end_ok,
        }
        ok = rep.pinned_delta is not None and rep.end_to_end_ok
        report = _report(
            "genfun", {"n_max": args.n_max}, {"deltas": list(rep.deltas)}, results, ok
        )
        return report, {}

    if args.series is None:
        raise DomainError("choose a series (P, XY, g) or pass --check-alignment")
    if args.series == "P":
        s = series_P(args.truncation)
    elif args.series == "XY":
        s = series_XY(args.truncation)
    else:
        s = series_g_r(args.r, args.truncation)
    results = {
        "series": args.series,
        "truncation": args.truncation,
        "terms": len(s.coeffs),
        "coefficients": {
            " ".join(str(x) for x in e): c for e, c in sorted(s.coeffs.items())
        },
    }
    if args.series == "g":
        results["r"] = args.r
    report = _report(
        "genfun", {"series": args.series}, {"truncation": args.truncation}, results, True
    )
    return report, {"payload": dump_series(s)}


def cmd_export(args: argparse.Namespace):
    params = make_complex(args.p, args.n)
    if args.what == "facets":
        facets = enumerate_facets(params, args.face_budget)
        payload = format_facets(params, facets)
        results: dict = {"what": "facets", "count": len(facets)}
    else:
        if args.k is None:
            raise DomainError("export matrix requires --k")
        m = boundary_matrix(params, args.k, args.cell_budget)
        payload = matrix_to_triplets(m)
        results = {
            "what": "matrix",
            "k": args.k,
            "rows": m.rows,
            "cols": m.cols,
            "entries": len(m.entries),
        }
    if args.output:
        # main writes the payload; the report records where and how much
        results["written"] = args.output
        results["bytes"] = len(payload.encode("utf-8"))
    else:
        results["content"] = payload
    report = _report(
        "export",
        {"p": args.p, "n": args.n},
        {"face_budget": args.face_budget, "cell_budget": args.cell_budget},
        results,
        True,
    )
    return report, {"payload": payload}


_COMMANDS = {
    "fvector": cmd_fvector,
    "shelling": cmd_shelling,
    "betti": cmd_betti,
    "identity": cmd_identity,
    "genfun": cmd_genfun,
    "export": cmd_export,
}


# -- rendering ----------------------------------------------------------------


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _render_text(report: dict, extra: dict) -> str:
    cmd = report["command"]
    res = report["results"]
    # a raw payload (series dump, facet list, triplets) is the text output,
    # unless export has written it to a file
    if "payload" in extra and "written" not in res:
        return extra["payload"]
    lines: list[str] = []
    if cmd == "fvector":
        lines.append(f"p={report['params']['p']} n={report['params']['n']}")
        lines.append("f-vector: " + " ".join(str(c) for c in res["f_vector"]))
        lines.append(f"reduced Euler characteristic: {res['reduced_euler']}")
        if "f_vector_enumerated" in res:
            lines.append(
                "enumerated: "
                + " ".join(str(c) for c in res["f_vector_enumerated"])
            )
            lines.append(f"match: {_yesno(res['match'])}")
    elif cmd == "shelling":
        lines.append(
            f"p={report['params']['p']} n={report['params']['n']} "
            f"order={res['order']} mode={res['mode']}"
        )
        lines.append(
            f"facets: {res['facet_count']}  pairs: {res['total_pairs']}  "
            f"constructed: {res['constructed']}  fallbacks: {res['fallback_count']}"
        )
        lines.append(
            f"violations: {res['violation_count']}  "
            f"disagreements: {res['disagreement_count']}"
        )
        lines.append(f"is shelling: {_yesno(res['is_shelling'])}")
    elif cmd == "betti":
        lines.append(f"p={report['params']['p']} n={report['params']['n']}")
        if "betti_from_shelling" in res:
            lines.append(
                "betti (shelling): "
                + " ".join(str(b) for b in res["betti_from_shelling"])
            )
        if "betti_from_matrix" in res:
            lines.append(
                "betti (matrix):   "
                + " ".join(str(b) for b in res["betti_from_matrix"])
            )
        if "match" in res:
            lines.append(f"match: {_yesno(res['match'])}")
        lines.append(
            f"alternating Betti sum: {res['alternating_betti_sum']}  "
            f"reduced Euler: {res['reduced_euler']}  "
            f"Euler-Poincare: {_yesno(res['euler_poincare'])}"
        )
        if "shuffle_check" in res:
            lines.append(
                f"shuffle check (seed {res['seed']}): {_yesno(res['shuffle_check'])}"
            )
    elif cmd == "identity":
        lines.append(f"identity {res['kind']}: checked {res['checked']}, failed {res['failed']}")
        for row in res.get("table", []):
            cells = "  ".join(f"{k}={v}" for k, v in row.items() if k != "equal")
            lines.append(f"{cells}  ok={_yesno(row['equal'])}")
    elif cmd == "genfun":
        lines.append(f"pinned offset delta: {res['pinned_delta']}")
        for d in res["matches"]:
            lines.append(f"delta={d}: matches={_yesno(res['matches'][d])}")
        for n in sorted(res["end_to_end"], key=int):
            vals = res["end_to_end"][n]
            shown = "  ".join(f"{k}={v}" for k, v in sorted(vals.items()))
            agree = len(set(vals.values())) == 1
            lines.append(f"n={n}: {shown}  ok={_yesno(agree)}")
        lines.append(f"end-to-end: {_yesno(res['end_to_end_ok'])}")
    elif cmd == "export":
        lines.append(f"wrote {res['bytes']} bytes to {res['written']}")
    lines.append("PASS" if report["pass"] else "FAIL")
    return "\n".join(lines) + "\n"


def _render_csv(report: dict, extra: dict) -> str:
    rows = extra.get("rows")
    if not rows:
        raise DomainError(f"csv output is not available for {report['command']}")
    header = list(rows[0])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(row[h]) for h in header))
    return "\n".join(lines) + "\n"


def _render(args: argparse.Namespace, report: dict, extra: dict) -> str:
    if args.fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.fmt == "csv":
        return _render_csv(report, extra)
    return _render_text(report, extra)


# -- argument parsing ---------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type for budgets: a budget below 1 admits no work at all."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text", "csv"), default="json", dest="fmt"
    )
    common.add_argument("--output", default=None, help="write the result to a file")

    parser = argparse.ArgumentParser(
        prog="gammashell",
        description="Verification pipelines for the chain complexes Gamma_p(n), "
        "their shellings, and the attached binomial identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the complex Gamma_p(n) that fvector, shelling, betti and export work on
    complex_args = argparse.ArgumentParser(add_help=False)
    complex_args.add_argument("--p", type=int, default=3)
    complex_args.add_argument("--n", type=int, required=True)
    on_complex = [common, complex_args]

    s = sub.add_parser("fvector", parents=on_complex, help="face counts and Euler characteristic")
    s.add_argument("--enumerate", action="store_true", dest="enumerate_check",
                   help="cross-check the formula against enumeration")
    s.add_argument("--face-budget", type=_positive_int, default=DEFAULT_FACE_BUDGET)

    s = sub.add_parser("shelling", parents=on_complex, help="pairwise shelling verification")
    s.add_argument("--order", choices=("canonical", "reversed"), default="canonical")
    s.add_argument("--witness-mode", choices=("constructive", "exhaustive", "both"),
                   default="constructive")
    s.add_argument("--witness-limit", type=int, default=100)
    s.add_argument("--face-budget", type=_positive_int, default=DEFAULT_FACE_BUDGET)

    s = sub.add_parser("betti", parents=on_complex, help="Betti numbers two ways")
    s.add_argument("--method", choices=("both", "shelling", "matrix"), default="both")
    s.add_argument("--cell-budget", type=_positive_int, default=DEFAULT_CELL_BUDGET)
    s.add_argument("--shuffle-check", action="store_true",
                   help="recompute ranks under a seeded face shuffle")
    s.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("identity", parents=[common], help="binomial identity tables")
    s.add_argument("kind", choices=("dixon", "3f2", "aigner"))
    s.add_argument("--n-max", type=int, default=40)
    s.add_argument("--max", type=int, default=8, dest="max_value",
                   help="per-argument bound for the 3f2 triple scan")

    s = sub.add_parser("genfun", parents=[common], help="generating series and alignment")
    s.add_argument("series", nargs="?", choices=("P", "XY", "g"))
    s.add_argument("--truncate", type=int, default=6, dest="truncation")
    s.add_argument("--r", type=int, default=1)
    s.add_argument("--check-alignment", action="store_true")
    s.add_argument("--n-max", type=int, default=6)

    s = sub.add_parser("export", parents=on_complex, help="facet lists and boundary matrices")
    s.add_argument("what", choices=("facets", "matrix"))
    s.add_argument("--k", type=int, default=None)
    s.add_argument("--face-budget", type=_positive_int, default=DEFAULT_FACE_BUDGET)
    s.add_argument("--cell-budget", type=_positive_int, default=DEFAULT_CELL_BUDGET)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, extra = _COMMANDS[args.command](args)
        rendered = _render(args, report, extra)
        # the one write site: export puts its payload in the file and prints
        # the report; every other command puts there what it would print
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(extra["payload"] if args.command == "export" else rendered)
        if args.command == "export" or not args.output:
            sys.stdout.write(rendered)
    except (DomainError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return _BUDGET
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _IO
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return _FAIL
    return _PASS if report["pass"] else _FAIL


if __name__ == "__main__":
    sys.exit(main())
