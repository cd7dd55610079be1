"""Command-line front end for the verification pipelines.

Reports are deterministic: JSON (sorted keys, no timestamps) by default,
plain text with --format text, CSV for the tabular commands.  Exit codes:
0 pass, 1 verification failure, 2 usage error, 3 budget exceeded, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import lgamma, log

from .complexes import DEFAULT_CELL_BUDGET, DEFAULT_FACE_BUDGET
from .errors import BudgetError, DomainError, PreconditionError, VerificationError, _check_budget

__all__ = ["build_parser", "main"]

_PASS, _FAIL, _USAGE, _BUDGET, _IO = 0, 1, 2, 3, 4

# series box cells, (T+1)^3 and r times that for g_r: XY at T = 35 and g_4
# at T = 22 fit, each in about 2-3 s
DEFAULT_SERIES_BUDGET = 50_000
# binomial terms summed: identity dixon and aigner fit up to n = 630, 3f2 up
# to --max 57, each in under 3 s
DEFAULT_TERM_BUDGET = 200_000


def _plain(value):
    """A record field as JSON values: string keys, tuple keys joined by commas.

    Keys become strings before json.dumps sorts them, so "10" sorts before
    "2"; tuples become lists.
    """
    if isinstance(value, dict):
        return {
            ",".join(map(str, k)) if isinstance(k, tuple) else str(k): _plain(v)
            for k, v in value.items()
        }
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _report(command: str, params: dict, constants: dict, results: dict, ok: bool):
    return {
        "command": command,
        "params": params,
        "constants": constants,
        "results": results,
        "pass": ok,
    }


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _joined(values) -> str:
    return " ".join(map(str, values))


# -- subcommand handlers -----------------------------------------------------
# each takes the parsed arguments and returns (report dict, extra) where extra
# carries the text summary's lines ("lines", PASS or FAIL follows them), a raw
# text payload ("payload") or tabular rows ("rows") for the CSV renderer;
# report["pass"] decides the exit code.  Handlers touch no file:
# main renders and writes, so a command that fails writes nothing.  Each one
# imports what it runs, so a command loads only the modules it uses


def cmd_fvector(args: argparse.Namespace):
    from .complexes import (
        ComplexParams,
        f_vector_enumerated,
        f_vector_formula,
        reduced_euler_characteristic,
    )

    params = ComplexParams(args.p, args.n)
    # the largest count, C(n, n//2)^p, bounds every entry and the reduced
    # Euler characteristic (an alternating sum of unimodal counts); refuse a
    # report whose ints Python would not print, before computing any.  The
    # log is rounded up by a hair: C(5, 2)^p = 10^p has p + 1 digits
    limit = sys.get_int_max_str_digits()
    if limit:
        m = args.n // 2
        log_max = args.p * (lgamma(args.n + 1) - lgamma(m + 1) - lgamma(args.n - m + 1))
        digits = int(log_max / log(10) * (1 + 1e-12)) + 1
        _check_budget(digits, limit, "digits in the largest face count")
    f = f_vector_formula(params)
    chi = reduced_euler_characteristic(f)
    results = {"f_vector": list(f), "reduced_euler": chi}
    lines = [f"p={args.p} n={args.n}", f"f-vector: {_joined(f)}",
             f"reduced Euler characteristic: {chi}"]
    ok = True
    if args.enumerate_check:
        enumerated = f_vector_enumerated(params, args.face_budget)
        results["f_vector_enumerated"] = list(enumerated)
        ok = enumerated == f
        results["match"] = ok
        lines += [f"enumerated: {_joined(enumerated)}", f"match: {_yesno(ok)}"]
    report = _report(
        "fvector",
        {"p": args.p, "n": args.n},
        {"face_budget": args.face_budget},
        results,
        ok,
    )
    rows = [{"dim": d - 1, "count": c} for d, c in enumerate(f)]
    return report, {"lines": lines, "rows": rows}


def cmd_shelling(args: argparse.Namespace):
    from .complexes import ComplexParams
    from .facets import enumerate_facets
    from .shelling import _verify_order

    if args.witness_limit < 0:
        raise DomainError(f"--witness-limit must be at least 0, got {args.witness_limit}")
    params = ComplexParams(args.p, args.n)
    facets = enumerate_facets(params, args.face_budget)
    if args.order == "reversed":
        facets = list(reversed(facets))
    # a budgeted enumeration, reversed or not, lists every facet once
    rep = _verify_order(params, facets, args.witness_mode, args.witness_limit)
    ok = rep.is_shelling and not rep.disagreement_count
    results = _plain(vars(rep))
    del results["p"], results["n"]
    results.update(order=args.order, is_shelling=rep.is_shelling)
    report = _report(
        "shelling",
        {"p": args.p, "n": args.n},
        {"face_budget": args.face_budget},
        results,
        ok,
    )
    lines = [
        f"p={args.p} n={args.n} order={args.order} mode={rep.mode}",
        f"facets: {rep.facet_count}  pairs: {rep.total_pairs}  "
        f"constructed: {rep.constructed}  fallbacks: {rep.fallback_count}",
        f"violations: {rep.violation_count}  disagreements: {rep.disagreement_count}",
        f"is shelling: {_yesno(rep.is_shelling)}",
    ]
    return report, {"lines": lines}


def cmd_betti(args: argparse.Namespace):
    from .complexes import ComplexParams, _alternating, f_vector_formula
    from .complexes import reduced_euler_characteristic
    from .homology import betti_from_ranks, chain_ranks
    from .shelling import betti_from_shelling

    if args.shuffle_check and args.method == "shelling":
        raise DomainError("--shuffle-check needs the matrix route (--method matrix or both)")
    if args.seed is not None and not args.shuffle_check:
        raise DomainError("--seed needs --shuffle-check")
    params = ComplexParams(args.p, args.n)
    chi = reduced_euler_characteristic(f_vector_formula(params))
    results: dict = {"reduced_euler": chi, "method": args.method}
    lines = [f"p={args.p} n={args.n}"]
    ok = True
    from_shelling = from_matrix = None
    if args.method in ("both", "matrix"):
        # this route runs first and its chain checks the cell budget before
        # assembling a matrix, so an over-budget matrix stops both routes
        # unstarted.  Each boundary matrix of the relative chain is built
        # once, listing no face; the shuffled chain is its own elimination
        # of the permuted matrices, compared to the ranks
        seed = (args.seed or 0) if args.shuffle_check else None
        faces, ranks, shuffled = chain_ranks(params, args.cell_budget, seed)
        from_matrix = betti_from_ranks(faces, ranks)
        results["betti_from_matrix"] = list(from_matrix)
        if args.shuffle_check:
            results["shuffle_check"] = ok = shuffled == ranks
            results["seed"] = seed
    if args.method in ("both", "shelling"):
        from_shelling = betti_from_shelling(params)
        results["betti_from_shelling"] = list(from_shelling)
        lines.append(f"betti (shelling): {_joined(from_shelling)}")
    if from_matrix is not None:
        lines.append(f"betti (matrix):   {_joined(from_matrix)}")
    if args.method == "both":
        results["match"] = from_shelling == from_matrix
        ok = ok and results["match"]
        lines.append(f"match: {_yesno(results['match'])}")
    alternating = _alternating(from_matrix if from_matrix is not None else from_shelling)
    results["alternating_betti_sum"] = alternating
    results["euler_poincare"] = alternating == chi
    ok = ok and results["euler_poincare"]
    lines.append(f"alternating Betti sum: {alternating}  reduced Euler: {chi}  "
                 f"Euler-Poincare: {_yesno(results['euler_poincare'])}")
    if args.shuffle_check:
        lines.append(f"shuffle check (seed {seed}): {_yesno(results['shuffle_check'])}")
    report = _report(
        "betti",
        {"p": args.p, "n": args.n},
        {"cell_budget": args.cell_budget},
        results,
        ok,
    )
    return report, {"lines": lines}


def cmd_identity(args: argparse.Namespace):
    import itertools

    from .identities import (
        aigner_rhs,
        dixon_lhs,
        dixon_rhs,
        power_sum_lhs,
        threeF2_lhs,
        threeF2_rhs,
    )

    # refuse before summing: the table sums n + 1 terms at each n, the 3f2
    # scan counts its triples
    if args.kind == "3f2":
        params = {"max": args.max_value}
        terms = max(args.max_value + 1, 0) ** 3
    else:
        params = {"n_max": args.n_max}
        terms = max(args.n_max, 0) * (args.n_max + 3) // 2
    _check_budget(terms, args.term_budget, "binomial terms")
    rows = []
    if args.kind == "3f2":
        for n1, n2, n3 in itertools.product(range(args.max_value + 1), repeat=3):
            lhs, rhs = threeF2_lhs(n1, n2, n3), threeF2_rhs(n1, n2, n3)
            rows.append(
                {"n1": n1, "n2": n2, "n3": n3, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
            )
    else:
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
    lines = [f"identity {args.kind}: checked {len(rows)}, failed {len(failures)}"]
    if args.kind in ("dixon", "aigner"):
        results["table"] = rows
        for row in rows:
            cells = "  ".join(f"{k}={v}" for k, v in row.items() if k != "equal")
            lines.append(f"{cells}  ok={_yesno(row['equal'])}")
    ok = not failures
    report = _report("identity", params, {"term_budget": args.term_budget}, results, ok)
    return report, {"lines": lines, "rows": rows}


def cmd_genfun(args: argparse.Namespace):
    from .genfun import DELTAS, alignment_check, series_g_r, series_P, series_XY
    from .series import dump_series

    if args.check_alignment:
        if args.series is not None:
            raise DomainError("--check-alignment does not take a series name")
        # the largest offset puts XY's box at T = n_max + max(DELTAS)
        box = max(args.n_max + max(DELTAS) + 1, 0) ** 3
        _check_budget(box, args.series_budget, "series box cells")
        rep = alignment_check(n_max=args.n_max)
        results = _plain(vars(rep))
        del results["n_max"]
        ok = rep.pinned_delta is not None and rep.end_to_end_ok
        report = _report(
            "genfun", {"n_max": args.n_max}, {"deltas": list(rep.deltas)}, results, ok
        )
        counts = _joined(rep.alternating_counts[n] for n in range(2, args.n_max + 1))
        lines = [f"pinned offset delta: {rep.pinned_delta}",
                 f"signed counts (n=2..{args.n_max}): {counts}"]
        for d, column in rep.diagonal_by_delta.items():
            # a column holds n = 2..n_max in order, like the counts line
            lines.append(f"delta={d}: diagonal {_joined(column.values())}  "
                         f"matches={_yesno(rep.matches[d])}")
        for n, vals in sorted(rep.end_to_end.items()):
            shown = "  ".join(f"{k}={v}" for k, v in sorted(vals.items()))
            lines.append(f"n={n}: {shown}  ok={_yesno(len(set(vals.values())) == 1)}")
        lines.append(f"end-to-end: {_yesno(rep.end_to_end_ok)}")
        return report, {"lines": lines}

    if args.series is None:
        raise DomainError("choose a series (P, XY, g) or pass --check-alignment")
    cells = max(args.truncation + 1, 0) ** 3 * (args.r if args.series == "g" else 1)
    _check_budget(cells, args.series_budget, "series box cells")
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
    constants = {"truncation": args.truncation, "series_budget": args.series_budget}
    report = _report("genfun", {"series": args.series}, constants, results, True)
    return report, {"payload": dump_series(s)}


def cmd_export(args: argparse.Namespace):
    from .complexes import ComplexParams

    params = ComplexParams(args.p, args.n)
    if args.what == "facets":
        from .facets import enumerate_facets, format_facets

        facets = enumerate_facets(params, args.face_budget)
        payload = format_facets(params, facets)
        results: dict = {"what": "facets", "count": len(facets)}
    else:
        if args.k is None:
            raise DomainError("export matrix requires --k")
        from .complexes import f_vector_formula
        from .homology import boundary_matrix, matrix_to_triplets

        # price d_k's two face lists before boundary_matrix lists them; it
        # refuses a k outside [0, n-1] itself
        if 0 <= args.k < args.n:
            f = f_vector_formula(params)
            _check_budget(f[args.k] + f[args.k + 1], args.face_budget,
                          f"faces of dimensions {args.k - 1} and {args.k}")
        m = boundary_matrix(params, args.k, args.cell_budget)
        payload = matrix_to_triplets(m)
        results = {
            "what": "matrix",
            "k": args.k,
            "rows": m.rows,
            "cols": m.cols,
            "entries": sum(map(len, m.by_row)),
        }
    extra = {"payload": payload}
    if args.output:
        # main writes the payload; the report records where and how much
        results["written"] = args.output
        results["bytes"] = len(payload.encode("utf-8"))
        extra["lines"] = [f"wrote {results['bytes']} bytes to {args.output}"]
    else:
        results["content"] = payload
    report = _report(
        "export",
        {"p": args.p, "n": args.n},
        {"face_budget": args.face_budget, "cell_budget": args.cell_budget},
        results,
        True,
    )
    return report, extra


_COMMANDS = {
    "fvector": cmd_fvector,
    "shelling": cmd_shelling,
    "betti": cmd_betti,
    "identity": cmd_identity,
    "genfun": cmd_genfun,
    "export": cmd_export,
}


# -- rendering ----------------------------------------------------------------


def _render_text(report: dict, extra: dict) -> str:
    # a raw payload (series dump, facet list, triplets) is the text output,
    # unless export has written it to a file and left a line saying so
    if "lines" not in extra:
        return extra["payload"]
    return "\n".join([*extra["lines"], "PASS" if report["pass"] else "FAIL"]) + "\n"


def _render_csv(extra: dict) -> str:
    rows = extra["rows"]
    header = list(rows[0])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(row[h]) for h in header))
    return "\n".join(lines) + "\n"


def _render(args: argparse.Namespace, report: dict, extra: dict) -> str:
    if args.fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.fmt == "csv":
        return _render_csv(extra)
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
    # csv is offered only to the tabular commands, fvector and identity, so
    # the parser refuses it for the others before any work
    common, tabular = (argparse.ArgumentParser(add_help=False) for _ in range(2))
    for args, formats in ((common, ("json", "text")), (tabular, ("json", "text", "csv"))):
        args.add_argument("--format", choices=formats, default="json", dest="fmt")
        args.add_argument("--output", default=None, help="write the result to a file")

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

    s = sub.add_parser("fvector", parents=[tabular, complex_args],
                       help="face counts and Euler characteristic")
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
    s.add_argument("--seed", type=int, default=None, help="seed of --shuffle-check (default 0)")

    s = sub.add_parser("identity", parents=[tabular], help="binomial identity tables")
    s.add_argument("kind", choices=("dixon", "3f2", "aigner"))
    s.add_argument("--n-max", type=int, default=40)
    s.add_argument("--max", type=int, default=8, dest="max_value",
                   help="per-argument bound for the 3f2 triple scan")
    s.add_argument("--term-budget", type=_positive_int, default=DEFAULT_TERM_BUDGET,
                   help="binomial terms: sum of n+1 over the table, (max+1)^3 for 3f2")

    s = sub.add_parser("genfun", parents=[common], help="generating series and alignment")
    s.add_argument("series", nargs="?", choices=("P", "XY", "g"))
    s.add_argument("--truncate", type=int, default=6, dest="truncation")
    s.add_argument("--r", type=int, default=1)
    s.add_argument("--check-alignment", action="store_true")
    s.add_argument("--n-max", type=int, default=6)
    s.add_argument("--series-budget", type=_positive_int, default=DEFAULT_SERIES_BUDGET,
                   help="box cells (T+1)^3 of P and XY, r times that for g, "
                   "(n-max + max(genfun.DELTAS) + 1)^3 for --check-alignment")

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
