"""Command-line interface.

Subcommands: simulate (one revelation order), expect (exact expected
sizes), extremal (worst/best-case counts), series (EGF count table),
sample (Monte Carlo), verify (the cross-validation suite).

Exit codes: 0 success, 1 invalid input, 2 verification/consistency
failure, 3 resource-guard refusal.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from typing import TYPE_CHECKING

# The library modules are imported by the handlers that run them, so each
# command loads only what it uses.
from . import __version__

if TYPE_CHECKING:
    from fractions import Fraction

    from .extremal import ExtremalReport
    from .graphs import Graph

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2
EXIT_RESOURCE = 3
NORMALIZATION_MODES = ("none", "per_vertex", "centered")


def _rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_int_list(raw: str, what: str) -> list[int]:
    try:
        return [int(piece) for piece in raw.split(",") if piece.strip() != ""]
    except ValueError:
        raise ValueError(f"could not parse {what} from {raw!r}") from None


def _parse_edges(raw: str) -> list[tuple[int, int]]:
    edges = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            u, v = piece.split("-")
            edges.append((int(u), int(v)))
        except ValueError:
            raise ValueError(f"could not parse edge {piece!r}; expected 'u-v'") from None
    return edges


def _multipartite_size(raw: str) -> tuple[int, int]:
    parts = _parse_int_list(raw, "part sizes")
    return sum(parts), (sum(parts) ** 2 - sum(p * p for p in parts)) // 2


_FAMILIES = {  # family -> (the arguments it requires, (vertices, edges) and graph from them)
    "path": (("n",), lambda a: (a.n, a.n - 1), lambda g, a: g.path(a.n)),
    "cycle": (("n",), lambda a: (a.n, a.n), lambda g, a: g.cycle(a.n)),
    "star": (("leaves",), lambda a: (a.leaves + 1, a.leaves),
             lambda g, a: g.star(a.leaves)),
    "wheel": (("spokes",), lambda a: (a.spokes + 1, 2 * a.spokes),
              lambda g, a: g.wheel(a.spokes)),
    "multipartite": (("parts",), lambda a: _multipartite_size(a.parts),
                     lambda g, a: g.complete_multipartite(
                         _parse_int_list(a.parts, "part sizes"))),
    "explicit": (("n", "edges"), lambda a: (a.n, len(_parse_edges(a.edges))),
                 lambda g, a: g.explicit(a.n, _parse_edges(a.edges))),
}


def _require_family_args(args: argparse.Namespace) -> None:
    required = _FAMILIES[args.family][0]
    if any(getattr(args, name) in (None, "") for name in required):
        flags = " and ".join(f"--{name}" for name in required)
        raise ValueError(f"--family {args.family} requires {flags}")


def _graph_size(args: argparse.Namespace) -> tuple[int, int]:
    """Vertices and edges of the family's graph, from its arguments alone."""
    _require_family_args(args)
    return _FAMILIES[args.family][1](args)


def _graph_from_args(args: argparse.Namespace) -> Graph:
    """The family's graph, refused past GRAPH_SIZE_CAP before anything is built."""
    from . import graphs
    from .errors import GRAPH_SIZE_CAP, check_cap
    check_cap(sum(_graph_size(args)), GRAPH_SIZE_CAP, args.force,
              f"{args.family} graph construction", measure="vertices + edges")
    return _FAMILIES[args.family][2](graphs, args)


def _add_family_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family",
        choices=tuple(_FAMILIES),
        default="path",
    )
    parser.add_argument("--n", type=int, help="vertex count (path/cycle/explicit)")
    parser.add_argument("--leaves", type=int, help="star leaf count")
    parser.add_argument("--spokes", type=int, help="wheel spoke count")
    parser.add_argument("--parts", help="comma-separated multipartite part sizes")
    parser.add_argument("--edges", help="explicit edge list, e.g. 1-2,2-3")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathdom",
        description="Online domination of paths: simulation, exact expectations, "
        "extremal counts, generating functions, Monte Carlo sampling.",
    )
    parser.add_argument(
        "--version", action="version", version=f"pathdom {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "json"), default="text")
    common.add_argument("--output", metavar="PATH", help="write to PATH, not stdout")
    common.add_argument(
        "--verbose", action="store_true", help="timing diagnostics on stderr"
    )

    p = sub.add_parser("simulate", parents=[common], help="run one revelation order")
    _add_family_args(p)
    p.add_argument("--order", required=True, help="revelation order, e.g. 2,1,3")
    p.add_argument("--force", action="store_true", help="override the graph-size cap")

    p = sub.add_parser("expect", parents=[common], help="exact expected set size")
    _add_family_args(p)
    p.add_argument(
        "--method",
        choices=("recurrence", "closed-form", "brute"),
        help="path route (default: recurrence), or 'brute' to average over all "
        "orders of any family",
    )
    p.add_argument(
        "--as-printed",
        action="store_true",
        help="wheel only: evaluate the uncorrected closed form",
    )
    p.add_argument(
        "--caro-wei",
        action="store_true",
        help="emit the degree-based lower bound for the graph instead",
    )
    p.add_argument("--float", dest="as_float", action="store_true")
    p.add_argument(
        "--force", action="store_true",
        help="override the brute, path-size and graph-size caps",
    )

    p = sub.add_parser("extremal", parents=[common], help="count extremal orders")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", choices=("worst", "best"), required=True)
    p.add_argument(
        "--method",
        choices=("brute", "recurrence", "egf", "formula", "all"),
        default="brute",
    )
    p.add_argument("--witnesses", type=int, default=0, metavar="K",
                   help="include up to K witness orders (--method brute or all)")
    p.add_argument(
        "--force", action="store_true", help="override the brute and count caps"
    )

    p = sub.add_parser("series", parents=[common], help="EGF count table")
    p.add_argument("--order", type=int)  # None: series.DEFAULT_ORDER
    p.add_argument("--force", action="store_true", help="override the order cap")

    p = sub.add_parser("sample", parents=[common], help="Monte Carlo sampling")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--normalization",
        choices=NORMALIZATION_MODES,
        default="none",
    )
    p.add_argument(
        "--force", action="store_true", help="override the sampling budget"
    )
    p.add_argument(
        "--plot-data",
        action="store_true",
        help="two-column 'x weight' output, gnuplot-friendly",
    )

    p = sub.add_parser("verify", parents=[common], help="cross-validation suite")
    p.add_argument("--depth", choices=("quick", "full"), default="quick")

    return parser


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .domination import check_permutation, run_online_domination
    order = _parse_int_list(args.order, "revelation order")
    check_permutation(order, _graph_size(args)[0])  # before the graph is built
    graph = _graph_from_args(args)
    outcome = run_online_domination(graph, order)
    if args.format == "json":
        doc = {
            "family": graph.family,
            "n": graph.n,
            "order": order,
            "chosen": list(outcome.chosen),
            "gamma": outcome.size,
        }
        _write(json.dumps(doc, indent=2) + "\n", args.output)
    elif args.format == "csv":
        rows = ["position,vertex,added"]
        added = set(outcome.chosen)
        rows += [f"{i},{v},{int(v in added)}" for i, v in enumerate(order, start=1)]
        _write("\n".join(rows) + "\n", args.output)
    else:
        chosen = ",".join(str(v) for v in outcome.chosen)
        _write(f"gamma: {outcome.size}\nchosen: {chosen}\n", args.output)
    return EXIT_OK


def _expect_value(args: argparse.Namespace) -> tuple[str, Fraction]:
    from . import expectation
    if args.as_printed and (args.family != "wheel" or args.method == "brute"
                            or args.caro_wei):
        raise ValueError("--as-printed applies to the wheel formula only")
    if args.caro_wei and args.method is not None:
        raise ValueError("--caro-wei takes no --method: it bounds the graph instead")
    if args.caro_wei:
        return "caro_wei", expectation.caro_wei_bound(_graph_from_args(args))
    if args.method == "brute":
        graph = _graph_from_args(args)
        return "brute", expectation.bruteforce_expected_gamma(graph, force=args.force)
    family = args.family
    if family == "explicit":
        raise ValueError("expect supports explicit graphs only with --method brute")
    if family != "path" and args.method is not None:
        raise ValueError("--method recurrence and closed-form apply to --family path only")
    _require_family_args(args)
    if family == "path":
        if args.n < 1:
            raise ValueError("a path needs at least 1 vertex")
        if args.method == "closed-form":
            return "closed-form", expectation.expected_gamma_path_closed_form(
                args.n, force=args.force
            )
        return "recurrence", expectation.expected_gamma_path(args.n, force=args.force)
    if family == "cycle":
        return "formula", expectation.expected_gamma_cycle(args.n, force=args.force)
    if family == "star":
        return "formula", expectation.expected_gamma_star(args.leaves)
    if family == "wheel":
        label = "formula-as-printed" if args.as_printed else "formula"
        return label, expectation.expected_gamma_wheel(
            args.spokes, as_printed=args.as_printed, force=args.force
        )
    sizes = _parse_int_list(args.parts, "part sizes")
    return "formula", expectation.expected_gamma_complete_multipartite(sizes)


def _cmd_expect(args: argparse.Namespace) -> int:
    method, value = _expect_value(args)
    if args.format == "json":
        doc = {
            "family": args.family,
            "method": method,
            "value": _rational(value),
            "float": float(value),
        }
        _write(json.dumps(doc, indent=2) + "\n", args.output)
    elif args.format == "csv":
        _write(
            "family,method,value\n"
            f"{args.family},{method},{_rational(value)}\n",
            args.output,
        )
    else:
        _write(f"{float(value)}\n" if args.as_float else f"{value}\n", args.output)
    return EXIT_OK


def _extremal_reports(args: argparse.Namespace) -> list[ExtremalReport]:
    from . import extremal
    n, kind, force = args.n, args.bound, args.force
    if args.witnesses < 0:
        raise ValueError("--witnesses must be nonnegative")
    size = extremal.extremal_size(n, kind)
    if args.witnesses and args.method not in ("brute", "all"):
        raise ValueError("--witnesses applies to --method brute or all only")
    if args.witnesses and args.format == "csv":
        raise ValueError("--witnesses has no csv column: use --format text or json")

    def brute():
        census = extremal.path_census(n, force=force)
        witnesses = extremal.extremal_permutations(n, kind, args.witnesses, force=force)
        return census.size_counts[size], witnesses

    def egf():
        from . import series
        return series.worst_case_counts_egf(n, force=force)[n], ()

    routes = {  # method -> (label, bounds it counts, applies at n, (count, witnesses))
        "brute": ("brute_force", ("worst", "best"), True, brute),
        "recurrence": ("recurrence", ("worst",), True, lambda: (
            extremal.worst_case_count_recurrence(n, force=force), ())),
        "egf": ("egf", ("worst",), True, egf),
        "formula": ("formula", ("best",), extremal.best_case_formula_applicable(n),
                    lambda: (extremal.best_case_count_formula(n, force=force), ())),
    }
    if args.method == "all":
        methods = [m for m, (_, bounds, applies, _) in routes.items()
                   if kind in bounds and applies]
    else:
        methods = [args.method]
    reports = []
    for method in methods:
        label, bounds, _, route = routes[method]
        if kind not in bounds:
            raise ValueError(f"--method {method} applies to --bound {bounds[0]} only")
        count, witnesses = route()
        reports.append(extremal.ExtremalReport(
            n=n, bound_kind=kind, extremal_size=size, count=count, method=label,
            witnesses=tuple(witnesses),
        ))
    return reports


def _cmd_extremal(args: argparse.Namespace) -> int:
    reports = _extremal_reports(args)
    if args.format == "json":
        docs = [r.to_json_dict() for r in reports]
        _write(json.dumps(docs[0] if len(docs) == 1 else docs, indent=2) + "\n",
               args.output)
    elif args.format == "csv":
        rows = ["n,bound_kind,extremal_size,count,method"]
        rows += [
            f"{r.n},{r.bound_kind},{r.extremal_size},{r.count},{r.method}"
            for r in reports
        ]
        _write("\n".join(rows) + "\n", args.output)
    else:
        lines = [
            f"{r.method}: {r.count} orders of length {r.n} hit the {r.bound_kind}-case "
            f"size {r.extremal_size}"
            for r in reports
        ]
        for r in reports:
            for witness in r.witnesses:
                lines.append("  witness " + ",".join(str(v) for v in witness))
        _write("\n".join(lines) + "\n", args.output)
    counts = {r.count for r in reports}
    if len(counts) > 1:
        by_method = {r.method: r.count for r in reports}
        print(f"error: methods disagree at n={args.n}: {by_method}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _cmd_series(args: argparse.Namespace) -> int:
    from . import series
    order = series.DEFAULT_ORDER if args.order is None else args.order
    if order < 0:
        raise ValueError("--order must be nonnegative")
    odd_config = series.odd_configuration_counts_egf(order, force=args.force)
    worst = series.worst_case_counts_egf(order, force=args.force)
    if args.format == "json":
        docs = [
            {"n": n, "odd_config": str(d), "worst_case": str(f)}
            for n, (d, f) in enumerate(zip(odd_config, worst))
        ]
        _write(json.dumps(docs, indent=2) + "\n", args.output)
    else:
        rows = ["n,odd_config,worst_case"]
        rows += [f"{n},{d},{f}" for n, (d, f) in enumerate(zip(odd_config, worst))]
        _write("\n".join(rows) + "\n", args.output)
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    from . import montecarlo
    if args.normalization != "none" and not args.plot_data and args.format != "json":
        raise ValueError("--normalization needs --plot-data or --format json")
    config = montecarlo.SampleConfig(
        n=args.n,
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
        force=args.force,
    )
    hist = montecarlo.sample_gamma(config)
    meta = hist.to_json_dict()
    if args.format == "json":
        doc = dict(meta)
        doc["bins"] = {str(size): count for size, count in hist.bins.items()}
        if args.normalization != "none":
            doc["normalized"] = [
                [x, w] for x, w in montecarlo.normalize(hist, args.normalization)
            ]
        _write(json.dumps(doc, indent=2) + "\n", args.output)
        return EXIT_OK
    if args.plot_data:
        if args.normalization == "none":
            body = "\n".join(f"{size} {count}" for size, count in hist.bins.items())
        else:
            points = montecarlo.normalize(hist, args.normalization)
            body = "\n".join(f"{x:.10g} {w:.10g}" for x, w in points)
    else:
        body = "gamma,count\n" + "\n".join(
            f"{size},{count}" for size, count in hist.bins.items()
        )
    _write(body + "\n", args.output)
    sidecar = json.dumps(meta, indent=2) + "\n"
    if args.output:
        with open(args.output + ".json", "w", encoding="utf-8") as handle:
            handle.write(sidecar)
    else:
        sys.stderr.write(sidecar)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verification
    results = verification.run_verification(depth=args.depth)
    if args.format == "json":
        docs = [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ]
        _write(json.dumps(docs, indent=2) + "\n", args.output)
    elif args.format == "csv":
        import csv  # only here, so the other commands import no more

        table = io.StringIO()
        writer = csv.writer(table, lineterminator="\n")
        writer.writerow(["name", "passed", "detail"])
        writer.writerows([r.name, int(r.passed), r.detail] for r in results)
        _write(table.getvalue(), args.output)
    else:
        _write("".join(r.line() + "\n" for r in results), args.output)
    failures = [r for r in results if not r.passed]
    if failures:
        print(f"first divergence: {failures[0].detail}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


_HANDLERS = {
    "simulate": _cmd_simulate,
    "expect": _cmd_expect,
    "extremal": _cmd_extremal,
    "series": _cmd_series,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help/--version
        code = exc.code if isinstance(exc.code, int) else EXIT_INVALID
        return EXIT_OK if code == 0 else EXIT_INVALID
    from .errors import ConsistencyError, ResourceLimitError
    # Exact results run past the interpreter's int-to-string limit (4300
    # digits by default, where the interpreter has one), e.g. the expected
    # size at n = 4000; lift it while the command runs.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        started = time.perf_counter()
        code = _HANDLERS[args.command](args)
        if getattr(args, "verbose", False):
            print(
                f"{args.command} finished in {time.perf_counter() - started:.2f}s",
                file=sys.stderr,
            )
        return code
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # last resort: no traceback leaves the CLI
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def entry() -> None:
    raise SystemExit(main())
