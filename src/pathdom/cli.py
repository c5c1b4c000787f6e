"""Command-line interface.

Subcommands: simulate (one revelation order), expect (exact expected
sizes), extremal (worst/best-case counts), series (EGF count table),
sample (Monte Carlo), verify (the cross-validation suite).  A family's
flags are read once, an explicit edge list parsed once, and a size too
small for the family is refused with its graphs builder's message on every
route.  Every command writes its result through _emit.

Exit codes: 0 success, 1 invalid input, 2 verification/consistency
failure, 3 resource-guard refusal.  A failed write or flush of the output
also exits 1, with an `error:` line.  The console script
and `python -m pathdom` run `entry`, which flushes both streams once `main`
returns and ends the process with `os._exit`.  That skips the
interpreter's teardown, which frees every module and object one by one
where the exit releases them all at once.  `entry` also blocks OpenSSL's
`_hashlib` before `main` runs, unless it is already loaded: numpy.random
imports it through `secrets` and `hmac` (about 3.4 MB of RSS) though no
command hashes anything, and the standard library falls back to its
built-in digests and `_operator._compare_digest`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import time
from typing import TYPE_CHECKING

# The library modules are imported by the handlers that run them, so each
# command loads only what it uses.
from . import __version__

if TYPE_CHECKING:
    from fractions import Fraction

    from .graphs import Graph

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2
EXIT_RESOURCE = 3
NORMALIZATION_MODES = ("none", "per_vertex", "centered")


def _json(doc: object) -> str:
    import json  # here, so output in text or csv loads no json

    return json.dumps(doc, indent=2) + "\n"


def _write(text: str, output: str | None, stream=None) -> None:
    """Write text to the file output, or else to stream (None: stdout)."""
    if output:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        (stream or sys.stdout).write(text)


def _emit(args: argparse.Namespace, doc: object, rows: list, text: str | None) -> None:
    """Write doc as json, rows as csv or text (None: the csv table), per
    --format, to --output or stdout: one renderer for every command."""
    if args.format == "json":
        text = _json(doc)
    elif args.format == "csv" or text is None:
        import csv  # here, so output in text or json loads no csv

        table = io.StringIO()
        csv.writer(table, lineterminator="\n").writerows(rows)
        text = table.getvalue()
    _write(text, args.output)


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


_FAMILIES = {  # family -> the arguments it requires, the first the graph's size
    "path": ("n",),
    "cycle": ("n",),
    "star": ("leaves",),
    "wheel": ("spokes",),
    "multipartite": ("parts",),
    "explicit": ("n", "edges"),
}


def _family_size(args: argparse.Namespace) -> tuple[str, object]:
    """The family's graphs builder name and its size, once the family's
    arguments are all given: the part sizes of a multipartite graph, --n and
    the edge list of an explicit one, parsed once --n has passed its size
    check, and the one size flag of the others."""
    required = _FAMILIES[args.family]
    if any(getattr(args, name) is None for name in required):
        flags = " and ".join(f"--{name}" for name in required)
        raise ValueError(f"--family {args.family} requires {flags}")
    if args.family == "multipartite":
        return "complete_multipartite", _parse_int_list(args.parts, "part sizes")
    if args.family == "explicit":
        from .graphs import check_size
        check_size("explicit", args.n)
        return "explicit", (args.n, _parse_edges(args.edges))
    return args.family, getattr(args, required[0])


def _graph_size(name: str, size) -> tuple[int, int]:
    """Vertices and edges of the family's graph, from its degree classes, or
    an explicit graph's --n and edge list, before anything is built."""
    if name == "explicit":
        return size[0], len(size[1])
    from .graphs import degree_counts
    counts = degree_counts(name, size)
    return sum(counts.values()), sum(d * c for d, c in counts.items()) // 2


def _check_graph_size(args: argparse.Namespace, name: str, size) -> None:
    """Refuse the family's graph past GRAPH_SIZE_CAP before anything is built."""
    from .errors import GRAPH_SIZE_CAP, check_cap
    check_cap(sum(_graph_size(name, size)), GRAPH_SIZE_CAP, args.force,
              f"{args.family} graph construction", measure="vertices + edges")


def _graph(args: argparse.Namespace, name: str, size) -> Graph:
    """The family's graph, refused past GRAPH_SIZE_CAP before anything is built."""
    from . import graphs
    _check_graph_size(args, name, size)
    return graphs.explicit(*size) if name == "explicit" else getattr(graphs, name)(size)


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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose messages, --help and --version among them,
    raise the OSError of a failed write, which argparse's own swallows."""

    def _print_message(self, message: str, file=None) -> None:
        if message:
            (file or sys.stderr).write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    name, size = _family_size(args)
    check_permutation(order, _graph_size(name, size)[0])  # before the graph is built
    graph = _graph(args, name, size)
    outcome = run_online_domination(graph, order)
    added = set(outcome.chosen)
    doc = {"family": args.family, "n": graph.n, "order": order,
           "chosen": list(outcome.chosen), "gamma": outcome.size}
    rows = [("position", "vertex", "added")]
    rows += [(i, v, int(v in added)) for i, v in enumerate(order, start=1)]
    chosen = ",".join(str(v) for v in outcome.chosen)
    _emit(args, doc, rows, f"gamma: {outcome.size}\nchosen: {chosen}\n")
    return EXIT_OK


def _expect_value(args: argparse.Namespace) -> tuple[str, Fraction]:
    from . import expectation
    if args.as_float and args.format == "csv":
        raise ValueError("--float has no csv column: use --format text or json")
    if args.as_printed and (args.family != "wheel" or args.method == "brute"
                            or args.caro_wei):
        raise ValueError("--as-printed applies to the wheel formula only")
    if args.caro_wei and args.method is not None:
        raise ValueError("--caro-wei takes no --method: it bounds the graph instead")
    if args.caro_wei:
        name, size = _family_size(args)
        if name == "explicit":  # counting its degrees walks the edge list: the cap holds
            _check_graph_size(args, name, size)
        from .graphs import degree_counts
        return "caro_wei", expectation.caro_wei_bound_from_degrees(
            degree_counts(name, size))
    if args.method == "brute":
        graph = _graph(args, *_family_size(args))
        return "brute", expectation.bruteforce_expected_gamma(graph, force=args.force)
    if args.family == "explicit":
        raise ValueError("expect supports explicit graphs only with --method brute")
    if args.family != "path" and args.method is not None:
        raise ValueError("--method recurrence and closed-form apply to --family path only")
    name, size = _family_size(args)
    if name == "path":
        if size < 1:  # the builder's refusal, from graphs only when it is needed
            from .graphs import check_size
            check_size("path", size)
        if args.method == "closed-form":
            return "closed-form", expectation.expected_gamma_path_closed_form(
                size, force=args.force
            )
        return "recurrence", expectation.expected_gamma_path(size, force=args.force)
    if name == "cycle":
        return "formula", expectation.expected_gamma_cycle(size, force=args.force)
    if name == "star":
        return "formula", expectation.expected_gamma_star(size)
    if name == "wheel":
        label = "formula-as-printed" if args.as_printed else "formula"
        return label, expectation.expected_gamma_wheel(
            size, as_printed=args.as_printed, force=args.force
        )
    return "formula", expectation.expected_gamma_complete_multipartite(size)


def _cmd_expect(args: argparse.Namespace) -> int:
    method, value = _expect_value(args)
    exact = str(value)  # converted once: at n = 4000 each part has 11 469 digits
    rational = exact if value.denominator != 1 else f"{exact}/1"
    doc = {"family": args.family, "method": method, "value": rational,
           "float": float(value)}
    rows = [("family", "method", "value"), (args.family, method, rational)]
    _emit(args, doc, rows, f"{float(value) if args.as_float else exact}\n")
    return EXIT_OK


def _extremal_reports(args: argparse.Namespace) -> tuple[int, list[tuple]]:
    """The bound's set size, and (method label, count, witness orders) per route."""
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
        count = extremal.path_census(n, force=force)[size]
        return count, extremal.extremal_permutations(n, kind, args.witnesses, force=force)

    def egf():
        from . import series
        return series.worst_case_counts_egf(n, force=force)[n], ()

    routes = {  # method -> (label, bounds it counts, applies at n, (count, witnesses))
        "brute": ("brute_force", ("worst", "best"), True, brute),
        "recurrence": ("recurrence", ("worst", "best"), True, lambda: (
            extremal.worst_case_count_recurrence(n, kind, force=force), ())),
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
        reports.append((label, *route()))
    return size, reports


def _cmd_extremal(args: argparse.Namespace) -> int:
    n, kind = args.n, args.bound
    size, reports = _extremal_reports(args)
    docs = []
    for method, count, witnesses in reports:
        doc = {"n": n, "bound_kind": kind, "extremal_size": size,
               "count": str(count), "method": method}
        if witnesses:
            doc["witnesses"] = [list(w) for w in witnesses]
        docs.append(doc)
    rows = [("n", "bound_kind", "extremal_size", "count", "method")]
    rows += [(n, kind, size, count, method) for method, count, _ in reports]
    lines = [f"{method}: {count} orders of length {n} hit the {kind}-case size {size}"
             for method, count, _ in reports]
    lines += ["  witness " + ",".join(str(v) for v in witness)
              for _, _, witnesses in reports for witness in witnesses]
    _emit(args, docs if args.method == "all" else docs[0], rows, "\n".join(lines) + "\n")
    by_method = {method: count for method, count, _ in reports}
    if len(set(by_method.values())) > 1:
        print(f"error: methods disagree at n={n}: {by_method}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _cmd_series(args: argparse.Namespace) -> int:
    from . import series
    order = series.DEFAULT_ORDER if args.order is None else args.order
    if order < 0:
        raise ValueError("--order must be nonnegative")
    odd_config = series.odd_configuration_counts_egf(order, force=args.force)
    worst = series.worst_case_counts_egf(order, force=args.force)
    table = [(n, str(d), str(f)) for n, (d, f) in enumerate(zip(odd_config, worst))]
    docs = [{"n": n, "odd_config": d, "worst_case": f} for n, d, f in table]
    _emit(args, docs, [("n", "odd_config", "worst_case"), *table], None)
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    from . import montecarlo
    if args.normalization != "none" and not args.plot_data and args.format != "json":
        raise ValueError("--normalization needs --plot-data or --format json")
    if args.plot_data and args.format == "csv":
        raise ValueError("--plot-data has no csv column: use --format text or json")
    config = montecarlo.SampleConfig(
        n=args.n,
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
        force=args.force,
    )
    hist = montecarlo.sample_gamma(config)
    bins = hist.bins.items()
    meta = {"n": hist.n, "samples": hist.total, "seed": args.seed, "mean": hist.mean,
            "variance": hist.variance, "min": min(hist.bins), "max": max(hist.bins)}
    doc = {**meta, "bins": {str(size): count for size, count in bins}}
    if args.normalization != "none":
        points = montecarlo.normalize(hist, args.normalization)
        doc["normalized"] = [[x, w] for x, w in points]
    if not args.plot_data:  # built here, so text output loads no csv
        lines = ["gamma,count", *(f"{size},{count}" for size, count in bins)]
    elif args.normalization == "none":
        lines = [f"{size} {count}" for size, count in bins]
    else:
        lines = [f"{x:.10g} {w:.10g}" for x, w in points]
    _emit(args, doc, [("gamma", "count"), *bins], "\n".join(lines) + "\n")
    if args.format != "json":
        _write(_json(meta), args.output and args.output + ".json", sys.stderr)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verification
    results = verification.run_verification(depth=args.depth)
    docs = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    rows = [("name", "passed", "detail")]
    rows += [(r.name, int(r.passed), r.detail) for r in results]
    _emit(args, docs, rows, "".join(r.line() + "\n" for r in results))
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
    except OSError as exc:  # the help, version or usage text could not be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
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
    # numpy.random loads OpenSSL's _hashlib (3.4 MB of RSS) that no command uses.
    sys.modules.setdefault("_hashlib", None)
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError as exc:
            if code != EXIT_INVALID:  # else main has printed its error line
                code = EXIT_INVALID
                with contextlib.suppress(OSError):
                    print(f"error: {exc}", file=sys.stderr, flush=True)
    os._exit(code)
