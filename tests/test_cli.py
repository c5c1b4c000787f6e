"""CLI contract checks: exit codes, formats, round-trips."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathdom
from pathdom import cli, domination, expectation, extremal, graphs, montecarlo, series
from pathdom.cli import main
from pathdom.errors import EXACT_COUNT_CAP, EXACT_PATH_CAP


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpect:
    def test_path_value(self, capsys):
        code, out, _ = run(capsys, "expect", "--family", "path", "--n", "4")
        assert code == 0
        assert out.strip() == "2"

    def test_path_fraction(self, capsys):
        code, out, _ = run(capsys, "expect", "--family", "path", "--n", "3")
        assert code == 0
        assert out.strip() == "5/3"

    def test_json_rational_form(self, capsys):
        code, out, _ = run(
            capsys, "expect", "--family", "path", "--n", "4", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == "2/1"

    def test_closed_form_method(self, capsys):
        code, out, _ = run(
            capsys, "expect", "--family", "path", "--n", "9", "--method", "closed-form"
        )
        assert code == 0
        a = out.strip()
        code, out, _ = run(capsys, "expect", "--family", "path", "--n", "9")
        assert out.strip() == a

    def test_wheel_both_forms(self, capsys):
        _, corrected, _ = run(capsys, "expect", "--family", "wheel", "--spokes", "4")
        _, printed, _ = run(
            capsys, "expect", "--family", "wheel", "--spokes", "4", "--as-printed"
        )
        assert corrected.strip() == "9/5"
        assert printed.strip() == "1"

    @pytest.mark.parametrize("route", [
        ["--family", "path", "--n", "5"],
        ["--family", "cycle", "--n", "5"],
        ["--family", "wheel", "--spokes", "4", "--method", "brute"],
        ["--family", "wheel", "--spokes", "4", "--caro-wei"],
    ])
    def test_as_printed_outside_the_wheel_formula_is_refused(self, capsys, route):
        code, out, err = run(capsys, "expect", *route, "--as-printed")
        assert (code, out) == (1, "")
        assert err == "error: --as-printed applies to the wheel formula only\n"

    def test_caro_wei(self, capsys):
        code, out, _ = run(
            capsys, "expect", "--family", "path", "--n", "3", "--caro-wei"
        )
        assert code == 0
        assert out.strip() == "4/3"

    @pytest.mark.parametrize("method", ["recurrence", "closed-form", "brute"])
    def test_caro_wei_with_a_method_is_refused(self, capsys, method):
        code, out, err = run(
            capsys, "expect", "--family", "path", "--n", "5", "--caro-wei",
            "--method", method,
        )
        assert (code, out) == (1, "")
        assert err == "error: --caro-wei takes no --method: it bounds the graph instead\n"

    @pytest.mark.parametrize("method", ["recurrence", "closed-form"])
    @pytest.mark.parametrize("family", [
        ["cycle", "--n", "5"], ["star", "--leaves", "3"], ["wheel", "--spokes", "4"],
        ["multipartite", "--parts", "2,3"],
    ])
    def test_path_methods_on_other_families_are_refused(self, capsys, family, method):
        code, out, err = run(
            capsys, "expect", "--family", *family, "--method", method,
            "--format", "json",
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: --method recurrence and closed-form apply to --family path only\n"
        )

    def test_brute_method_on_explicit_graph(self, capsys):
        code, out, _ = run(
            capsys,
            "expect", "--family", "explicit", "--n", "3", "--edges", "1-2,2-3",
            "--method", "brute",
        )
        assert code == 0
        assert out.strip() == "5/3"

    def test_float_has_no_csv_form(self, capsys):
        # The csv row has no float column, so --float would be dropped.
        argv = ["expect", "--family", "path", "--n", "3", "--format", "csv"]
        code, out, err = run(capsys, *argv, "--float")
        assert (code, out) == (1, "")
        assert err == "error: --float has no csv column: use --format text or json\n"
        assert run(capsys, *argv) == (0, "family,method,value\npath,recurrence,5/3\n", "")

    def test_missing_parameter_is_invalid_input(self, capsys):
        code, _, err = run(capsys, "expect", "--family", "path")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "family,flags",
        [("path", "--n"), ("cycle", "--n"), ("star", "--leaves"),
         ("wheel", "--spokes"), ("multipartite", "--parts"),
         ("explicit", "--n and --edges")],
    )
    @pytest.mark.parametrize(
        "route", [["expect"], ["expect", "--caro-wei"], ["simulate", "--order", "1"]]
    )
    def test_missing_family_argument_message(self, capsys, family, flags, route):
        code, out, err = run(capsys, *route, "--family", family)
        assert (code, out) == (1, "")
        message = f"--family {family} requires {flags}"
        if route == ["expect"] and family == "explicit":
            message = "expect supports explicit graphs only with --method brute"
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("n", ["0", "-3"])
    @pytest.mark.parametrize("method", ["recurrence", "closed-form"])
    def test_nonpositive_path_length_is_invalid_input(self, capsys, n, method):
        code, out, err = run(
            capsys, "expect", "--family", "path", "--n", n, "--method", method
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="the interpreter has no int-to-string digit limit",
    )
    def test_values_past_the_int_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        # The n = 400 expectation has 749-digit terms, past a 640-digit limit.
        sys.set_int_max_str_digits(640)
        try:
            rec_code, rec_out, _ = run(capsys, "expect", "--family", "path", "--n", "400")
            closed_code, closed_out, _ = run(
                capsys,
                "expect", "--family", "path", "--n", "400", "--method", "closed-form",
            )
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert rec_code == closed_code == 0
        assert rec_out == closed_out
        assert len(rec_out.split("/")[0]) > 640


class TestExtremal:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run(
            capsys,
            "extremal", "--n", "8", "--bound", "worst", "--method", "all",
            "--format", "csv",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "n,bound_kind,extremal_size,count,method"
        counts = {row.split(",")[3] for row in rows[1:]}
        assert counts == {"30464"}
        assert len(rows) == 4  # brute, recurrence, egf

    def test_best_formula(self, capsys):
        code, out, _ = run(
            capsys, "extremal", "--n", "10", "--bound", "best", "--method", "formula"
        )
        assert code == 0
        assert "1377792" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys,
            "extremal", "--n", "6", "--bound", "worst", "--method", "brute",
            "--witnesses", "3", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "n": 6,
            "bound_kind": "worst",
            "extremal_size": 3,
            "count": "640",
            "method": "brute_force",
            "witnesses": doc["witnesses"],
        }
        assert int(doc["count"]) == 640
        assert len(doc["witnesses"]) == 3

    def test_all_skips_the_formula_at_one_vertex(self, capsys):
        # The formula holds at every n >= 2, so only n = 1 goes without it.
        code, out, err = run(
            capsys, "extremal", "--n", "1", "--bound", "best", "--method", "all"
        )
        assert (code, err) == (0, "")
        assert out == "".join(
            f"{method}: 1 orders of length 1 hit the best-case size 1\n"
            for method in ("brute_force", "recurrence")
        )
        code, out, err = run(
            capsys, "extremal", "--n", "1", "--bound", "best", "--method", "formula"
        )
        assert (code, out) == (1, "")
        assert err == ("error: closed formula requires n >= 2; use brute-force "
                       "counting or the recurrence for n = 1\n")

    @pytest.mark.parametrize("n,size,count", [(2, 1, 2), (4, 2, 24), (7, 3, 3408)])
    def test_all_lists_the_formula_from_two_vertices(self, capsys, n, size, count):
        code, out, err = run(
            capsys, "extremal", "--n", str(n), "--bound", "best", "--method", "all"
        )
        assert (code, err) == (0, "")
        assert out == "".join(
            f"{method}: {count} orders of length {n} hit the best-case size {size}\n"
            for method in ("brute_force", "recurrence", "formula")
        )
        code, out, err = run(
            capsys, "extremal", "--n", str(n), "--bound", "best", "--method", "formula"
        )
        assert (code, err) == (0, "")
        assert out == f"formula: {count} orders of length {n} hit the best-case size {size}\n"

    def _json_routes(self, capsys, n, methods):
        """`--method all` as json equals the single-method documents of `methods`."""
        code, out, err = run(
            capsys, "extremal", "--n", str(n), "--bound", "best", "--method", "all",
            "--format", "json",
        )
        assert (code, err) == (0, "")
        singles = []
        for method in methods:
            _, single, _ = run(
                capsys, "extremal", "--n", str(n), "--bound", "best", "--method", method,
                "--format", "json",
            )
            singles.append(json.loads(single))
        assert json.loads(out) == singles
        assert [doc["method"] for doc in singles] == [
            "brute_force", "recurrence", "formula"][: len(methods)]
        assert len({doc["count"] for doc in singles}) == 1

    def test_all_writes_a_json_list_of_two_routes_at_one_vertex(self, capsys):
        # Brute force and the recurrence apply at every n, the formula from n = 2.
        self._json_routes(capsys, 1, ("brute", "recurrence"))

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_all_writes_a_json_list_of_three_routes_from_two_vertices(self, capsys, n):
        self._json_routes(capsys, n, ("brute", "recurrence", "formula"))

    def test_best_recurrence_prints_the_formulas_count_at_400(self, capsys):
        counts = set()
        for method in ("recurrence", "formula"):
            code, out, err = run(
                capsys, "extremal", "--n", "400", "--bound", "best", "--method", method
            )
            assert (code, err) == (0, "")
            assert out.startswith(f"{method}: ")
            counts.add(out.removeprefix(f"{method}: "))
        assert len(counts) == 1

    @pytest.mark.parametrize("method,bound", [("recurrence", "worst"), ("egf", "worst"),
                                              ("formula", "best")])
    def test_witnesses_outside_the_brute_route_are_refused(self, capsys, method, bound):
        code, out, err = run(
            capsys, "extremal", "--n", "8", "--bound", bound, "--method", method,
            "--witnesses", "2",
        )
        assert (code, out) == (1, "")
        assert err == "error: --witnesses applies to --method brute or all only\n"
        code, out, _ = run(
            capsys, "extremal", "--n", "8", "--bound", bound, "--method", "all",
            "--witnesses", "2",
        )
        assert code == 0
        assert out.count("  witness ") == 2

    @pytest.mark.parametrize("method", ["brute", "all"])
    @pytest.mark.parametrize("bound", ["worst", "best"])
    def test_witnesses_run_the_listings_own_forward_pass(self, capsys, monkeypatch,
                                                         method, bound):
        calls = []
        real = domination.final_set_counts

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(domination, "final_set_counts", counted)
        code, out, _ = run(
            capsys, "extremal", "--n", "8", "--bound", bound, "--method", method,
            "--witnesses", "3",
        )
        assert code == 0
        assert len(calls) == 2  # the census's pass and the listing's own
        size = extremal.extremal_size(8, bound)
        orders = domination.orders_with_size(pathdom.path(8), size, 3)
        assert out.splitlines()[-3:] == [
            "  witness " + ",".join(map(str, order)) for order in orders
        ]

    @pytest.mark.parametrize("method", ["brute", "all"])
    def test_witnesses_with_csv_are_refused(self, capsys, method):
        # The csv row has no witness column, so the witnesses would be dropped.
        code, out, err = run(
            capsys, "extremal", "--n", "6", "--bound", "worst", "--method", method,
            "--witnesses", "2", "--format", "csv",
        )
        assert (code, out) == (1, "")
        assert err == "error: --witnesses has no csv column: use --format text or json\n"
        code, out, _ = run(
            capsys, "extremal", "--n", "6", "--bound", "worst", "--method", method,
            "--format", "csv",
        )
        assert code == 0
        assert out.startswith("n,bound_kind,extremal_size,count,method\n6,worst,3,")

    def test_cap_refusal_exit_code(self, capsys):
        code, _, err = run(capsys, "extremal", "--n", "12", "--bound", "worst")
        assert code == 3
        assert "--force" in err

    def test_method_kind_mismatch(self, capsys):
        code, _, err = run(
            capsys, "extremal", "--n", "6", "--bound", "best", "--method", "egf"
        )
        assert code == 1
        assert err == "error: --method egf applies to --bound worst only\n"
        # A bad n is reported before a bad method.
        code, _, err = run(
            capsys, "extremal", "--n", "0", "--bound", "worst", "--method", "formula"
        )
        assert code == 1
        assert err == "error: n must be positive\n"


class TestSeries:
    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "series", "--order", "7")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "n,odd_config,worst_case"
        assert rows[1] == "0,1,1"
        assert rows[4] == "3,4,4"
        assert rows[8] == "7,1632,1632"

    def test_both_columns_come_from_one_table(self, capsys):
        series._egf_counts.cache_clear()
        code, _, _ = run(capsys, "series", "--order", "37")
        assert code == 0
        info = series._egf_counts.cache_info()
        assert (info.misses, info.hits) == (1, 1)


EXACT_ROUTES = [
    (series, "EXACT_COUNT_CAP", ["series", "--order", "{n}"]),
    (extremal, "EXACT_COUNT_CAP",
     ["extremal", "--n", "{n}", "--bound", "worst", "--method", "recurrence"]),
    (series, "EXACT_COUNT_CAP",
     ["extremal", "--n", "{n}", "--bound", "worst", "--method", "egf"]),
    (expectation, "EXACT_PATH_CAP", ["expect", "--family", "path", "--n", "{n}"]),
    (expectation, "EXACT_PATH_CAP",
     ["expect", "--family", "path", "--n", "{n}", "--method", "closed-form"]),
]


class TestExactCaps:
    @pytest.mark.parametrize("module,cap_name,argv", EXACT_ROUTES)
    def test_refusal_above_the_cap(self, capsys, module, cap_name, argv):
        cap = {"EXACT_COUNT_CAP": EXACT_COUNT_CAP, "EXACT_PATH_CAP": EXACT_PATH_CAP}
        assert getattr(module, cap_name) == cap[cap_name]
        args = [a.format(n=cap[cap_name] + 1) for a in argv]
        code, out, err = run(capsys, *args)
        assert code == 3
        assert out == ""
        assert "--force" in err

    @pytest.mark.parametrize("module,cap_name,argv", EXACT_ROUTES)
    def test_force_runs_past_the_cap(self, capsys, monkeypatch, module, cap_name, argv):
        args = [a.format(n=9) for a in argv]
        _, expected, _ = run(capsys, *args)
        monkeypatch.setattr(module, cap_name, 8)
        code, out, _ = run(capsys, *args)
        assert code == 3
        assert out == ""
        code, out, _ = run(capsys, *args, "--force")
        assert code == 0
        assert out == expected


class TestSimulate:
    def test_text(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--family", "path", "--n", "3", "--order", "2,1,3"
        )
        assert code == 0
        assert "gamma: 1" in out
        assert "chosen: 2" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--family", "path", "--n", "6",
            "--order", "1,3,5,2,4,6", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["gamma"] == 3
        assert doc["chosen"] == [1, 3, 5]

    def test_json_names_the_family_as_given(self, capsys):
        argv = ["--family", "multipartite", "--parts", "2,3", "--format", "json"]
        code, out, _ = run(capsys, "simulate", *argv, "--order", "1,2,3,4,5")
        assert code == 0
        assert json.loads(out)["family"] == "multipartite"
        _, out, _ = run(capsys, "expect", *argv)
        assert json.loads(out)["family"] == "multipartite"

    def test_bad_order(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--family", "path", "--n", "3", "--order", "1,1,3"
        )
        assert code == 1

    @pytest.mark.parametrize("argv, build", [
        (["path", "--n", "0"], lambda: graphs.path(0)),
        (["cycle", "--n", "2"], lambda: graphs.cycle(2)),
        (["star", "--leaves", "0"], lambda: graphs.star(0)),
        (["wheel", "--spokes", "2"], lambda: graphs.wheel(2)),
        (["multipartite", "--parts", "0"], lambda: graphs.complete_multipartite([0])),
        (["explicit", "--n", "0", "--edges", "1-2"], lambda: graphs.explicit(0, [(1, 2)])),
        (["expect", "--family", "path", "--n", "0"], lambda: graphs.path(0)),
    ], ids=["path", "cycle", "star", "wheel", "multipartite", "explicit", "expect-path"])
    def test_too_small_a_graph_gets_its_builders_message(self, capsys, argv, build):
        # simulate refuses the size before it compares the order's length
        # with it; expect on a path refuses it without building the graph.
        with pytest.raises(ValueError) as refusal:
            build()
        if argv[0] != "expect":
            argv = ["simulate", "--family", *argv, "--order", "1"]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {refusal.value}\n")


@pytest.mark.parametrize("family, build", [
    (["cycle", "--n", "2"], lambda: graphs.cycle(2)),
    (["star", "--leaves", "0"], lambda: graphs.star(0)),
    (["wheel", "--spokes", "2"], lambda: graphs.wheel(2)),
], ids=["cycle", "star", "wheel"])
@pytest.mark.parametrize("route", [
    ["expect"], ["expect", "--method", "brute"], ["expect", "--caro-wei"],
    ["simulate", "--order", "1"],
], ids=["formula", "brute", "caro-wei", "simulate"])
def test_every_route_refuses_a_too_small_family_with_its_builders_message(
        capsys, family, build, route):
    with pytest.raises(ValueError) as refusal:
        build()
    code, out, err = run(capsys, *route, "--family", *family)
    assert (code, out, err) == (1, "", f"error: {refusal.value}\n")


@pytest.mark.parametrize("route", [
    ["simulate", "--order", "2,4,1,3"], ["expect", "--caro-wei"],
    ["expect", "--method", "brute"],
], ids=["simulate", "caro-wei", "brute"])
def test_an_edge_list_is_parsed_once(capsys, monkeypatch, route):
    calls = []
    parse = cli._parse_edges
    monkeypatch.setattr(cli, "_parse_edges", lambda raw: calls.append(raw) or parse(raw))
    code, _, err = run(capsys, *route, "--family", "explicit", "--n", "4",
                       "--edges", "1-2,2-3,3-4")
    assert (code, err) == (0, "")
    assert calls == ["1-2,2-3,3-4"]


@pytest.mark.parametrize("edges, message", [
    ("1-2,2-9,0-1", "edge (2, 9) out of range for n=4"),
    ("1-2,3-3,2-9", "self-loop at vertex 3"),
])
@pytest.mark.parametrize("route", [
    ["simulate", "--order", "2,4,1,3"], ["expect", "--caro-wei"],
    ["expect", "--method", "brute"],
], ids=["simulate", "caro-wei", "brute"])
def test_a_bad_edge_is_refused_alike_on_every_route(capsys, route, edges, message):
    code, out, err = run(capsys, *route, "--family", "explicit", "--n", "4", "--edges", edges)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("route, expected", [
    (["simulate", "--order", "2,1,3"], "gamma: 3\nchosen: 2,1,3\n"),
    (["expect", "--caro-wei"], "3\n"), (["expect", "--method", "brute"], "3\n"),
], ids=["simulate", "caro-wei", "brute"])
@pytest.mark.parametrize("edges", ["", ","])
def test_an_empty_edge_list_is_the_edgeless_graph_on_every_route(
        capsys, route, expected, edges):
    # An empty --edges is given, not missing: it parses to no edges.
    code, out, err = run(capsys, *route, "--family", "explicit", "--n", "3", "--edges", edges)
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("route", [
    ["expect"], ["expect", "--caro-wei"], ["simulate", "--order", "1"],
], ids=["formula", "caro-wei", "simulate"])
@pytest.mark.parametrize("parts", ["", ","])
def test_empty_part_sizes_get_the_builders_message(capsys, route, parts):
    with pytest.raises(ValueError) as refusal:
        graphs.complete_multipartite([])
    code, out, err = run(capsys, *route, "--family", "multipartite", "--parts", parts)
    assert (code, out, err) == (1, "", f"error: {refusal.value}\n")


class TestSample:
    def test_csv_and_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "hist.csv"
        code, _, _ = run(
            capsys,
            "sample", "--n", "30", "--samples", "2000", "--seed", "9",
            "--output", str(out_path),
        )
        assert code == 0
        rows = out_path.read_text().strip().splitlines()
        assert rows[0] == "gamma,count"
        total = sum(int(r.split(",")[1]) for r in rows[1:])
        assert total == 2000
        meta = json.loads((tmp_path / "hist.csv.json").read_text())
        assert list(meta) == ["n", "samples", "seed", "mean", "variance", "min", "max"]
        assert meta["n"] == 30
        assert meta["samples"] == 2000
        assert meta["seed"] == 9

    def test_stdout_csv_with_meta_on_stderr(self, capsys):
        code, out, err = run(capsys, "sample", "--n", "10", "--samples", "64", "--seed", "1")
        assert code == 0
        assert out.startswith("gamma,count")
        assert json.loads(err)["samples"] == 64

    def test_plot_data_normalized(self, capsys):
        code, out, _ = run(
            capsys,
            "sample", "--n", "60", "--samples", "512", "--seed", "2",
            "--normalization", "per_vertex", "--plot-data",
        )
        assert code == 0
        for line in out.strip().splitlines():
            x, w = map(float, line.split())
            assert 1 / 3 <= x <= 1 / 2
            assert 0 <= w <= 1

    @pytest.mark.parametrize("flags", [
        [], ["--format", "csv"], ["--format", "json"], ["--plot-data"],
        ["--plot-data", "--normalization", "centered"],
        ["--format", "json", "--normalization", "per_vertex"],
    ], ids=["text", "csv", "json", "plot-data", "plot-data-centered", "json-per-vertex"])
    def test_output_file_holds_what_stdout_held(self, capsys, tmp_path, flags):
        argv = ["sample", "--n", "40", "--samples", "500", "--seed", "7", *flags]
        code, out, err = run(capsys, *argv)
        assert code == 0 and out
        target = tmp_path / "hist"
        assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode("utf-8")
        sidecar = tmp_path / "hist.json"
        if "json" in flags:  # the meta is in the document: no sidecar
            assert err == "" and not sidecar.exists()
        else:
            assert sidecar.read_bytes() == err.encode("utf-8")

    @pytest.mark.parametrize("flags", [[], ["--normalization", "centered"]],
                             ids=["none", "centered"])
    def test_plot_data_changes_no_json(self, capsys, flags):
        argv = ["sample", "--n", "40", "--samples", "500", "--seed", "7", "--format",
                "json", *flags]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out
        assert run(capsys, *argv, "--plot-data") == (0, out, "")

    def test_csv_is_the_text_table(self, capsys):
        argv = ["sample", "--n", "40", "--samples", "500", "--seed", "7"]
        assert run(capsys, *argv, "--format", "csv") == run(capsys, *argv)

    def test_plot_data_has_no_csv_form(self, capsys):
        # Refused before sampling: this size would otherwise exceed the budget.
        code, out, err = run(
            capsys, "sample", "--n", "100000", "--samples", "100000", "--seed", "0",
            "--plot-data", "--format", "csv",
        )
        assert (code, out) == (1, "")
        assert err == "error: --plot-data has no csv column: use --format text or json\n"

    def test_budget_exit_code(self, capsys):
        code, _, err = run(
            capsys, "sample", "--n", "100000", "--samples", "100000", "--seed", "0"
        )
        assert code == 3
        assert f"n * max(samples, {montecarlo.CHUNK_SIZE}) = 10000000000" in err
        assert str(montecarlo.SAMPLE_BUDGET) in err
        assert "--force" in err

    def test_one_sample_on_a_huge_path_is_refused_at_once(self, capsys):
        # One sample still costs a whole chunk's slab draws and scan steps.
        began = time.perf_counter()
        code, out, err = run(
            capsys, "sample", "--n", "10000000", "--samples", "1", "--seed", "0"
        )
        assert (code, out) == (3, "")
        cost = 10**7 * montecarlo.CHUNK_SIZE
        assert f"n * max(samples, {montecarlo.CHUNK_SIZE}) = {cost}" in err
        assert time.perf_counter() - began < 1.0

    def test_force_runs_past_the_budget(self, capsys, monkeypatch):
        argv = ["sample", "--n", "10", "--samples", "30", "--seed", "4"]
        _, expected, _ = run(capsys, *argv)
        monkeypatch.setattr(montecarlo, "SAMPLE_BUDGET", 10 * montecarlo.CHUNK_SIZE - 1)
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (3, "")
        code, out, _ = run(capsys, *argv, "--force")
        assert (code, out) == (0, expected)

    @pytest.mark.parametrize("mode", ["per_vertex", "centered"])
    def test_normalization_needs_plot_data_or_json(self, capsys, mode):
        code, out, err = run(
            capsys, "sample", "--n", "20", "--samples", "100", "--seed", "1",
            "--normalization", mode,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --normalization")


class TestVerify:
    def test_quick_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--depth", "quick")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10
        assert all(line.startswith("PASS") for line in lines)

    def test_csv_rows(self, capsys, tmp_path):
        out_path = tmp_path / "v.csv"
        code, out, _ = run(capsys, "verify", "--depth", "quick", "--format", "csv",
                           "--output", str(out_path))
        assert (code, out) == (0, "")
        with open(out_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["name", "passed", "detail"]
        assert [row[0] for row in rows[1:]] == [
            "worst-case-counts", "best-case-counts", "expectation-oracle",
            "asymptotic-constant", "family-formulas", "structural-sets",
            "inverse-bijection", "convolution-identity", "monte-carlo", "caro-wei",
        ]
        assert all(len(row) == 3 and row[1] == "1" for row in rows[1:])
        assert "formula = recurrence for n in [2, 60]" in rows[2][2]  # a detail with a comma


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--family", "wheel", "--spokes", "4", "--order", "5,1,2,3,4"],
    ["expect", "--family", "cycle", "--n", "9"],
    ["extremal", "--n", "8", "--bound", "best", "--method", "all"],
    ["series", "--order", "12"],
    ["verify", "--depth", "quick"],
], ids=["simulate", "expect", "extremal", "series", "verify"])
def test_output_file_holds_the_bytes_stdout_would(capsys, tmp_path, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    path = tmp_path / "result"
    assert run(capsys, *argv, "--format", fmt, "--output", str(path)) == (code, "", err)
    assert (code, err) == (0, "")
    assert path.read_bytes() == out.encode()


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "series", "--frds", "1")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0


class TestUnexpectedErrors:
    def test_last_resort_handler(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._HANDLERS, "series", broken)
        code, out, err = run(capsys, "series", "--order", "5")
        assert code == 1
        assert out == ""
        assert err == "error: unexpected RuntimeError: boom\n"

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._HANDLERS, "series", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["series", "--order", "5"])


def test_exact_commands_leave_numpy_unloaded():
    # Only the sampler needs numpy, and no sampler needs a process pool: more
    # than one worker forks its children directly.  Importing the package,
    # --version, series, expect and extremal load neither.
    src = os.path.dirname(os.path.dirname(pathdom.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    commands = [
        ["--version"],
        ["series", "--order", "6"],
        ["expect", "--family", "path", "--n", "6"],
        ["extremal", "--n", "6", "--bound", "worst", "--method", "all"],
    ]
    samples = [  # one chunk on one worker; three chunks on two
        ["sample", "--n", "10", "--samples", "8", "--workers", "1"],
        ["sample", "--n", "10", "--samples", "9000", "--workers", "2"],
    ]
    probe = (
        "import sys, pathdom.cli as cli\n"
        "pools = ('concurrent.futures', 'multiprocessing')\n"
        f"for argv in {commands!r}:\n"
        "    assert cli.main(argv) == 0\n"
        "print('probe', 'numpy' in sys.modules, any(p in sys.modules for p in pools))\n"
        f"for argv in {samples!r}:\n"
        "    assert cli.main(argv) == 0\n"
        "    print('probe', any(p in sys.modules for p in pools))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    probes = [line for line in result.stdout.splitlines() if line.startswith("probe")]
    assert probes == ["probe False False", "probe False", "probe False"]


def _modules_loaded_by(argv):
    """The pathdom submodules a fresh interpreter has loaded after one command."""
    src = os.path.dirname(os.path.dirname(pathdom.__file__))
    probe = (
        "import sys, pathdom.cli as cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print('probe', code, *sorted(m for m in sys.modules if m.startswith('pathdom.')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    _, code, *modules = result.stdout.splitlines()[-1].split()
    assert code == "0", result.stderr
    return {module.removeprefix("pathdom.") for module in modules}


@pytest.mark.parametrize("argv,loaded", [
    (["--version"], {"cli"}),
    (["series", "--order", "6"], {"cli", "errors", "series"}),
    (["expect", "--family", "path", "--n", "6"], {"cli", "errors", "expectation"}),
    (["sample", "--n", "20", "--samples", "100", "--seed", "1"],
     {"cli", "domination", "errors", "montecarlo"}),
    (["extremal", "--n", "10", "--bound", "worst", "--method", "recurrence"],
     {"cli", "errors", "extremal"}),
    (["expect", "--family", "cycle", "--n", "9"], {"cli", "errors", "expectation", "graphs"}),
])
def test_command_loads_only_the_modules_it_runs(argv, loaded):
    assert _modules_loaded_by(argv) == loaded


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "20", "--samples", "100", "--seed", "1"],
    ["verify", "--depth", "quick"],
], ids=["sample", "verify"])
def test_the_entry_point_refuses_openssls_hashlib(argv):
    # -X importtime prints a row for every import asked for, refused ones
    # included; -v prints "import '<name>' # <loader>" only for a module loaded.
    src = os.path.dirname(os.path.dirname(pathdom.__file__))
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-v", "-m", "pathdom", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    lines = result.stderr.splitlines()
    asked = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    loaded = {line.split("'")[1] for line in lines if line.startswith("import '")}
    assert {"_hashlib", "hmac", "numpy.random.bit_generator"} <= asked
    assert {"hmac", "numpy.random.bit_generator"} <= loaded
    assert "_hashlib" not in loaded


@pytest.mark.parametrize("flags, loads_csv", [
    ([], False), (["--plot-data"], False), (["--format", "json"], False),
    (["--format", "csv"], True),
], ids=["text", "plot-data", "json", "csv"])
def test_sample_loads_csv_only_for_csv_output(flags, loads_csv):
    # -v prints "import '<name>' # <loader>" for each module loaded.
    src = os.path.dirname(os.path.dirname(pathdom.__file__))
    result = subprocess.run(
        [sys.executable, "-v", "-m", "pathdom", "sample", "--n", "20", "--samples", "100",
         "--seed", "1", *flags],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    loaded = {line.split("'")[1] for line in result.stderr.splitlines()
              if line.startswith("import '")}
    assert "numpy" in loaded
    assert ("csv" in loaded) == loads_csv


@pytest.mark.parametrize("argv,route", [
    (["expect", "--family", "path", "--n", "6"], "expectation"),
    (["expect", "--family", "path", "--n", "6", "--method", "closed-form"], "expectation"),
    (["extremal", "--n", "6", "--bound", "worst", "--method", "recurrence"], "extremal"),
])
def test_exact_routes_load_no_sampler_or_verifier(argv, route):
    loaded = _modules_loaded_by(argv)
    assert route in loaded
    assert not {"montecarlo", "verification"} & loaded


# Every name the package exported when it imported all of its modules eagerly.
PUBLIC_NAMES = (
    "ConsistencyError DEFAULT_ORDER DominationOutcome Graph Histogram "
    "ResourceLimitError SampleConfig best_case_count_formula "
    "best_case_formula_applicable bruteforce_expected_gamma caro_wei_bound "
    "check_permutation complete_multipartite "
    "count_no_even_local_maxima count_weakly_alternating cycle "
    "expected_gamma_complete_multipartite expected_gamma_cycle expected_gamma_limit "
    "expected_gamma_path expected_gamma_path_closed_form expected_gamma_path_float "
    "expected_gamma_star expected_gamma_wheel explicit extremal_permutations "
    "extremal_size final_set_counts gamma gamma_batch_path "
    "independent_dominating_sets_bruteforce is_independent_dominating "
    "max_dominating_size maximal_independent_dominating_sets "
    "min_dominating_size normalize odd_configuration_counts_egf "
    "orders_with_size path path_census run_online_domination sample_gamma "
    "set_first_order star weakly_alternating_permutations wheel "
    "word_census worst_case_count_recurrence worst_case_counts_egf"
).split()


def test_every_public_name_resolves_from_the_package():
    assert sorted(pathdom.__all__) == sorted(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(pathdom))
    for name in PUBLIC_NAMES:
        value = getattr(pathdom, name)
        if hasattr(value, "__module__"):
            assert getattr(sys.modules[value.__module__], name) is value
    assert pathdom.DEFAULT_ORDER == series.DEFAULT_ORDER
    assert "__version__" in vars(pathdom)
    with pytest.raises(AttributeError, match="no_such_name"):
        pathdom.no_such_name
    with pytest.raises(ImportError):
        from pathdom import no_such_name  # noqa: F401


def test_tracer_finds_every_name_it_wraps(tmp_path):
    # The benchmark's tracer refuses to start when a function it wraps is
    # gone, so renaming or deleting a traced name fails here, not in a
    # traced benchmark run.
    src = os.path.dirname(os.path.dirname(pathdom.__file__))
    tracer = os.path.join(os.path.dirname(src), "perfbench", "tracer.py")
    result = subprocess.run(
        [sys.executable, tracer, str(tmp_path / "spans.json"), "0", "--", "--version"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"pathdom {pathdom.__version__}\n"


def _json_out(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return json.loads(out.getvalue())


class TestJsonRoundTrips:
    """Parsed CLI JSON equals the library value it reports."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=300),
           st.sampled_from(["recurrence", "closed-form"]))
    def test_expect(self, n, method):
        doc = _json_out(
            "expect", "--family", "path", "--n", str(n), "--method", method,
            "--format", "json",
        )
        assert Fraction(doc["value"]) == expectation.expected_gamma_path(n)
        assert doc["float"] == float(expectation.expected_gamma_path(n))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=80))
    def test_series(self, order):
        docs = _json_out("series", "--order", str(order), "--format", "json")
        assert [d["n"] for d in docs] == list(range(order + 1))
        assert tuple(int(d["odd_config"]) for d in docs) == (
            series.odd_configuration_counts_egf(order)
        )
        assert tuple(int(d["worst_case"]) for d in docs) == (
            series.worst_case_counts_egf(order)
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=9), st.sampled_from(["worst", "best"]),
           st.integers(min_value=0, max_value=4))
    def test_extremal(self, n, bound, witnesses):
        doc = _json_out(
            "extremal", "--n", str(n), "--bound", bound, "--witnesses",
            str(witnesses), "--format", "json",
        )
        size = extremal.extremal_size(n, bound)
        count = extremal.path_census(n)[size]
        expected = {
            "n": n, "bound_kind": bound, "extremal_size": size, "count": str(count),
            "method": "brute_force",
        }
        if witnesses:
            expected["witnesses"] = [
                list(w) for w in extremal.extremal_permutations(n, bound, witnesses)
            ]
        assert doc == expected
        assert int(doc["count"]) == count
