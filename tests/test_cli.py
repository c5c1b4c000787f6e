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
from pathdom import cli, expectation, extremal, montecarlo, series
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

    @pytest.mark.parametrize("n,size,count", [(1, 1, 1), (2, 1, 2), (4, 2, 24),
                                              (7, 3, 3408)])
    def test_all_skips_the_formula_where_it_does_not_apply(self, capsys, n, size,
                                                           count):
        code, out, err = run(
            capsys, "extremal", "--n", str(n), "--bound", "best", "--method", "all"
        )
        assert (code, err) == (0, "")
        assert out == (
            f"brute_force: {count} orders of length {n} hit the best-case size {size}\n"
        )
        code, out, err = run(
            capsys, "extremal", "--n", str(n), "--bound", "best", "--method", "formula"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: closed formula for n % 3 == ")

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

    def test_bad_order(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--family", "path", "--n", "3", "--order", "1,1,3"
        )
        assert code == 1


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
        assert meta["n"] == 30
        assert meta["samples"] == 2000
        assert meta["seed"] == 9
        assert {"mean", "variance", "min", "max"} <= set(meta)

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
        assert "formula agrees on n in [3, 5," in rows[2][2]  # a detail with commas


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
    # Only the sampler needs numpy, and only a sampler with more than one
    # worker needs the process pool; importing the package, --version,
    # series, expect and extremal load neither.
    src = os.path.dirname(os.path.dirname(pathdom.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    commands = [
        ["--version"],
        ["series", "--order", "6"],
        ["expect", "--family", "path", "--n", "6"],
        ["extremal", "--n", "6", "--bound", "worst", "--method", "all"],
    ]
    sample = ["sample", "--n", "10", "--samples", "8", "--workers", "1"]
    probe = (
        "import sys, pathdom.cli as cli\n"
        "pool = 'concurrent.futures.process'\n"
        f"for argv in {commands!r}:\n"
        "    assert cli.main(argv) == 0\n"
        "print('probe', 'numpy' in sys.modules, pool in sys.modules)\n"
        f"assert cli.main({sample!r}) == 0\n"
        "print('probe', pool in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    probes = [line for line in result.stdout.splitlines() if line.startswith("probe")]
    assert probes == ["probe False False", "probe False"]


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
])
def test_command_loads_only_the_modules_it_runs(argv, loaded):
    assert _modules_loaded_by(argv) == loaded


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
    "ConsistencyError DEFAULT_ORDER DominationOutcome ExtremalReport Graph Histogram "
    "PathCensus ResourceLimitError SampleConfig best_case_count_formula "
    "best_case_formula_applicable bruteforce_expected_gamma caro_wei_bound "
    "check_permutation complete_multipartite convolution_identity_holds "
    "count_no_even_local_maxima count_weakly_alternating cycle "
    "expected_gamma_complete_multipartite expected_gamma_cycle expected_gamma_limit "
    "expected_gamma_path expected_gamma_path_closed_form expected_gamma_path_float "
    "expected_gamma_star expected_gamma_wheel explicit extremal_permutations "
    "extremal_size final_set_counts gamma gamma_batch_path "
    "independent_dominating_sets_bruteforce is_independent_dominating "
    "max_dominating_size maximal_independent_dominating_sets "
    "min_dominating_size normalize odd_configuration_counts_egf orders_per_word "
    "orders_with_size path path_census run_online_domination sample_gamma "
    "set_first_order star up_down_words weakly_alternating_permutations wheel "
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
        report = extremal.ExtremalReport(
            n=n, bound_kind=bound, extremal_size=size,
            count=extremal.path_census(n).size_counts[size], method="brute_force",
            witnesses=tuple(extremal.extremal_permutations(n, bound, witnesses)),
        )
        assert doc == report.to_json_dict()
        assert int(doc["count"]) == report.count
