"""The CLI under hostile arguments: zero, negatives, malformed lists and huge sizes.

Huge sizes run only in a child interpreter whose address space is capped, so
a guard that goes missing fails a test instead of exhausting the machine.
"""

import contextlib
import io
import itertools
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathdom
from pathdom import errors
from pathdom.cli import main

SRC = os.path.dirname(os.path.dirname(pathdom.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))
ADDRESS_SPACE = 1 << 30
HUGE = str(10**12)  # past every cap and budget
BIG = "99999999"  # a graph of about 18 GB, were it built


def _run_capped(args, timeout):
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))

    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        preexec_fn=cap, timeout=timeout,
    )


@pytest.mark.parametrize("argv,code,message", [
    (["expect", "--family", "star", "--leaves", BIG, "--method", "brute"], 3, "star graph"),
    (["expect", "--family", "multipartite", "--parts", "3000,3000", "--method", "brute"], 3,
     "multipartite graph"),
    (["expect", "--family", "explicit", "--n", BIG, "--edges", "1-2", "--caro-wei"], 3,
     "explicit graph"),
    (["expect", "--family", "path", "--n", BIG, "--method", "brute"], 3, "path graph"),
    (["simulate", "--n", "3000000", "--order", "1,2"], 1, "vertex count 3000000"),
    (["simulate", "--family", "wheel", "--spokes", BIG, "--order", "1"], 1,
     "vertex count 100000000"),
    (["extremal", "--n", BIG, "--bound", "worst"], 3, "exhaustive search"),
    (["extremal", "--n", BIG, "--bound", "best", "--method", "formula"], 3,
     "best-case count formula"),
    (["extremal", "--n", HUGE, "--bound", "worst"], 3, "exhaustive search"),
    (["extremal", "--n", HUGE, "--bound", "best", "--method", "recurrence"], 3,
     "best-case count recurrence"),
])
def test_huge_input_is_refused_before_anything_is_built(argv, code, message):
    result = _run_capped(["-m", "pathdom", *argv], timeout=60)
    assert (result.returncode, result.stdout) == (code, ""), result.stderr
    assert result.stderr.startswith("error: ") and message in result.stderr


@pytest.mark.parametrize("argv,out", [
    (["expect", "--family", "star", "--leaves", "2000000", "--caro-wei"],
     "2000001000001/2000001"),  # k/2 + 1/(k + 1)
    (["expect", "--family", "multipartite", "--parts", "1000,1000", "--caro-wei"],
     "2000/1001"),
])
def test_caro_wei_past_the_graph_cap_takes_the_degree_classes(argv, out):
    # Both graphs are past GRAPH_SIZE_CAP, and the second has a million edges.
    result = _run_capped(["-m", "pathdom", *argv], timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, out + "\n", "")


@pytest.mark.parametrize("argv,size", [  # size: vertices + edges of the graph
    (["expect", "--family", "wheel", "--spokes", "5", "--method", "brute"], 6 + 10),
    (["simulate", "--family", "star", "--leaves", "2", "--order", "3,1,2"], 3 + 2),
    (["simulate", "--family", "path", "--n", "4", "--order", "2,4,1,3"], 4 + 3),
    (["expect", "--family", "cycle", "--n", "5", "--method", "brute"], 5 + 5),
    (["expect", "--family", "multipartite", "--parts", "2,1,3", "--method", "brute"],
     6 + 11),
    (["simulate", "--family", "explicit", "--n", "4", "--edges", "1-2,2-3,3-4,1-3",
      "--order", "3,1,4,2"], 4 + 4),
    (["expect", "--family", "explicit", "--n", "5", "--edges", "1-2,4-5", "--caro-wei"],
     5 + 2),
])
def test_graph_size_cap_read_at_call_time_and_forced(argv, size, monkeypatch, capsys):
    assert main(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(errors, "GRAPH_SIZE_CAP", size)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    monkeypatch.setattr(errors, "GRAPH_SIZE_CAP", size - 1)
    assert main(argv) == 3
    assert f"vertices + edges = {size} exceeds" in capsys.readouterr().err
    assert main([*argv, "--force"]) == 0
    assert capsys.readouterr().out == expected


# ---------------------------------------------------------------------------
# Fuzz: argument vectors for every subcommand from small pools of values
# ---------------------------------------------------------------------------

COUNTS = ["0", "-3", "1", "3", "5", "1.5", HUGE]  # sample's --n: n * samples stays refusable
GRAPH_COUNTS = [*COUNTS, BIG]
LISTS = ["2,1,3", "1", "1,2,3,4,5", "1,1,3", "1,,2", "x", "", "-1", "3,-2", "1-2,2-3",
         "1-1", "1-2-3", "4,4", "3000,3000"]
FORMATS = ["text", "csv", "json", "xml"]
FAMILY = {
    "--family": ["path", "cycle", "star", "wheel", "multipartite", "explicit", "tree"],
    "--n": GRAPH_COUNTS, "--leaves": GRAPH_COUNTS, "--spokes": GRAPH_COUNTS,
    "--parts": LISTS, "--edges": LISTS,
}


def _argv(command, pools, flags=(), required=()):
    """`command` with any subset of the options in `pools` (always those in
    `required`), each with a value from its pool, and any subset of `flags`."""
    parts = []
    for option, values in pools.items():
        pick = st.sampled_from([[option, value] for value in values])
        parts.append(pick if option in required else st.none() | pick)
    parts += [st.sampled_from([[], [flag]]) for flag in flags]
    return st.tuples(*parts).map(
        lambda drawn: [command, *itertools.chain.from_iterable(p for p in drawn if p)]
    )


ARGV = st.one_of(
    _argv("simulate", {**FAMILY, "--order": LISTS, "--format": FORMATS}, ["--verbose"]),
    _argv("expect", {
        **FAMILY, "--method": ["recurrence", "closed-form", "brute", "guess"],
        "--format": FORMATS,
    }, ["--as-printed", "--caro-wei", "--float"]),
    _argv("extremal", {
        "--n": COUNTS, "--bound": ["worst", "best", "middle"],
        "--method": ["brute", "recurrence", "egf", "formula", "all", "guess"],
        "--witnesses": ["0", "-1", "3"], "--format": FORMATS,
    }),
    _argv("series", {"--order": COUNTS, "--format": FORMATS}),
    _argv("sample", {
        "--n": COUNTS, "--samples": ["0", "-1", "1", "300", HUGE],
        "--seed": ["0", "-1", "7", str(2**64)], "--workers": ["0", "-1", "1"],
        "--normalization": ["none", "per_vertex", "centered", "log"],
        "--format": FORMATS,
    }, ["--plot-data"]),
    # A valid verify runs the quick suite, about 0.5 s, so most depths are bad.
    _argv("verify", {"--depth": ["deep", "", "Quick", "full ", "quick"],
                     "--format": FORMATS}, required=["--depth"]),
)


@settings(max_examples=150, deadline=None, database=None, print_blob=True)
@given(ARGV)
def fuzz_cli_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert code == 0 or err.getvalue().strip(), argv
    assert "unexpected" not in err.getvalue(), (argv, err.getvalue())  # no stray exception


def test_cli_survives_fuzzed_argument_vectors():
    # No --force and no sample past a few hundred draws; the huge values meet
    # a guard at once, and the capped child bounds the damage if one does not.
    probe = f"import sys; sys.path.insert(0, {TESTS!r}); import test_cli_fuzz; " \
            "test_cli_fuzz.fuzz_cli_main()"
    result = _run_capped(["-c", probe], timeout=300)
    assert result.returncode == 0, result.stderr[-4000:]
