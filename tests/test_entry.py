"""`python -m pathdom` end to end: what the hard exit of `cli.entry` keeps.

`entry` flushes stdout and stderr once `main` returns and ends the process
with `os._exit`, so nothing is written at interpreter teardown.  The child
processes here run with PYTHONUNBUFFERED unset, so their stdout is block
buffered and reaches the reader only through that flush.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import pathdom
from pathdom import cli
from pathdom.cli import main

SRC = os.path.dirname(os.path.dirname(pathdom.__file__))


def _env(unbuffered=False):
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONUNBUFFERED", "PYTHONPATH")}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _pathdom(*argv, env=None, stdout=subprocess.PIPE, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "pathdom", *argv], env=env or _env(), stdout=stdout,
        stderr=subprocess.PIPE, timeout=120, **kwargs,
    )


def _in_process(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue().encode("utf-8")


def test_piped_output_equals_in_process_output():
    argv = ("series", "--order", "400")
    result = _pathdom(*argv)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == _in_process(*argv)


def test_a_forked_pool_writes_what_one_worker_writes():
    # The pool's workers fork from the process that refused _hashlib.
    argv = ("sample", "--n", "300", "--samples", "9000", "--seed", "5", "--workers")
    one, two = _pathdom(*argv, "1"), _pathdom(*argv, "2")
    assert one.returncode == two.returncode == 0, two.stderr
    assert (two.stdout, two.stderr) == (one.stdout, one.stderr)


def test_sample_sidecar_on_stderr_parses():
    argv = ("sample", "--n", "200", "--samples", "1000", "--seed", "3")
    result = _pathdom(*argv, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.encode("utf-8") == _in_process(*argv)
    sidecar = json.loads(result.stderr)
    assert (sidecar["n"], sidecar["samples"], sidecar["seed"]) == (200, 1000, 3)


def test_sample_sidecar_file_parses_with_output(tmp_path):
    target = tmp_path / "hist.csv"
    result = _pathdom("sample", "--n", "200", "--samples", "1000", "--seed", "3",
                      "--output", str(target), text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    assert target.read_text(encoding="utf-8").startswith("gamma,count\n")
    sidecar = json.loads((tmp_path / "hist.csv.json").read_text(encoding="utf-8"))
    assert sidecar["seed"] == 3


@pytest.mark.parametrize("argv,code", [
    (["--version"], 0),
    (["expect", "--family", "path", "--n", "0"], 1),
    (["no-such-command"], 1),
    (["series", "--order", "2000"], 3),
])
def test_exit_codes_are_kept(argv, code):
    result = _pathdom(*argv, text=True)
    assert result.returncode == code, result.stderr
    if code:
        assert "error" in result.stderr and "Traceback" not in result.stderr
    else:
        assert result.stdout == f"pathdom {pathdom.__version__}\n"


def test_pool_workers_are_gone_when_the_command_ends():
    commands = [  # argv, and a check of its output
        (["sample", "--n", "200", "--samples", "10000", "--seed", "5", "--workers", "2"],
         lambda out: sum(int(row.split(",")[1]) for row in out.split()[1:]) == 10000),
        (["verify", "--depth", "full"],  # its sample runs on forked processes
         lambda out: [line[:4] for line in out.splitlines()] == ["PASS"] * 10),
    ]
    for argv, holds in commands:
        child = subprocess.Popen(
            [sys.executable, "-m", "pathdom", *argv], env=_env(), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        assert holds(out), out
        # The child led its own process group, and no member of it is left.
        with pytest.raises(ProcessLookupError):
            os.killpg(child.pid, 0)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["expect", "--family", "path", "--n", "10"],  # held in the buffer until the flush
    ["series", "--order", "400"],  # overflows the buffer inside main
    ["--version"],  # written by argparse, which swallows a failed write
    ["--help"],
])
def test_closed_stdout_exits_1_with_one_error_line(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes anything
    try:
        result = _pathdom(*argv, stdout=write_end, env=_env(unbuffered), text=True)
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and "Broken pipe" in result.stderr
    assert result.stderr.count("\n") == 1
    assert "Exception ignored" not in result.stderr
    assert "Traceback" not in result.stderr


class _Exited(Exception):
    pass


@pytest.fixture
def exits(monkeypatch):
    """Codes passed to os._exit, which raises instead of ending pytest."""
    codes = []

    def record(code):
        codes.append(code)
        raise _Exited

    monkeypatch.setattr(cli.os, "_exit", record)
    return codes


def test_entry_flushes_and_exits_with_mains_code(monkeypatch, exits):
    monkeypatch.setattr(cli, "main", lambda: cli.EXIT_RESOURCE)
    with pytest.raises(_Exited):
        cli.entry()
    assert exits == [cli.EXIT_RESOURCE]


def test_failed_flush_exits_1_with_an_error_line(monkeypatch, capsys, exits):
    class Closed(io.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "main", lambda: cli.EXIT_OK)
    monkeypatch.setattr(sys, "stdout", Closed())
    with pytest.raises(_Exited):
        cli.entry()
    assert exits == [cli.EXIT_INVALID]
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_keyboard_interrupt_unwinds(monkeypatch, exits):
    def interrupted():
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "main", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.entry()
    assert exits == []
