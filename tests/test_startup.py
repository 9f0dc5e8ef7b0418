"""What a process loads, and how it ends: the package is lazy, each
subcommand imports only the modules it runs, no process loads ``typing``
or ``dataclasses``, argparse loads only for help and usage errors, and a
command-line run skips the interpreter's teardown.

Each start-up case runs one subcommand through ``cli.main`` in a fresh
interpreter (``-S``, so no site hook loads modules first) and reads back
the ``cfhankel.*``, ``dataclasses``, ``typing`` and ``argparse`` entries
of ``sys.modules``.  The ending cases run ``main()`` without an argument
list, as the console script does.  The fresh interpreter imports the same
``cfhankel`` as this process: the checkout's ``src/`` under
``tests/conftest.py``, an installed package under ``--noconftest``.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import cfhankel
from cfhankel.cli import COMMANDS, SIZE_CEILING, build_parser, main

# the directory that holds the package under test
PACKAGE_ROOT = Path(cfhankel.__file__).resolve().parents[1]
MIXED = Path(__file__).resolve().parent / "golden" / "inputs" / "mixed.json"

# modules that no plain command line may load, nor a bare ``import cfhankel.cli``
UNWANTED = ("dataclasses", "typing")
RUN_ONE = f"""
import contextlib, io, json, sys
UNWANTED = {UNWANTED!r}
from cfhankel import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
loaded = [m for m in sys.modules if m.startswith("cfhankel.") or m in UNWANTED + ("argparse",)]
print(json.dumps([code, sorted(loaded)]))
"""


def python_env(unbuffered: bool = False) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT))
    env.pop("PYTHONUNBUFFERED", None)
    return env | {"PYTHONUNBUFFERED": "1"} if unbuffered else env


def fresh_python(code: str, *args: str, stdin: str = "") -> str:
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        input=stdin, capture_output=True, text=True, env=python_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def mixed_series() -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["eval", "--cfraction", str(MIXED), "--order", "10"]) == 0
    return out.getvalue()


CATALOG, CLOSED, ORACLE = "cfhankel.catalog", "cfhankel.closedform", "cfhankel.hankel_oracle"
# subcommand: (arguments, reads the mixed series on stdin, exit code as in
# golden/exit_codes.json, modules it must not load)
CASES = {
    "eval": (["--cfraction", str(MIXED), "--order", "10"], False, 0, {CATALOG, CLOSED, ORACLE}),
    # a symbolic leading coefficient stops the extraction
    "expand": (["--series", "-"], True, 3, {CATALOG, CLOSED, ORACLE}),
    "hankel": (["--series", "-", "--max-n", "5"], True, 0, {CATALOG, CLOSED}),
    "closed": (["--cfraction", str(MIXED), "--max-n", "8"], False, 0, {CATALOG, ORACLE}),
    "compare": (["--cfraction", str(MIXED), "--max-n", "5"], False, 0, {CATALOG}),
    "catalog": (["catalan", "--terms", "4"], False, 0, {ORACLE}),
    # verify refutes recorded claims
    "verify": (["--max-n", "12"], False, 1, set()),
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_a_subcommand_loads_only_what_it_runs(command):
    args, reads_series, exit_code, absent = CASES[command]
    stdin = mixed_series() if reads_series else ""
    code, loaded = json.loads(fresh_python(RUN_ONE, command, *args, stdin=stdin))
    assert code == exit_code
    assert not {*UNWANTED, "argparse"} & set(loaded), loaded
    assert not absent & set(loaded), f"{command} loaded {sorted(absent & set(loaded))}"
    assert {"cfhankel.cli", "cfhankel.cfrac", "cfhankel.exact"} <= set(loaded)


@pytest.mark.parametrize("args, exit_code", [
    (["compare", "--help"], 0),
    (["compare", "--cfraction", str(MIXED), "--max-n", str(SIZE_CEILING + 1)], 2),
], ids=["help", "usage-error"])
def test_help_and_usage_errors_load_argparse(args, exit_code):
    code, loaded = json.loads(fresh_python(RUN_ONE, *args))
    assert code == exit_code
    assert "argparse" in loaded


def test_importing_the_cli_loads_no_unwanted_module():
    code = f"import sys, cfhankel.cli\nprint([m for m in {UNWANTED!r} if m in sys.modules])"
    assert fresh_python(code).strip() == "[]"


def test_importing_the_package_loads_no_submodule():
    code = (
        "import sys, cfhankel\n"
        "before = sorted(m for m in sys.modules if m.startswith('cfhankel.'))\n"
        "exact = cfhankel.exact\n"
        "print(before, exact.__name__, 'cfhankel.catalog' in sys.modules)"
    )
    assert fresh_python(code).split() == ["[]", "cfhankel.exact", "False"]


def test_every_exported_name_is_its_submodules_object():
    assert len(cfhankel.__all__) == len(set(cfhankel.__all__)) == 29
    for name in cfhankel.__all__:
        module = getattr(cfhankel, cfhankel._EXPORTS[name])
        assert getattr(cfhankel, name) is getattr(module, name), name
    assert cfhankel.CFraction is cfhankel.cfrac.CFraction
    assert cfhankel.hankel_transform is cfhankel.hankel_oracle.hankel_transform
    assert set(cfhankel.__all__) <= set(dir(cfhankel))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from cfhankel import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cfhankel.__all__)


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        cfhankel.no_such_name
    # names that moved to the tests or were deleted must not ship
    for name in ("cli_main", "Poly", "det_cofactor", "closed_form_from_b", "closed_form_monomial",
                 "closed_form_value", "MonomialValue", "approximants", "ApproximantPair",
                 "hankel_matrix", "hankel_det", "series_quotient", "dense_transform_of",
                 "index_profile", "IndexProfile", "Terminated", "Truncated"):
        assert not hasattr(cfhankel, name), name
    assert cfhankel.__version__ == "0.1.0"


# the console script's own line: main() with no argument list
COMMAND_LINE = "import sys; from cfhankel.cli import main; sys.exit(main())"
GOLDEN = Path(__file__).resolve().parent / "golden"


def command_line(*args: str, stdin: bytes = b"", unbuffered: bool = False, setup: str = ""):
    return subprocess.run(
        [sys.executable, "-S", "-c", setup + COMMAND_LINE, *args], input=stdin,
        capture_output=True, env=python_env(unbuffered), timeout=120,
    )


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_verify_writes_the_golden_bytes(unbuffered):
    done = command_line("verify", "--max-n", "12", unbuffered=unbuffered)
    assert done.stdout == (GOLDEN / "verify.out").read_bytes()
    assert done.returncode == json.loads((GOLDEN / "exit_codes.json").read_text())["verify"][0]
    assert done.stderr == b""


# golden case or usage error: (arguments, input file on stdin); verify's
# exit 1 is checked above
ENDINGS = {
    "mixed-eval": (["eval", "--cfraction", "-", "--order", "10"], "mixed.json"),
    "negative-p-late-compare-max-n-4": (["compare", "--cfraction", "-", "--max-n", "4"],
                                        "negative-p-late.json"),
    # no golden case records exit 2: one line the direct reader takes and
    # one that argparse refuses
    "usage-error-read": (["catalog", "nosuch"], None),
    "usage-error-parsed": (["eval", "--cfraction", "-", "--order", str(SIZE_CEILING + 1)], None),
}


@pytest.mark.parametrize("case", sorted(ENDINGS))
def test_a_command_line_exits_with_its_golden_code(case):
    args, source = ENDINGS[case]
    done = command_line(*args, stdin=(GOLDEN / "inputs" / source).read_bytes() if source else b"")
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert [done.returncode] == codes.get(case, [2]), done.stderr
    recorded = GOLDEN / f"{case}.out"
    assert done.stdout == (recorded.read_bytes() if recorded.exists() else b"")
    assert b"Traceback" not in done.stderr


def test_atexit_handlers_still_run():
    setup = "import atexit; atexit.register(print, 'atexit ran'); "
    done = command_line("catalog", "catalan", "--terms", "2", setup=setup)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith(b"}\natexit ran\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("terms", [10, 400], ids=["flushed-at-exit", "written-at-once"])
def test_a_closed_stdout_is_an_output_error(unbuffered, terms):
    # the child reads its fraction from stdin, so the read end of its stdout
    # is closed before it writes.  Buffered, 400 terms outgrow stdout's
    # 8 KiB buffer and the write itself fails, while 10 terms fail only at
    # the final flush; unbuffered, every write fails at once
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["catalog", "catalan", "--terms", str(terms)]) == 0
    child = subprocess.Popen(
        [sys.executable, "-S", "-c", COMMAND_LINE, "eval", "--cfraction", "-", "--order", str(terms)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=python_env(unbuffered),
    )
    child.stdout.close()
    _, err = child.communicate(out.getvalue().encode(), timeout=120)
    assert_output_error(child.returncode, err)


def assert_output_error(code: int, err: bytes) -> None:
    assert code == 3
    assert err.startswith(b"error: cannot write output: ") and err.count(b"\n") == 1, err
    assert b"Traceback" not in err and b"Exception ignored" not in err


def expanding_catalan(tmp_path, stdout, unbuffered: bool) -> subprocess.Popen:
    """A child that expands the 1,000-term Catalan fraction into ``stdout``:
    about 300 KB, past a pipe's 64 KiB."""
    fraction = tmp_path / "catalan-1000.json"
    with open(fraction, "w") as out, redirect_stdout(out):
        assert main(["catalog", "catalan", "--terms", "1000"]) == 0
    return subprocess.Popen(
        [sys.executable, "-S", "-c", COMMAND_LINE, "eval", "--cfraction", str(fraction),
         "--order", "1000"],
        stdout=stdout, stderr=subprocess.PIPE, env=python_env(unbuffered),
    )


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_reader_that_leaves_is_an_output_error(tmp_path, unbuffered):
    # the reader takes one byte and goes while the child is still writing;
    # the write comes back short, and the text layer of an unbuffered stdout
    # would drop the rest of it and exit 0
    child = expanding_catalan(tmp_path, subprocess.PIPE, unbuffered)
    assert child.stdout.read(1) == b"{"
    child.stdout.close()
    _, err = child.communicate(timeout=120)
    assert_output_error(child.returncode, err)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_full_non_blocking_stdout_is_an_output_error(tmp_path, unbuffered):
    # nothing reads the pipe, so a write finds it full: buffered stdout
    # raises BlockingIOError, and unbuffered the count is None, which must
    # not be retried in a busy loop
    read_end, write_end = os.pipe()
    os.set_blocking(write_end, False)
    child = expanding_catalan(tmp_path, write_end, unbuffered)
    os.close(write_end)
    try:
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()  # nothing once it has exited
        os.close(read_end)
    assert_output_error(child.returncode, err)


@pytest.mark.parametrize("args", [["verify"], ["catalog", "catalan", "--terms", "3"]],
                         ids=["verify", "catalog"])
def test_a_stdout_closed_at_start_is_an_output_error(args):
    # sh closes fd 1 before the child starts, so its sys.stdout is None
    done = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-S", "-c", COMMAND_LINE, *args],
        capture_output=True, env=python_env(), timeout=120,
    )
    assert_output_error(done.returncode, done.stderr)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("stdout", [">/dev/full", ">&-"], ids=["full", "closed"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_refused_help_is_an_output_error(unbuffered, stdout):
    # argparse passes over an error writing help, which would exit 0 with
    # the help lost, or with no fd 1 sent to stderr; a usage error writes
    # nothing to stdout and stays exit 2
    def refused(*args):
        return subprocess.run(
            ["sh", "-c", f'exec "$@" {stdout}', "sh", sys.executable, "-S", "-c", COMMAND_LINE,
             *args],
            stderr=subprocess.PIPE, env=python_env(unbuffered), timeout=120,
        )

    done = refused("compare", "--help")
    assert_output_error(done.returncode, done.stderr)
    done = refused("compare", "--max-n", str(SIZE_CEILING + 1))
    assert done.returncode == 2
    assert done.stderr.startswith(b"usage: cfhankel compare"), done.stderr


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_is_the_parsers_own(command, capsys):
    parser = build_parser()
    if command is not None:
        parser = parser._subparsers._group_actions[0].choices[command]
    assert main(["--help"] if command is None else [command, "--help"]) == 0
    assert capsys.readouterr() == (parser.format_help(), "")


def test_a_stdin_closed_at_start_is_a_usage_error():
    # sh closes fd 0 before the child starts, so its sys.stdin is None:
    # input that cannot be read
    done = subprocess.run(
        ["sh", "-c", 'exec "$@" <&-', "sh", sys.executable, "-S", "-c", COMMAND_LINE,
         "expand", "--series", "-"],
        capture_output=True, env=python_env(), timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == b""
    assert done.stderr == b"usage error: stdin is closed\n"


# a failure that stderr should report: (arguments, exit code)
REPORTED = {
    "usage-error": (["catalog", "nosuch"], 2),
    "computation-error": (["compare", "--cfraction",
                           str(GOLDEN / "inputs" / "negative-p-late.json"), "--max-n", "8"], 3),
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("stderr", ["2>/dev/full", "2>&-"], ids=["full", "closed"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("case", sorted(REPORTED))
def test_a_refused_stderr_keeps_the_exit_code(case, unbuffered, stderr):
    # the message is lost, but the exit code still says what went wrong: an
    # error raised while writing it would exit 1, which reads as a
    # disagreement, and a closed stderr must not send it to stdout instead
    args, exit_code = REPORTED[case]
    done = subprocess.run(
        ["sh", "-c", f'exec "$@" {stderr}', "sh", sys.executable, "-S", "-c", COMMAND_LINE,
         *args],
        stdout=subprocess.PIPE, env=python_env(unbuffered), timeout=120,
    )
    assert done.returncode == exit_code
    assert done.stdout == b""
