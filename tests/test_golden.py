"""Byte stability of the command line: the stdout and exit codes of fixed
pipelines, replayed through ``cli.main`` and compared with recorded files.

A case is a pipeline of commands.  The first command reads its input file
from ``golden/inputs`` on stdin (or nothing), and each later command reads
the previous command's stdout.  ``golden/<case>.out`` holds the last
stdout and ``golden/exit_codes.json`` every command's exit code.  A case
may also bound the wall time of its whole replay, and a case whose output
is too large or too slow to be worth pinning checks its exit codes only
and has no ``.out``.

The cases run against whichever ``cfhankel`` this process imports:
``tests/conftest.py`` puts ``src/`` first, and with ``--noconftest`` an
installed package (or any copy on ``PYTHONPATH``) is the one under test.

To record the files again after a deliberate change of output, run
``PYTHONPATH=src python tests/test_golden.py [case ...]``; naming cases
records only those and keeps every other recorded file as it is.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import pytest

from cfhankel.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"


class Case(NamedTuple):
    source: str | None  # input file of the first command, or no stdin
    commands: list[tuple[str, ...]]
    seconds: float | None = None  # wall bound of the whole replay
    codes_only: bool = False  # no recorded stdout: check the exit codes


def _compare_catalog(name, terms, max_n, *extra):
    return Case(None, [("catalog", name, "--terms", str(terms), *extra),
                       ("compare", "--cfraction", "-", "--max-n", str(max_n))])


MIXED_EVAL = ("eval", "--cfraction", "-", "--order", "10")


CASES = {
    "verify": Case(None, [("verify", "--max-n", "12")]),
    "verify-max-n-96": Case(None, [("verify", "--max-n", "96")]),
    # one elimination per transform, cut at the first pivotless column;
    # eliminating every order separately took about 80 s
    "verify-max-n-200": Case(None, [("verify", "--max-n", "200")], seconds=20, codes_only=True),
    "compare-catalan": _compare_catalog("catalan", 60, 24),
    "compare-aerated-catalan": _compare_catalog("aerated-catalan", 40, 24),
    "compare-fibonacci-cf": _compare_catalog("fibonacci-cf", 12, 24),
    "compare-rogers-ramanujan-gamma-2": _compare_catalog(
        "rogers-ramanujan", 12, 24, "--gamma", "2"
    ),
    "compare-rogers-ramanujan-symbolic": _compare_catalog("rogers-ramanujan", 12, 10),
    # the expansion runs over int, gamma-polynomials packed; on
    # Fraction/ParamPoly arithmetic it took about 20 s
    "rogers-ramanujan-20-eval-200": Case(
        None,
        [("catalog", "rogers-ramanujan", "--terms", "20"),
         ("eval", "--cfraction", "-", "--order", "200")],
        seconds=5,
        codes_only=True,
    ),
    "mixed-closed": Case("mixed.json", [("closed", "--cfraction", "-", "--max-n", "8")]),
    "mixed-closed-as-printed": Case(
        "mixed.json", [("closed", "--cfraction", "-", "--max-n", "8", "--convention", "as-printed")]
    ),
    "mixed-eval": Case("mixed.json", [MIXED_EVAL]),
    "mixed-expand": Case("mixed.json", [MIXED_EVAL, ("expand", "--series", "-")]),
    "mixed-hankel": Case("mixed.json", [MIXED_EVAL, ("hankel", "--series", "-", "--max-n", "5")]),
    "mixed-compare": Case("mixed.json", [("compare", "--cfraction", "-", "--max-n", "5")]),
    # p = 1, 0, 1, 0, 3, -2: depth 4 lands at 4 > 3, so p_5 is never read;
    # --max-n 4 reads it and refuses
    "negative-p-late-compare": Case(
        "negative-p-late.json", [("compare", "--cfraction", "-", "--max-n", "3")]
    ),
    "negative-p-late-compare-max-n-4": Case(
        "negative-p-late.json", [("compare", "--cfraction", "-", "--max-n", "4")], codes_only=True
    ),
    # a fraction extracted from 9 terms fixes h_n only for n <= 8 // 2
    "catalan-8-expand-closed": Case(
        "catalan-8.json",
        [("expand", "--series", "-"), ("closed", "--cfraction", "-", "--max-n", "6")],
    ),
    # catalan-8's eight extracted terms and a ninth, -1 x, past the reliable
    # order 8: q_1 + ... + q_9 = 9, so whether depth 9 doubles n = 4 is not
    # fixed, and that point's multiplicity is null
    "catalan-8-plus-closed": Case(
        "catalan-8-plus.json", [("closed", "--cfraction", "-", "--max-n", "4")]
    ),
    # a generic integer series: the a_k have denominators of thousands of
    # bits, and the expansion comes back to the 97 input terms; evaluate
    # stays on reduced Fractions, and over int, with x -> D x, the eval
    # took about 65 s
    "generic-int-96-expand-eval": Case(
        "generic-int-96.json",
        [("expand", "--series", "-"), ("eval", "--cfraction", "-", "--order", "96")],
        seconds=5,
    ),
    "generic-int-96-expand-compare": Case(
        "generic-int-96.json",
        [("expand", "--series", "-"), ("compare", "--cfraction", "-", "--max-n", "48")],
    ),
    "rational-0-hankel": Case(
        "rational-0.json",
        [("eval", "--cfraction", "-", "--order", "24"), ("hankel", "--series", "-", "--max-n", "12")],
    ),
    **{
        f"rational-{i}-roundtrip": Case(
            f"rational-{i}.json",
            [("eval", "--cfraction", "-", "--order", "40"), ("expand", "--series", "-")],
        )
        for i in range(4)
    },
}


def replay(case: str) -> tuple[list[int], str]:
    """Run a case's pipeline; return its exit codes and its last stdout."""
    source, commands = CASES[case].source, CASES[case].commands
    text = (GOLDEN / "inputs" / source).read_text(encoding="utf-8") if source else ""
    codes = []
    saved_stdin = sys.stdin
    try:
        for argv in commands:
            sys.stdin = io.StringIO(text)
            out = io.StringIO()
            with redirect_stdout(out):
                codes.append(main(list(argv)))
            text = out.getvalue()
    finally:
        sys.stdin = saved_stdin
    return codes, text


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_and_exit_codes_are_recorded_bytes(case):
    start = perf_counter()
    codes, stdout = replay(case)
    seconds = perf_counter() - start
    assert codes == json.loads(EXIT_CODES.read_text(encoding="utf-8"))[case]
    bound = CASES[case].seconds
    assert bound is None or seconds <= bound, f"{case} took {seconds:.2f} s > {bound} s"
    recorded = GOLDEN / f"{case}.out"
    if CASES[case].codes_only:
        assert not recorded.exists(), f"{recorded.name} is stale: {case} checks exit codes only"
    else:
        assert stdout == recorded.read_text(encoding="utf-8")


if __name__ == "__main__":
    recorded = json.loads(EXIT_CODES.read_text(encoding="utf-8"))
    for name in sys.argv[1:] or CASES:
        recorded[name], stdout = replay(name)
        if not CASES[name].codes_only:
            (GOLDEN / f"{name}.out").write_text(stdout, encoding="utf-8")
    EXIT_CODES.write_text(json.dumps(dict(sorted(recorded.items())), indent=2) + "\n", encoding="utf-8")
