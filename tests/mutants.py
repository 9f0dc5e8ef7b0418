"""The mutant table: one-line changes to ``src/`` that tier-1 must notice.

Each entry names a file under ``src/cfhankel``, a piece of its text that
occurs there exactly once, the text that replaces it, and either the test
written to kill the mutant or the reason it is equivalent (no input can
tell it from the original).  For each entry the script copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory, applies the
one change there, and runs the tier-1 command with ``-x``:

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors -x

It never edits the checkout.  Run it from anywhere, naming entries to run
only those:

    python tests/mutants.py [name ...]

It prints one line per mutant and exits 1 when a mutant not marked
equivalent survives, an equivalent one is killed, or an entry's text is
not found exactly once.  A kernel change that adds a line worth pinning
adds its mutant here.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIER_1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-x",
          "-p", "no:cacheprovider"]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/cfhankel
    old: str
    new: str
    killed_by: str = ""  # the test written to kill it
    equivalent: str = ""  # or why no test can


WINDOW = "max_n > cf.status.reliable_order // 2"

MUTANTS = [
    Mutant("window-rounds-up", "closedform.py", WINDOW,
           "max_n > (cf.status.reliable_order + 1) // 2",
           killed_by="tests/test_closedform.py::TestTruncationWindow::"
                     "test_window_is_half_the_reliable_order"),
    Mutant("window-dropped", "closedform.py",
           f"isinstance(cf.status, Truncated) and {WINDOW}", "False",
           killed_by="tests/test_closedform.py::TestTruncationWindow::"
                     "test_past_the_window_is_refused"),
    Mutant("verify-ignores-convention", "cli.py",
           "1 if refuted or not report.convention_consistent else 0", "1 if refuted else 0",
           killed_by="tests/test_cli.py::TestPipelines::"
                     "test_verify_fails_on_an_inconsistent_convention"),
    Mutant("zero-poly-equals-constant", "exact.py",
           "return self.degree == 0 and", "return self.degree <= 0 and",
           killed_by="tests/test_exact.py::TestParamPoly::test_zero_compares_with_numbers"),
    Mutant("p-sequence-coerces", "closedform.py",
           'int_from_json(v, "exponent") for v in qtilde', "int(v) for v in qtilde",
           killed_by="tests/test_closedform.py::TestPSequence::"
                     "test_non_integer_entries_are_refused_not_coerced"),
    Mutant("cfraction-takes-bools", "cfrac.py",
           'int_from_json(e, "exponent") for e in q', "e for e in q",
           killed_by="tests/test_values.py::test_construction_still_validates"),
    Mutant("value-at-partial-sum", "catalog.py",
           "n = index[depth] - 1", "n = index[depth]",
           killed_by="tests/test_catalog.py::TestVerifyClaims::"
                     "test_tail_values_are_the_symbolic_oracle"),
    Mutant("minor-top-row", "hankel_oracle.py", "if top == k else", "if top <= k else",
           equivalent="after k + 1 rows are taken their largest index is at least k"),
    Mutant("one-or-more-conventions", "catalog.py",
           "len(surviving) == 1", "len(surviving) >= 1",
           equivalent="h_0 is +-1, so the two conventions never both survive"),
]


def run(mutant: Mutant) -> tuple[str, bool]:
    """(what happened, whether it is what the table expects)."""
    with tempfile.TemporaryDirectory(prefix="cfhankel-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / "src" / "cfhankel" / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"text found {text.count(mutant.old)} times, not once", False
        target.write_text(text.replace(mutant.old, mutant.new))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH="src" + (f":{path}" if path else ""))
        done = subprocess.run(TIER_1, cwd=work, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return "survived", bool(mutant.equivalent)
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    killer = first.group(1) if first else f"exit {done.returncode}"
    return f"killed by {killer}", not mutant.equivalent


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failures = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        outcome, expected = run(mutant)
        why = (f"equivalent: {mutant.equivalent}" if mutant.equivalent
               else f"test: {mutant.killed_by}")
        print(f"{'ok  ' if expected else 'FAIL'} {mutant.name}: {outcome} ({why})", flush=True)
        failures += not expected
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
