"""The mutant table: one-line changes to ``src/`` that the tests must notice.

Each entry names a file under ``src/cfhankel``, a piece of its text that
occurs there exactly once, the text that replaces it, and either the test
written to kill the mutant or the reason it is equivalent (no input can
tell it from the original).  The script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, once unchanged and once per
entry with its one change applied.  Each named killer first runs alone on
the unchanged copy and must pass there: a test that always fails would
"kill" any mutant.  An entry with a killer then runs that test alone on
its mutated copy:

    PYTHONPATH=src python -m pytest -q <killed_by>

and counts the mutant killed only when pytest exits 1 (a failure or an
error); exit 0 means it survived, and exits 2, 4 and 5 (a collection
error, a usage error such as a misspelled test id, nothing collected) mean
the entry is broken.  An equivalent entry runs the whole tier-1 command
with ``-x`` and must survive it:

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors -x

It never edits the checkout.  Run it from anywhere, naming entries to run
only those:

    python tests/mutants.py [name ...]

It prints one line per mutant and exits 1 when any entry is not as the
table says: a named test fails on the unchanged tree or does not kill its
mutant, an equivalent one is killed, or an entry's text is not found
exactly once.  A kernel change that adds a line worth pinning adds its
mutant here.  pytest does not collect this file.
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
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
TIER_1 = [*PYTEST, "--continue-on-collection-errors", "-x"]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/cfhankel
    old: str
    new: str
    killed_by: str = ""  # the test written to kill it
    equivalent: str = ""  # or why no test can


WINDOW = "max_n > order // 2"

MUTANTS = [
    Mutant("window-rounds-up", "closedform.py", WINDOW, "max_n > (order + 1) // 2",
           killed_by="tests/test_closedform.py::TestTruncationWindow::"
                     "test_window_is_half_the_reliable_order"),
    Mutant("window-dropped", "closedform.py", f"order is not None and {WINDOW}", "False",
           killed_by="tests/test_closedform.py::TestTruncationWindow::"
                     "test_past_the_window_is_refused"),
    Mutant("status-encoding-swapped", "cfrac.py",
           '"terminated" if order is None else {"truncated": order}',
           '{"truncated": order} if order is None else "terminated"',
           killed_by="tests/test_cfrac.py::TestSerialization::test_round_trip_terminated"),
    Mutant("verify-ignores-convention", "cli.py",
           "1 if refuted or not report.convention_consistent else 0", "1 if refuted else 0",
           killed_by="tests/test_cli.py::TestPipelines::"
                     "test_verify_fails_on_an_inconsistent_convention"),
    Mutant("constant-poly-built", "exact.py", "if len(cs) < 2:", "if len(cs) < 1:",
           killed_by="tests/test_exact.py::TestScalarProtocol::"
                     "test_every_result_is_in_normal_form"),
    Mutant("non-unit-divisor-unrefused", "exact.py",
           'raise NonInvertibleScalar(f"{self} has no inverse in the polynomial ring")',
           "return NotImplemented",
           killed_by="tests/test_exact.py::TestScalarProtocol::"
                     "test_division_raises_exactly_for_non_units"),
    Mutant("p-sequence-coerces", "closedform.py",
           'int_from_json(v, "exponent") for v in qtilde', "int(v) for v in qtilde",
           killed_by="tests/test_closedform.py::TestPSequence::"
                     "test_non_integer_entries_are_refused_not_coerced"),
    Mutant("cfraction-takes-bools", "cfrac.py",
           'int_from_json(e, "exponent") for e in q', "e for e in q",
           killed_by="tests/test_values.py::test_construction_still_validates"),
    Mutant("value-at-partial-sum", "catalog.py",
           "depth + 1)[-1]", "depth + 1)[-1] + 1",
           killed_by="tests/test_catalog.py::TestVerifyClaims::"
                     "test_tail_values_are_the_symbolic_oracle"),
    Mutant("depth-value-at-partial-sum", "catalog.py",
           "[m - 1 for m in", "[m for m in",
           killed_by="tests/test_catalog.py::TestVerifyClaims::test_confirmed_claims"),
    Mutant("index-sums-one-term-long", "catalog.py",
           "terms=count - 1).q)", "terms=count).q)",
           killed_by="tests/test_catalog.py::TestVerifyClaims::test_confirmed_claims"),
    Mutant("reader-takes-prefixes", "cli.py", "option = named.get(token)",
           "option = next((o for n, o in named.items() if n.startswith(token)), None)",
           killed_by="tests/test_cli.py::TestReader::test_reader_agrees_with_argparse"),
    Mutant("hard-exit-skips-flush", "cli.py",
           "sys.stdout.flush()\n    except", "pass\n    except",
           killed_by="tests/test_startup.py::test_a_command_line_exits_with_its_golden_code"
                     "[mixed-eval]"),
    Mutant("short-write-dropped", "cli.py", "while data:", "if data:",
           killed_by="tests/test_startup.py::test_a_reader_that_leaves_is_an_output_error"),
    Mutant("hard-exit-skips-atexit", "cli.py", "atexit._run_exitfuncs()", "pass",
           killed_by="tests/test_startup.py::test_atexit_handlers_still_run"),
    Mutant("claim-prints-empty-note", "catalog.py", ' if k != "note" or v}', "}",
           killed_by="tests/test_golden.py::test_stdout_and_exit_codes_are_recorded_bytes"
                     "[verify]"),
    Mutant("closed-runs-compare", "cli.py", "_CLOSED_FORM, _run_closed)",
           "_CLOSED_FORM, _run_compare)",
           killed_by="tests/test_golden.py::test_stdout_and_exit_codes_are_recorded_bytes"
                     "[mixed-closed]"),
    Mutant("oracle-width-one-bit-short", "exact.py",
           "p in polys]).bit_length() + 1", "p in polys]).bit_length()",
           killed_by="tests/test_exact.py::TestPackedProduct::"
                     "test_a_product_fills_the_narrowest_digit"),
    Mutant("linear-packs-at-width-zero", "exact.py",
           "any(len(p) > 1 for p in polys)", "any(len(p) > 2 for p in polys)",
           killed_by="tests/test_hankel_oracle.py::TestDeterminants::"
                     "test_bareiss_matches_cofactor_symbolic"),
    Mutant("horner-subtracts", "exact.py", "acc * x + c", "acc * x - c",
           killed_by="tests/test_hankel_oracle.py::TestPackedRoute::"
                     "test_pack_round_trip_at_the_digit_bound"),
    Mutant("add-shifted-one-too-far", "exact.py", "enumerate(r, q)", "enumerate(r, q + 1)",
           killed_by="tests/test_exact.py::TestParamPoly::test_eval_commutes_with_arithmetic"),
    Mutant("product-bound-ignores-the-exponent", "exact.py",
           "max(1, prod(norms)) ** exponent", "max(1, prod(norms))",
           killed_by="tests/test_exact.py::TestPackedProduct::"
                     "test_a_power_outgrows_its_base_norm"),
    Mutant("product-divisor-one-short", "exact.py",
           "scale ** (len(factors) * exponent)", "scale ** (len(factors) * exponent - 1)",
           killed_by="tests/test_exact.py::TestPackedProduct::"
                     "test_each_factor_brings_its_scale"),
    Mutant("zero-factor-unguarded", "exact.py", "max(1, prod(norms))", "prod(norms)",
           killed_by="tests/test_exact.py::TestPackedProduct::test_a_zero_factor_packs"),
    Mutant("quotient-takes-a-zero-constant", "exact.py", "if den[0] == 0:", "if False:",
           killed_by="tests/test_exact.py::TestSeries::test_reciprocal_errors"),
    Mutant("own-inverse-for-any-unit", "exact.py",
           "den[0] if den[0] == 1 else", "den[0] if den[0] != 0 else",
           killed_by="tests/test_exact.py::TestSeries::test_constant_reciprocal"),
    Mutant("divisor-last-coefficient-unread", "exact.py",
           "min(k + 1, len(den))", "min(k + 1, len(den) - 1)",
           killed_by="tests/test_exact.py::TestSeries::test_catalan_reciprocal"),
    Mutant("first-unused-row-at-k", "hankel_oracle.py",
           "unused[0][0] > k", "unused[0][0] >= k",
           killed_by="tests/test_hankel_oracle.py::TestTransform::"
                     "test_swapped_rows_give_no_leading_minor"),
    Mutant("unknown-json-key-ignored", "exact.py", "if unknown:", "if False:",
           killed_by="tests/test_cli.py::TestExitCodes::test_unknown_key_is_refused[series]"),
    Mutant("as-printed-sign-is-plus", "closedform.py",
           "return -1 if self is", "return 1 if self is",
           killed_by="tests/test_catalog.py::TestArbitration::"
                     "test_single_surviving_convention"),
    Mutant("edge-undetermined-at-odd-order", "closedform.py",
           "2 * profile[-1].n == order", "profile[-1].n == order // 2",
           killed_by="tests/test_closedform.py::TestTruncationWindow::"
                     "test_only_the_even_window_edge_is_undetermined"),
    Mutant("series-order-default-one-long", "exact.py",
           '"order", len(coeffs) - 1)', '"order", len(coeffs) + 1)',
           killed_by="tests/test_exact.py::TestSeries::test_json_order_is_optional"),
    Mutant("zero-exponent-accepted", "closedform.py",
           "any(v < 1 for v in q[1:])", "any(v < 0 for v in q[1:])",
           killed_by="tests/test_closedform.py::TestPSequence::"
                     "test_zero_exponent_after_a_zero_step_is_refused"),
    Mutant("parampoly-stores-raw-argument", "exact.py", "    __init__ = object.__init__", "",
           killed_by="tests/test_values.py::test_a_polynomial_stores_its_normal_form"),
    Mutant("field-count-check-loosened", "exact.py",
           "len(values) != len(self.__slots__)", "len(values) < len(self.__slots__)",
           killed_by="tests/test_values.py::test_a_wrong_field_count_is_refused"),
    Mutant("series-keeps-raw-coefficients", "exact.py",
           "tuple(map(as_scalar, coeffs))", "tuple(coeffs)",
           killed_by="tests/test_values.py::test_a_series_holds_exact_scalars"),
    Mutant("coeffs-wraps-a-polynomial", "exact.py",
           "return value.coeffs\n", "return (value,)\n",
           killed_by="tests/test_exact.py::TestScalarProtocol::"
                     "test_coeffs_tells_the_two_forms_apart"),
    Mutant("linear-poly-encoded-as-string", "exact.py",
           "len(coeffs) == 1 else", "len(coeffs) <= 2 else",
           killed_by="tests/test_exact.py::TestParamPoly::test_wire_format"),
    Mutant("closed-stdin-read", "cli.py", "if sys.stdin is None:", "if False:",
           killed_by="tests/test_startup.py::test_a_stdin_closed_at_start_is_a_usage_error"),
    Mutant("refused-stderr-raises", "cli.py", "except OSError:", "except ZeroDivisionError:",
           killed_by="tests/test_startup.py::test_a_refused_stderr_keeps_the_exit_code"
                     "[usage-error-unbuffered-full]"),
    Mutant("empty-help-written", "cli.py", "if shown.getvalue():", "if True:",
           killed_by="tests/test_startup.py::test_a_refused_help_is_an_output_error"
                     "[buffered-closed]"),
    Mutant("run-ignores-runner-code", "cli.py",
           "        return code\n    except _WriteError", "        return 0\n    except _WriteError",
           killed_by="tests/test_golden.py::test_stdout_and_exit_codes_are_recorded_bytes"
                     "[verify]"),
    Mutant("convention-option-ignored", "cli.py",
           "args.convention or DEFAULT_CONVENTION", "DEFAULT_CONVENTION",
           killed_by="tests/test_golden.py::test_stdout_and_exit_codes_are_recorded_bytes"
                     "[mixed-closed-as-printed]"),
    Mutant("claim-reads-one-more", "catalog.py",
           "read(len(expected))", "read(len(expected) + 1)",
           killed_by="tests/test_catalog.py::TestVerifyClaims::test_confirmed_claims"),
    Mutant("printer-drops-leading-minus", "exact.py",
           'else "-" + text[3:]', "else text[3:]",
           killed_by="tests/test_exact.py::TestParamPoly::test_str"),
    Mutant("one-or-more-conventions", "catalog.py",
           "len(surviving) == 1", "len(surviving) >= 1",
           equivalent="h_0 is +-1, so the two conventions never both survive"),
]


def copy_tree(work: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, work / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", work)


def run_pytest(command: list[str], work: Path) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH="src" + (f":{path}" if path else ""))
    return subprocess.run(command, cwd=work, env=env, capture_output=True, text=True)


def summary(done: subprocess.CompletedProcess) -> str:
    """The first failing test id, else stderr's first line or stdout's last."""
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    if first:
        return first.group(1)
    why = done.stderr.strip().splitlines()[:1] or done.stdout.strip().splitlines()[-1:]
    return "".join(why)


def failing_killers(tests: list[str]) -> dict[str, str]:
    """Each named killer that does not pass on the unchanged tree, with why."""
    with tempfile.TemporaryDirectory(prefix="cfhankel-clean-") as tmp:
        copy_tree(Path(tmp))
        done = {test: run_pytest([*PYTEST, test], Path(tmp)) for test in tests}
    return {test: f"fails on the unchanged tree, pytest exit {d.returncode}: {summary(d)}"
            for test, d in done.items() if d.returncode}


def run(mutant: Mutant) -> tuple[str, bool]:
    """(what happened, whether it is what the table expects)."""
    with tempfile.TemporaryDirectory(prefix="cfhankel-mutant-") as tmp:
        work = Path(tmp)
        copy_tree(work)
        target = work / "src" / "cfhankel" / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"text found {text.count(mutant.old)} times, not once", False
        target.write_text(text.replace(mutant.old, mutant.new))
        done = run_pytest(TIER_1 if mutant.equivalent else [*PYTEST, mutant.killed_by], work)
    if done.returncode == 0:
        return "survived", bool(mutant.equivalent)
    if done.returncode != 1:  # the test was not found, collected or run
        return f"pytest exit {done.returncode}: {summary(done)}", False
    return f"killed by {summary(done) or 'exit 1'}", not mutant.equivalent


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    broken = failing_killers(list(dict.fromkeys(m.killed_by for m in chosen if m.killed_by)))
    failures = 0
    for mutant in chosen:
        if mutant.killed_by in broken:
            outcome, expected = broken[mutant.killed_by], False
        else:
            outcome, expected = run(mutant)
        why = (f"equivalent: {mutant.equivalent}" if mutant.equivalent
               else f"test: {mutant.killed_by}")
        print(f"{'ok  ' if expected else 'FAIL'} {mutant.name}: {outcome} ({why})", flush=True)
        failures += not expected
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
