"""What a process loads: the package is lazy, and each subcommand imports
only the modules it runs.

Each start-up case runs one subcommand through ``cli.main`` in a fresh
interpreter (``-S``, so no site hook loads modules first) and reads back
the ``cfhankel.*`` and ``dataclasses`` entries of ``sys.modules``.  The
fresh interpreter imports the same ``cfhankel`` as this process: the
checkout's ``src/`` under ``tests/conftest.py``, an installed package
under ``--noconftest``.
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
from cfhankel.cli import main

# the directory that holds the package under test
PACKAGE_ROOT = Path(cfhankel.__file__).resolve().parents[1]
MIXED = Path(__file__).resolve().parent / "golden" / "inputs" / "mixed.json"

RUN_ONE = """
import contextlib, io, json, sys
from cfhankel import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
loaded = [m for m in sys.modules if m.startswith("cfhankel.") or m == "dataclasses"]
print(json.dumps([code, sorted(loaded)]))
"""


def fresh_python(code: str, *args: str, stdin: str = "") -> str:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        input=stdin, capture_output=True, text=True, env=env, timeout=120,
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
    assert "dataclasses" not in loaded
    assert not absent & set(loaded), f"{command} loaded {sorted(absent & set(loaded))}"
    assert {"cfhankel.cli", "cfhankel.cfrac", "cfhankel.exact"} <= set(loaded)


def test_importing_the_package_loads_no_submodule():
    code = (
        "import sys, cfhankel\n"
        "before = sorted(m for m in sys.modules if m.startswith('cfhankel.'))\n"
        "exact = cfhankel.exact\n"
        "print(before, exact.__name__, 'cfhankel.catalog' in sys.modules)"
    )
    assert fresh_python(code).split() == ["[]", "cfhankel.exact", "False"]


def test_every_exported_name_is_its_submodules_object():
    assert len(cfhankel.__all__) == len(set(cfhankel.__all__)) == 31
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
                 "index_profile", "IndexProfile"):
        assert not hasattr(cfhankel, name), name
    assert cfhankel.__version__ == "0.1.0"
