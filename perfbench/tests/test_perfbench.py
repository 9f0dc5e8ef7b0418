"""Tests of the benchmark itself: statistics, span self time, seeded input
generation, output checks and a tiny run of every workload.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    compare_max_n=4,
    catalan_terms=8,
    aerated_terms=8,
    fibonacci_terms=6,
    rogers_terms=5,
    roundtrip_order=12,
    roundtrip_terms=12,
    symbolic_max_n=4,
    catalan_sweep=(3, 4, 6),
    symbolic_sweep=(2, 3, 4),
    order_sweep=(6, 8, 12),
)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(v) for v in range(1, 31)]  # 30 samples
    value, percentile, count = stats.tail(samples)
    assert value == 20.0 and count == 30
    assert percentile == pytest.approx(100 * 20 / 30)
    assert sum(s > value for s in samples) == 10
    value, percentile, _ = stats.tail([float(v) for v in range(100, 0, -1)])
    assert (value, percentile) == (90.0, 90.0)


def test_tail_falls_back_to_the_median_below_twenty_samples():
    assert stats.tail([5.0, 1.0, 3.0]) == (3.0, 50.0, 3)
    assert stats.tail([float(v) for v in range(19)]) == (9.0, 50.0, 19)
    assert stats.tail([float(v) for v in range(20)]) == (9.0, 50.0, 20)


def test_slope_recovers_a_power_law():
    sizes = [10, 20, 40]
    assert stats.slope(sizes, [3e-6 * n**3 for n in sizes]) == pytest.approx(3.0)


def test_self_time_subtracts_the_time_children_cover():
    S = tracing.Span
    spans = [
        S("op", 0.0, 10.0, -1, 0),
        S("a", 1.0, 4.0, 0, 0),  # 3 s, of which its child covers 1
        S("b", 2.0, 3.0, 1, 0),
        S("a", 5.0, 9.0, 0, 0),  # 4 s, two overlapping children cover 2.5
        S("c", 5.5, 7.0, 3, 0),
        S("c", 6.5, 8.0, 3, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.5, 1.5])


def test_tracer_records_nested_spans_with_parents():
    tracer = tracing.Tracer(op=7)
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("outer", -1, 7), ("inner", 0, 7)]
    assert all(s.end >= s.start for s in tracer.spans)


def test_inputs_depend_only_on_the_seed(tmp_path):
    def files(seed, where):
        workloads.build("roundtrip", seed, where, TINY)
        return {p.name: p.read_bytes() for p in sorted(where.iterdir())}

    first, again, other = files(3, tmp_path / "a"), files(3, tmp_path / "b"), files(4, tmp_path / "c")
    assert first == again
    assert first != other
    assert len(first) == workloads.ROUNDTRIP_FRACTIONS


def test_catalog_inputs_match_the_cli_catalog():
    from cfhankel.catalog import catalog_cfraction
    from cfhankel.cfrac import cfraction_to_json

    for name, gamma in [("catalan", None), ("aerated-catalan", None), ("fibonacci-cf", None),
                        ("rogers-ramanujan", None), ("rogers-ramanujan", Fraction(2))]:
        expected = cfraction_to_json(catalog_cfraction(name, gamma=gamma, terms=12))
        assert workloads.catalog_fraction(name, 12, gamma) == expected


def test_reference_reproduces_the_literature_fibonacci_values():
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    coeffs = workloads.cfrac_coefficients(fib, fib, 24)
    assert workloads.hankel_dets(coeffs, 12) == list(workloads.FIBONACCI_HANKEL)


def test_checks_reject_wrong_outputs(tmp_path):
    verify = workloads.build("verify", 0, tmp_path / "v", TINY).ops[0]
    report = {"convention": "sign-corrected", "convention_consistent": True,
              "claims": [{"id": k, "verdict": v} for k, v in workloads.VERIFY_VERDICTS.items()]}
    assert verify.verdict([((1,), json.dumps(report))]) is None
    assert verify.verdict([((0,), json.dumps(report))]) is not None
    report["claims"][0]["verdict"] = "refuted"
    assert verify.verdict([((1,), json.dumps(report))]) is not None

    roundtrip = workloads.build("roundtrip", 0, tmp_path / "r", TINY).ops[0]
    [(eval_args, expand_args)] = roundtrip.calls
    assert eval_args[0] == "eval" and expand_args[:2] == ("expand", "--series")
    assert roundtrip.verdict([((0, 0), "not json")]) is not None
    empty = {"a": [], "q": [], "status": {"truncated": 12}}
    assert roundtrip.verdict([((0, 0), json.dumps(empty))]) is not None

    compare = workloads.build("symbolic", 0, tmp_path / "s", TINY).ops[0]
    malformed = {"equal": True, "oracle": ["1"] * 5, "closed": ["1"] * 5}
    assert compare.verdict([((0,), json.dumps(malformed))]).startswith("malformed output")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_of_each_workload(name, tmp_path):
    import cfhankel
    import cfhankel.cli  # noqa: F401

    workload = workloads.build(name, 1, tmp_path, TINY)
    env = run.child_env()
    with (tmp_path / "stderr.log").open("wb") as errors:
        metrics, details = run.measure(workload, 0.0, env, errors)
    assert details["failures"] == [] and details["ops"] == 1
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert metrics["ok_frac"] == 1.0 and metrics["op_p50_s"] > 0 and metrics["setup_s"] > 0

    result = tracing.run_traced(cfhankel, workload, 0.0)
    assert result.failures == []
    assert set(result.metrics) == set(tracing.PER_LAYER)
    for sweep in workload.sweeps:
        assert result.metrics[sweep.metric] > 0


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
