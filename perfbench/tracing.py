"""In-process traced run: spans around the public layers of cfhankel,
recorded from the benchmark's own files.

Each traced name is rebound, for the duration of a traced pass, in every
``cfhankel.*`` module that holds it, so calls between modules and within
one module both pass through the wrapper.  ``ParamPoly.__mul__`` is
wrapped on the class.  Spans stay in memory and are written out at the
end of the run.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import io
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import stats
from workloads import Call, Outcome, Workload

MODULES = ("exact", "cfrac", "hankel_oracle", "closedform", "catalog", "cli")
# (module, function) -> layer name of its spans
LAYERS = {
    ("hankel_oracle", "matrix_det"): "hankel_oracle.matrix_det",
    ("hankel_oracle", "hankel_transform"): "hankel_oracle.hankel_transform",
    ("exact", "series_reciprocal"): "exact.series_reciprocal",
    ("cfrac", "evaluate"): "cfrac.evaluate",
    ("cfrac", "correspond"): "cfrac.correspond",
    ("closedform", "dense_transform"): "closedform.dense_transform",
    ("catalog", "select_convention"): "catalog.select_convention",
    ("catalog", "verify_claims"): "catalog.verify_claims",
}
PARAMPOLY_MUL = "exact.parampoly_mul"
DECODE, ENCODE = "cli.decode", "cli.encode"
OP = "op"

# The per-layer metrics of every traced run, with their units.
PER_LAYER = {
    "hankel_oracle.matrix_det.calls": "count",
    "hankel_oracle.matrix_det.self_s": "s",
    "hankel_oracle.hankel_transform.calls": "count",
    "hankel_oracle.hankel_transform.self_s": "s",
    "hankel_oracle.hankel_transform.slope": "exponent",
    "exact.series_reciprocal.calls": "count",
    "exact.series_reciprocal.self_s": "s",
    "cfrac.evaluate.calls": "count",
    "cfrac.evaluate.self_s": "s",
    "cfrac.evaluate.slope": "exponent",
    "cfrac.correspond.calls": "count",
    "cfrac.correspond.self_s": "s",
    "cfrac.correspond.slope": "exponent",
    "exact.fraction_ops": "count",
    "exact.parampoly_mul.calls": "count",
    "exact.parampoly_mul.self_s": "s",
    "closedform.dense_transform.calls": "count",
    "closedform.dense_transform.self_s": "s",
    "catalog.select_convention.incl_s": "s",
    "catalog.verify_claims.self_s": "s",
    "cli.decode.self_s": "s",
    "cli.encode.self_s": "s",
    "trace.overhead_frac": "frac",
}

# Fraction methods that do one arithmetic operation each.
FRACTION_OPS = {"_add", "_sub", "_mul", "_div", "_floordiv", "_divmod", "_mod", "__pow__", "__rpow__", "__neg__"}

SWEEP_REPEATS = 3


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for none
    op: int


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    op: int = -1
    _open: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, open_spans[-1] if open_spans else -1, self.op)
            open_spans.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                open_spans.pop()
                span.end = clock()

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _targets() -> dict[object, str]:
    """Original function -> layer name, for every traced function."""
    modules = {name: sys.modules[f"cfhankel.{name}"] for name in MODULES}
    targets = {getattr(modules[mod], fn): layer for (mod, fn), layer in LAYERS.items()}
    for module in modules.values():
        for attr, value in vars(module).items():
            if callable(value) and getattr(value, "__module__", "").startswith("cfhankel"):
                if attr.endswith("_from_json"):
                    targets[value] = DECODE
                elif attr.endswith("_to_json"):
                    targets[value] = ENCODE
    return targets


@contextlib.contextmanager
def instrumented(tracer: Tracer, cfhankel):
    """Rebind every traced function to a span-recording wrapper."""
    targets = _targets()
    wrappers = {id(fn): tracer.wrap(layer, fn) for fn, layer in targets.items()}
    undo = []
    for name, module in list(sys.modules.items()):
        if name == "cfhankel" or name.startswith("cfhankel."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
    poly = cfhankel.exact.ParamPoly
    original_mul = poly.__dict__["__mul__"]
    mul = tracer.wrap(PARAMPOLY_MUL, original_mul)
    for attr, value in list(vars(poly).items()):
        if value is original_mul:
            undo.append((poly, attr, value))
            setattr(poly, attr, mul)
    try:
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def run_call(main, call: Call) -> Outcome:
    """Run a pipeline in this process through ``cfhankel.cli.main``."""
    codes, text = [], ""
    for argv in call:
        out = io.StringIO()
        saved_stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(list(argv)))
        finally:
            sys.stdin = saved_stdin
        text = out.getvalue()
    return tuple(codes), text


def run_calls(main, calls: tuple[Call, ...]) -> list[Outcome]:
    return [run_call(main, call) for call in calls]


def fraction_op_count(main, calls: tuple[Call, ...]) -> tuple[int, list[Outcome]]:
    """Fraction arithmetic calls made by one op, from a cProfile pass."""
    profile = cProfile.Profile()
    outcomes = profile.runcall(run_calls, main, calls)
    profile.create_stats()
    count = sum(
        counts[1]
        for (filename, _, func), counts in profile.stats.items()
        if func in FRACTION_OPS and filename.endswith("fractions.py")
    )
    return count, outcomes


def _sweep_slope(cfhankel, sweep) -> float:
    cf = cfhankel.cfraction_from_json(json.loads(sweep.source.read_text(encoding="utf-8")))
    times = []
    for size in sweep.sizes:
        if sweep.function == "hankel_transform":
            coeffs = cfhankel.evaluate(cf, 2 * size).coeffs
            run = functools.partial(cfhankel.hankel_transform, coeffs, size)
        elif sweep.function == "evaluate":
            run = functools.partial(cfhankel.evaluate, cf, size)
        else:
            run = functools.partial(cfhankel.correspond, cfhankel.evaluate(cf, size))
        samples = []
        for _ in range(SWEEP_REPEATS):
            start = time.perf_counter()
            run()
            samples.append(time.perf_counter() - start)
        times.append(statistics.median(samples))
    return stats.slope(list(sweep.sizes), times)


@dataclass
class TracedResult:
    metrics: dict[str, float]
    attempted: int
    failures: list[str]
    passes: int
    spans: list[Span]


def _layer_totals(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[f"{span.name}.calls"] = totals.get(f"{span.name}.calls", 0) + 1
        totals[f"{span.name}.self_s"] = totals.get(f"{span.name}.self_s", 0.0) + own
        totals[f"{span.name}.incl_s"] = totals.get(f"{span.name}.incl_s", 0.0) + span.end - span.start
    return totals


def run_traced(cfhankel, workload: Workload, seconds: float) -> TracedResult:
    """One cProfile pass and the size sweeps, then untraced and traced
    passes over the workload's first op until ``seconds`` are up.

    Every pass checks its outputs; a traced pass must print exactly what
    the untraced pass printed.
    """
    main = cfhankel.cli.main
    op = workload.ops[0]
    deadline = time.perf_counter() + seconds
    fraction_ops, profiled = fraction_op_count(main, op.calls)
    failures = [reason for reason in [op.verdict(profiled)] if reason]
    slopes = {sweep.metric: _sweep_slope(cfhankel, sweep) for sweep in workload.sweeps}
    untraced, traced, per_pass = [], [], []
    spans: list[Span] = []
    while not per_pass or time.perf_counter() < deadline:
        start = time.perf_counter()
        plain = run_calls(main, op.calls)
        untraced.append(time.perf_counter() - start)
        reason = op.verdict(plain)
        tracer = Tracer(op=len(per_pass))
        with instrumented(tracer, cfhankel):
            outcomes = tracer.wrap(OP, run_calls)(main, op.calls)
        root = tracer.spans[0]
        traced.append(root.end - root.start)
        if reason is None and outcomes != plain:
            reason = f"{workload.name}: traced output differs from untraced output"
        if reason:
            failures.append(reason)
        per_pass.append(_layer_totals(tracer.spans))
        offset = len(spans)
        spans.extend(
            Span(s.name, s.start, s.end, s.parent + offset if s.parent >= 0 else -1, s.op)
            for s in tracer.spans
        )

    metrics = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        values = [totals.get(name, 0) for totals in per_pass]
        if name.endswith(".calls"):
            if len(set(values)) != 1:
                failures.append(f"{name} differs between passes: {sorted(set(values))}")
            metrics[name] = values[0]
        elif name.endswith("_s"):
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    metrics["exact.fraction_ops"] = fraction_ops
    metrics.update(slopes)
    return TracedResult(metrics, 1 + 2 * len(per_pass), failures, len(per_pass), spans)


def write_spans(path: Path, spans: list[Span]) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps([span.name, span.start, span.end, span.parent, span.op]) + "\n")

