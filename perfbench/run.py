"""Benchmark of the cfhankel command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from its ``src``.
With ``--trace 0`` one client drives ``cfhankel`` as a closed loop of
subprocesses for S seconds: each op starts when the previous one ends, so
interpreter start-up is part of every op.  With ``--trace 1`` the ops run
inside this process with spans around each layer (see tracing.py).  Every
output is checked against known answers.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it carries the run's details.  Exits 1 if any op failed, 2 if the
program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import stats
import tracing
import workloads
from workloads import Call, Outcome, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# The console script of the package does exactly this.
CLI = (sys.executable, "-c", "import sys; from cfhankel.cli import main; sys.exit(main())")
IMPORT_ONLY = (sys.executable, "-c", "import cfhankel.cli")
SETUP_SAMPLES = 20  # spread over the run
CALL_TIMEOUT_S = 120
CAL_LOOPS = 1900
CAL_NOMINAL_S = 0.01

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_pipeline(commands: list[tuple[str, ...]], env: dict[str, str], errors) -> Outcome:
    """Run commands as a pipeline, each reading the previous one's stdout,
    and wait for all of them."""
    procs: list[subprocess.Popen] = []
    upstream = subprocess.DEVNULL
    try:
        for command in commands:
            proc = subprocess.Popen(
                command, stdin=upstream, stdout=subprocess.PIPE, stderr=errors, env=env, cwd=ROOT
            )
            if procs:
                procs[-1].stdout.close()  # the reader now owns the pipe
            procs.append(proc)
            upstream = proc.stdout
        # A timer kills a hung pipeline.  Waiting with Popen's own timeout
        # would poll in steps of up to 50 ms, which shows in the timings.
        watchdog = threading.Timer(CALL_TIMEOUT_S, lambda: [p.kill() for p in procs])
        watchdog.start()
        try:
            out = procs[-1].stdout.read()
            codes = tuple(p.wait() for p in procs)
        finally:
            watchdog.cancel()
            watchdog.join()
        return codes, out.decode("utf-8", errors="replace")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()


def run_call(call: Call, env: dict[str, str], errors) -> Outcome:
    return run_pipeline([CLI + argv for argv in call], env, errors)


def import_only(env: dict[str, str], errors) -> None:
    codes, _ = run_pipeline([IMPORT_ONLY], env, errors)
    if codes != (0,):
        raise SystemExit(f"importing cfhankel.cli failed with exit code {codes[0]}")


def calibrate() -> float:
    """Wall time of a fixed loop of Fraction and int arithmetic."""
    start = time.perf_counter()
    acc = 0
    for k in range(CAL_LOOPS):
        f = Fraction(k % 7 + 1, k % 5 + 2)
        acc += (f * f - f).numerator
    return time.perf_counter() - start


class HostClock:
    """Times a task, and scales the time to a host of nominal speed by the
    calibration loop run just before and just after it."""

    def __init__(self) -> None:
        self.calibrations = [calibrate()]

    def time(self, task):
        start = time.perf_counter()
        result = task()
        raw = time.perf_counter() - start
        self.calibrations.append(calibrate())
        speed = statistics.fmean(self.calibrations[-2:]) / CAL_NOMINAL_S
        return raw, raw / speed, result


def measure(workload: Workload, seconds: float, env: dict[str, str], errors) -> tuple[dict, dict]:
    """The closed loop: ops back to back until ``seconds`` are up, with
    start-up samples taken between ops."""
    clock = HostClock()
    op_times, raw_ops, setups, failures = [], [], [], []
    start = time.perf_counter()
    while not op_times or time.perf_counter() - start < seconds:
        if len(setups) * seconds <= SETUP_SAMPLES * (time.perf_counter() - start):
            # Start-up is mostly process creation and file reads, which do
            # not follow the calibration loop's speed: it stays wall time.
            raw, _, _ = clock.time(lambda: import_only(env, errors))
            setups.append(raw)
        op = workload.ops[len(op_times) % len(workload.ops)]
        raw_ops.append(0.0)
        op_times.append(0.0)
        outcomes = []
        for call in op.calls:
            raw, corrected, outcome = clock.time(lambda: run_call(call, env, errors))
            raw_ops[-1] += raw
            op_times[-1] += corrected
            outcomes.append(outcome)
        reason = op.verdict(outcomes)
        if reason:
            failures.append(reason)
    tail, percentile, samples = stats.tail(op_times)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(op_times),
        "op_tail_s": tail,
        "ops_per_s": len(op_times) / sum(op_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "ok_frac": 1 - len(failures) / len(op_times),
    }
    details = {
        "ops": len(op_times),
        "failed": len(failures),
        "failed_frac": len(failures) / len(op_times),
        "op_tail_percentile": percentile,
        "op_tail_samples": samples,
        "setup_samples": len(setups),
        "failures": failures[:5],
        "raw_op_p50_s": statistics.median(raw_ops),
        "cal_s": statistics.median(clock.calibrations),
    }
    return metrics, details


def run_traced(workload: Workload, seconds: float, run_dir: Path) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    import cfhankel
    import cfhankel.cli  # noqa: F401  (the traced entry point)

    if Path(cfhankel.__file__).resolve().parent != SRC / "cfhankel":
        raise SystemExit(f"cfhankel imported from {cfhankel.__file__}, not from {SRC}")
    result = tracing.run_traced(cfhankel, workload, seconds)
    tracing.write_spans(run_dir / "spans.jsonl", result.spans)
    details = {
        "ops": result.attempted,
        "failed": len(result.failures),
        "passes": result.passes,
        "spans": len(result.spans),
        "failures": result.failures[:5],
    }
    return result.metrics, details


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ("git", "rev-parse", "HEAD"), cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() or None
        except OSError:
            pass  # no git on this host
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cfhankel" / "cli.py").is_file():
        print(f"error: no cfhankel sources under {SRC}", file=sys.stderr)
        return 2

    # One CPU for this process and its children, so that the calibration
    # loop runs where the ops run and a pipeline cannot borrow a second CPU
    # that other tenants of the host may be using.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = workloads.build(args.workload, args.seed, run_dir / "inputs")
    if args.trace:
        values, details = run_traced(workload, args.seconds, run_dir)
        units = tracing.PER_LAYER
    else:
        env = child_env()
        with (run_dir / "stderr.log").open("wb") as errors:
            import_only(env, errors)  # compile bytecode once; users do not pay that per run
            values, details = measure(workload, args.seconds, env, errors)
        units = END_TO_END_UNITS
    failed = details["failed"]
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace} | details | provenance()
    result = {
        "correct": failed == 0,
        "attempted": details["ops"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (run_dir / "result.json").write_text(json.dumps({"details": details, "result": result}, indent=2) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
