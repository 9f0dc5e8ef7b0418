"""The four benchmark workloads: seeded inputs, op definitions and
known-answer output checks.

An op is a fixed sequence of ``cfhankel`` calls.  Each call is a pipeline
of one or two commands: the second command reads the first one's stdout.
Inputs are written as JSON files before timing starts, so the program sees
only those files and its stdin.  Every expected answer below comes from
the literature or from this module's own arithmetic, never from the code
under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# One call: a pipeline of cfhankel argument lists.
Call = tuple[tuple[str, ...], ...]
# What a call produced: the exit code of each command, and the last stdout.
Outcome = tuple[tuple[int, ...], str]


@dataclass(frozen=True)
class Op:
    calls: tuple[Call, ...]
    # Returns None when every outcome is right, else the reason it is not.
    check: Callable[[list[Outcome]], str | None]

    def verdict(self, outcomes: list[Outcome]) -> str | None:
        """The check's reason, or a failure for output of the wrong shape."""
        try:
            return self.check(outcomes)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            return f"malformed output: {exc!r}"


@dataclass(frozen=True)
class Sweep:
    """A size sweep of one layer for the growth slope of the traced run."""

    metric: str  # per-layer metric name, e.g. "cfrac.evaluate.slope"
    function: str  # "hankel_transform", "evaluate" or "correspond"
    source: Path  # fraction JSON the swept input is derived from
    sizes: tuple[int, ...]  # max_n for hankel_transform, else series order


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]  # the closed loop cycles through these in order
    sweeps: tuple[Sweep, ...]


NAMES = ("compare-catalog", "roundtrip", "symbolic", "verify")

# Recorded literature values of h_0..h_12 for the series of the fibonacci-cf
# fraction a_k = q_k = F_k.
FIBONACCI_HANKEL = tuple(
    Fraction(v)
    for v in (1, 1, -2, 0, 72, 0, 0, 1944000, 0, 0, 0, 0, 1547934105600000000)
)

# Hand-written verdicts of `cfhankel verify`: the recorded values of the
# Rogers-Ramanujan example that the oracle contradicts are refuted.
VERIFY_VERDICTS = {
    "ex1-dense-transform": "confirmed",
    "ex1-index-sequence": "confirmed",
    "ex1-multiplicity": "confirmed",
    "ex1-nonzero-values": "confirmed",
    "ex2-hankel-all-ones": "confirmed",
    "ex2-index-multiset": "confirmed",
    "ex2-multiplicity": "confirmed",
    "ex2-series-is-catalan": "confirmed",
    "ex3-hankel-all-ones": "confirmed",
    "ex3-index-set": "confirmed",
    "ex3-multiplicity": "confirmed",
    "ex3-series-is-aerated-catalan": "confirmed",
    "ex4-exponent-gf-pair": "refuted",
    "ex4-exponent-sequence": "refuted",
    "ex4-index-partial-sums": "confirmed",
    "ex4-p-sequence": "confirmed",
    "ex4-value-depth-2": "refuted",
    "ex4-value-depth-3": "refuted",
    "ex4-value-depth-4": "refuted",
    "ex4-value-depth-5": "refuted",
}

ROUNDTRIP_FRACTIONS = 16


# ---------------------------------------------------------------------------
# inputs


def catalog_fraction(name: str, terms: int, gamma: Fraction | None = None) -> dict:
    """The wire encoding of a catalog entry, from its textbook definition."""
    if name in ("catalan", "aerated-catalan"):
        step = 1 if name == "catalan" else 2
        a, q = ["-1"] * terms, [step] * terms
    elif name == "fibonacci-cf":
        fib = [1, 1]
        while len(fib) < terms:
            fib.append(fib[-1] + fib[-2])
        a, q = [str(v) for v in fib[:terms]], fib[:terms]
    elif name == "rogers-ramanujan":
        value = {"coeffs": ["0", "1"]} if gamma is None else str(gamma)
        a, q = [value] * terms, list(range(1, terms + 1))
    else:
        raise ValueError(f"no catalog entry named {name!r}")
    return {"a": a, "q": q, "status": "terminated"}


def random_fraction(seed: int, index: int, terms: int) -> tuple[list[Fraction], list[int]]:
    """a_k = +-p/q with p, q in 1..9 and exponents q_k in 1..3."""
    rng = random.Random(f"roundtrip:{seed}:{index}")
    a = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(terms)]
    q = [rng.randint(1, 3) for _ in range(terms)]
    return a, q


def _write(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# independent reference arithmetic for the checks


def cfrac_coefficients(a: list[int], q: list[int], order: int) -> list[Fraction]:
    """Taylor coefficients 0..order of 1/(1 + a_1 x^q_1/(1 + ...)), bottom-up."""
    tail = [Fraction(1)] + [Fraction(0)] * order
    for ak, qk in zip(reversed(a), reversed(q)):
        denom = [Fraction(0)] * (order + 1)
        denom[0] = Fraction(1)
        for i in range(order + 1 - qk):
            denom[i + qk] += ak * tail[i]
        # invert the unit-constant series denom
        inv = [Fraction(1)] + [Fraction(0)] * order
        for k in range(1, order + 1):
            inv[k] = -sum(denom[j] * inv[k - j] for j in range(1, k + 1))
        tail = inv
    return tail


def hankel_dets(seq: list[Fraction], max_n: int) -> list[Fraction]:
    """det[seq[i+j]] for n = 0..max_n by Gaussian elimination over QQ."""
    out = []
    for n in range(max_n + 1):
        m = [[seq[i + j] for j in range(n + 1)] for i in range(n + 1)]
        det = Fraction(1)
        for k in range(n + 1):
            pivot = next((r for r in range(k, n + 1) if m[r][k] != 0), None)
            if pivot is None:
                det = Fraction(0)
                break
            if pivot != k:
                m[k], m[pivot] = m[pivot], m[k]
                det = -det
            det *= m[k][k]
            for r in range(k + 1, n + 1):
                factor = m[r][k] / m[k][k]
                if factor:
                    m[r] = [x - factor * y for x, y in zip(m[r], m[k])]
        out.append(det)
    return out


def rogers_ramanujan_hankel(gamma: int, terms: int, max_n: int) -> list[Fraction]:
    q = list(range(1, terms + 1))
    return hankel_dets(cfrac_coefficients([gamma] * terms, q, 2 * max_n), max_n)


# ---------------------------------------------------------------------------
# checks (compare parsed values, never bytes, and ignore fields not checked)


def _parse(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def _poly_at(value, point: int) -> Fraction:
    if isinstance(value, str):
        return Fraction(value)
    acc = Fraction(0)
    for c in reversed(value["coeffs"]):
        acc = acc * point + Fraction(c)
    return acc


def _check_compare(label: str, max_n: int, known: Callable[[list], str | None]):
    def check(outcome: Outcome) -> str | None:
        (rc,), stdout = outcome
        out = _parse(stdout)
        if rc != 0 or not isinstance(out, dict):
            return f"{label}: exit {rc}, expected 0 with a JSON report"
        if out.get("equal") is not True:
            return f"{label}: equal is {out.get('equal')!r}"
        oracle, dense = out.get("oracle"), out.get("closed", {}).get("dense")
        if not isinstance(oracle, list) or len(oracle) != max_n + 1 or dense != oracle:
            return f"{label}: oracle and closed form do not list the same {max_n + 1} values"
        return known(oracle)

    return check


def _all_ones(label: str):
    def known(oracle: list) -> str | None:
        if any(Fraction(v) != 1 for v in oracle):
            return f"{label}: oracle values are not all 1"
        return None

    return known


def _equals_at(label: str, expected: dict[int, list[Fraction]]):
    """Oracle values, evaluated at each gamma point, equal the reference."""

    def known(oracle: list) -> str | None:
        for point, values in expected.items():
            got = [_poly_at(v, point) for v in oracle[: len(values)]]
            if got != values:
                return f"{label}: oracle differs from the reference at gamma={point}"
        return None

    return known


def _combine(checks: list[Callable[[Outcome], str | None]]):
    def check(outcomes: list[Outcome]) -> str | None:
        if len(outcomes) != len(checks):
            return f"{len(outcomes)} outcomes for {len(checks)} calls"
        for each, outcome in zip(checks, outcomes):
            reason = each(outcome)
            if reason:
                return reason
        return None

    return check


def _check_roundtrip(a: list[Fraction], q: list[int], order: int):
    prefix = 0
    while prefix < len(q) and sum(q[: prefix + 1]) <= order:
        prefix += 1
    want_a, want_q = a[:prefix], q[:prefix]

    def check(outcomes: list[Outcome]) -> str | None:
        [(rcs, stdout)] = outcomes
        if rcs != (0, 0):
            return f"roundtrip: exit codes {rcs}, expected (0, 0)"
        out = _parse(stdout)
        if not isinstance(out, dict):
            return "roundtrip: expand printed no JSON object"
        if out.get("status") != {"truncated": order}:
            return f"roundtrip: status {out.get('status')!r}"
        try:
            got_a = [Fraction(v) for v in out.get("a", ())]
        except (TypeError, ValueError):
            return "roundtrip: partial numerators are not rationals"
        if got_a != want_a or out.get("q") != want_q:
            return "roundtrip: expand did not return the generator's prefix"
        return None

    return check


def _check_verify(outcomes: list[Outcome]) -> str | None:
    [((rc,), stdout)] = outcomes
    out = _parse(stdout)
    if rc != 1 or not isinstance(out, dict):
        return f"verify: exit {rc}, expected 1 with a JSON report"
    if out.get("convention") != "sign-corrected" or out.get("convention_consistent") is not True:
        return "verify: convention is not a consistent sign-corrected"
    verdicts = {c.get("id"): c.get("verdict") for c in out.get("claims", ())}
    if verdicts != VERIFY_VERDICTS:
        return "verify: claim verdicts differ from the hand-written map"
    return None


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, tests shrink them."""

    compare_max_n: int = 24
    catalan_terms: int = 60
    aerated_terms: int = 40
    fibonacci_terms: int = 12
    rogers_terms: int = 12
    roundtrip_order: int = 48
    roundtrip_terms: int = 48
    symbolic_max_n: int = 10
    verify_max_n: int = 12
    catalan_sweep: tuple[int, ...] = (6, 12, 24)
    symbolic_sweep: tuple[int, ...] = (4, 7, 10)
    order_sweep: tuple[int, ...] = (12, 24, 48)


def _compare_call(path: Path, max_n: int) -> Call:
    return (("compare", "--cfraction", str(path), "--max-n", str(max_n)),)


def build(name: str, seed: int, workdir: Path, sizes: Sizes = Sizes()) -> Workload:
    """Write the inputs of workload ``name`` under ``workdir``.

    Only the roundtrip inputs depend on ``seed``; the catalog entries are
    fixed by their definitions.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "compare-catalog":
        n = sizes.compare_max_n
        entries = [
            ("catalan", sizes.catalan_terms, None, _all_ones("catalan")),
            ("aerated-catalan", sizes.aerated_terms, None, _all_ones("aerated-catalan")),
            ("fibonacci-cf", sizes.fibonacci_terms, None, _fibonacci_known),
            (
                "rogers-ramanujan",
                sizes.rogers_terms,
                Fraction(2),
                _equals_at(
                    "rogers-ramanujan gamma=2",
                    {2: rogers_ramanujan_hankel(2, sizes.rogers_terms, n)},
                ),
            ),
        ]
        calls, checks = [], []
        for entry, terms, gamma, known in entries:
            path = _write(workdir / f"{entry}.json", catalog_fraction(entry, terms, gamma))
            calls.append(_compare_call(path, n))
            checks.append(_check_compare(entry, n, known))
        catalan = workdir / "catalan.json"
        sweeps = (
            Sweep("hankel_oracle.hankel_transform.slope", "hankel_transform", catalan, sizes.catalan_sweep),
            Sweep("cfrac.evaluate.slope", "evaluate", catalan, sizes.order_sweep),
        )
        return Workload(name, (Op(tuple(calls), _combine(checks)),), sweeps)
    if name == "roundtrip":
        order = sizes.roundtrip_order
        ops = []
        for index in range(ROUNDTRIP_FRACTIONS):
            a, q = random_fraction(seed, index, sizes.roundtrip_terms)
            encoded = {"a": [str(v) for v in a], "q": q, "status": "terminated"}
            path = _write(workdir / f"fraction-{index:02d}.json", encoded)
            call = (
                ("eval", "--cfraction", str(path), "--order", str(order)),
                ("expand", "--series", "-"),
            )
            ops.append(Op((call,), _check_roundtrip(a, q, order)))
        first = workdir / "fraction-00.json"
        sweeps = (
            Sweep("cfrac.evaluate.slope", "evaluate", first, sizes.order_sweep),
            Sweep("cfrac.correspond.slope", "correspond", first, sizes.order_sweep),
        )
        return Workload(name, tuple(ops), sweeps)
    if name == "symbolic":
        n, terms = sizes.symbolic_max_n, sizes.rogers_terms
        path = _write(workdir / "rogers-ramanujan.json", catalog_fraction("rogers-ramanujan", terms))
        reference = {g: rogers_ramanujan_hankel(g, terms, n) for g in (2, 3)}
        check = _check_compare("rogers-ramanujan", n, _equals_at("rogers-ramanujan", reference))
        op = Op((_compare_call(path, n),), _combine([check]))
        sweeps = (
            Sweep("hankel_oracle.hankel_transform.slope", "hankel_transform", path, sizes.symbolic_sweep),
        )
        return Workload(name, (op,), sweeps)
    if name == "verify":
        call = (("verify", "--max-n", str(sizes.verify_max_n)),)
        return Workload(name, (Op((call,), _check_verify),), ())
    raise ValueError(f"unknown workload {name!r}")


def _fibonacci_known(oracle: list) -> str | None:
    head = [Fraction(v) for v in oracle[: len(FIBONACCI_HANKEL)]]
    if head != list(FIBONACCI_HANKEL[: len(head)]):
        return "fibonacci-cf: h_0..h_12 differ from the literature values"
    return None
