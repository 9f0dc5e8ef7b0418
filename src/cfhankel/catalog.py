"""Named example fractions and a verification harness for their recorded
reference values.

Four classic C-fractions are built by exact formulas, one row each of
``_ENTRIES``: ``catalan`` (the Catalan generating function),
``aerated-catalan`` (the Catalan numbers spread with zeros),
``fibonacci-cf`` and ``rogers-ramanujan`` (symbolic unless gamma given).

Each entry carries the values recorded for it in the literature: dense
Hankel transforms, index sequences, multiplicities, symbolic monomials and
one rational generating function.  :func:`verify_claims` recomputes every
one of those values from scratch and reports each claim, a :class:`Claim`
record, as confirmed or refuted.  Refuted claims stay in the report (a
:class:`VerificationReport`): the harness is also an errata record.

Each entry is expanded, eliminated by the determinant oracle
(rogers-ramanujan symbolically) and read by the closed form once.  Every
claim is a row of one table: an entry, a reading of its run and the
expected value, judged by one loop.  A reading cuts what it reads to the
expected length: a prefix of the oracle's h or of the series, the ladder
exponents :func:`p_sequence`, their partial sums m_j, the value at each
depth j, which is the oracle's h at position m_j - 1, or its gamma
exponent, the closed form's multiplicities, or the expansion of the
quoted exponent generating function.  Every judged value is the
oracle's.  A reading may build its row's note: a quoted monomial's row
gives its position and both values at gamma = 2.

The sign convention shipped as the package default is not trusted to a
constant: the two conventions differ by the global factor
:attr:`Convention.sign`, and :func:`select_convention` keeps the
convention whose sign, times each run's sign-corrected closed form, gives
that run's oracle over the whole catalog; the report records its outcome.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from itertools import accumulate

from .cfrac import CFraction, evaluate
from .closedform import Convention, dense_transform, p_sequence
from .exact import (
    GAMMA,
    Scalar,
    Value,
    _quotient_coeffs,
    as_scalar,
    scalar_eval_gamma,
    scalar_from_json,
    scalar_to_json,
    series,
)


def fibonacci_numbers(count: int) -> list[int]:
    """F_0, F_1, ..., F_{count-1} with F_0 = 0, F_1 = 1."""
    out = [0, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


def catalan_numbers(count: int) -> list[Fraction]:
    """C_0..C_{count-1}, C_n = binomial(2n, n)/(n+1); always integers."""
    out = [Fraction(1)]
    for n in range(1, count):
        out.append(out[-1] * 2 * (2 * n - 1) / (n + 1))
    return out[:count]


# name -> (terms, gamma) -> (a_1..a_terms, q_1..q_terms)
_ENTRIES: dict[str, Callable[[int, Scalar], tuple[Sequence, Sequence]]] = {
    "catalan": lambda terms, _: ([Fraction(-1)] * terms, [1] * terms),
    "aerated-catalan": lambda terms, _: ([Fraction(-1)] * terms, [2] * terms),
    "fibonacci-cf": lambda terms, _: (fibonacci_numbers(terms + 1)[1:],) * 2,
    "rogers-ramanujan": lambda terms, gamma: ([gamma] * terms, range(1, terms + 1)),
}
CATALOG_NAMES = tuple(_ENTRIES)


def catalog_cfraction(name: str, gamma=None, terms: int = 8) -> CFraction:
    """The exact (a, q) data of a named entry, cut to ``terms`` quotients."""
    if terms < 1:
        raise ValueError("an entry needs at least one partial quotient")
    if name != "rogers-ramanujan" and gamma is not None:
        raise ValueError(f"{name} takes no gamma parameter")
    if name not in _ENTRIES:
        raise ValueError(f"no catalog entry named {name!r}")
    coefficient = GAMMA if gamma is None else as_scalar(gamma)
    if coefficient == 0:
        raise ValueError("rogers-ramanujan needs a nonzero gamma")
    return CFraction(*_ENTRIES[name](terms, coefficient))


def expand_rational_gf(numer: Sequence, denom: Sequence, count: int) -> list[Scalar]:
    """First ``count`` Taylor coefficients of numer/denom, exact; both are
    polynomial coefficient sequences, lowest degree first, read as series
    of order count - 1, so a count below 1 is a ValueError."""
    return _quotient_coeffs(*(series(p, count - 1).coeffs for p in (numer, denom)), count)


# ---------------------------------------------------------------------------
# claim verification


class Claim(Value):  # verdict: "confirmed" | "refuted"
    __slots__ = ("id", "location", "expected", "computed", "verdict", "note")

    def __init__(self, id, location, expected, computed, verdict, note=""):
        super().__init__(id, location, expected, computed, verdict, note)


class VerificationReport(Value):
    __slots__ = ("convention", "convention_consistent", "claims")  # convention None: none won


def report_to_json(report: VerificationReport) -> dict:
    return {
        "convention": report.convention.value if report.convention else None,
        "convention_consistent": report.convention_consistent,
        "claims": [{k: v for k, v in c._asdict().items() if k != "note" or v}
                   for c in report.claims],
    }


class _Run(Value):  # one entry: its series c_0..c_2n, h_0..h_n and sign-corrected closed form
    __slots__ = ("series", "oracle", "closed")


def _runs(max_n: int) -> dict[str, _Run]:
    """Each entry expanded, eliminated and read by the sign-corrected
    closed form once; rogers-ramanujan stays symbolic, and its minors
    evaluated at a rational gamma are that gamma's minors (a ring
    homomorphism).  The exponents of the other fractions but
    fibonacci-cf sum past the order expanded, so their series are the
    infinite fractions'.  fibonacci-cf is terminated at 8 terms, and its
    series leaves the infinite fraction's at x^88: from max_n = 44 on, the
    arbitration and the ex1-dense-transform note compare the closed form
    and the oracle on that finite fraction.  Every ex1 value claim reads
    h_n, n <= 12, where the two series agree."""
    from .hankel_oracle import hankel_transform

    runs = {}
    for name, terms, n in (("catalan", 13, 6), ("aerated-catalan", 10, 9),
                           ("fibonacci-cf", 8, max_n), ("rogers-ramanujan", 10, 8)):
        cf = catalog_cfraction(name, terms=terms)
        coeffs = evaluate(cf, 2 * n).coeffs
        runs[name] = _Run(coeffs, hankel_transform(coeffs, n),
                          dense_transform(cf, n, Convention.SIGN_CORRECTED))
    return runs


def _agrees(run: _Run, convention: Convention) -> bool:
    """Whether the run's closed form, times the convention's sign, is its oracle."""
    return [convention.sign * v for v in run.closed.dense] == run.oracle


def select_convention(runs: dict[str, _Run]) -> tuple[Convention | None, bool]:
    """Pick the sign convention mechanically: the one under which the
    closed form equals the determinant oracle on every entry of ``runs``,
    the catalog runs ``_runs(max_n)`` that :func:`verify_claims` judges.

    Returns (convention, consistent).  ``consistent`` is False when no
    single convention (or more than one) survives, which the caller must
    surface prominently.
    """
    surviving = [c for c in Convention if all(_agrees(r, c) for r in runs.values())]
    if len(surviving) == 1:
        return surviving[0], True
    return (surviving[0] if surviving else None), False


def _ladder(name: str, count: int) -> list[int]:
    """p_0..p_(count-1) of an entry: the ladder exponents of its first
    count - 1 partial quotients, whose partial sums are m_0..m_(count-1)."""
    return p_sequence((1, *catalog_cfraction(name, terms=count - 1).q))


def _positions(name: str, count: int) -> list[int]:
    """Where depths 0..count-1 of an entry land: h at position m_j - 1."""
    return [m - 1 for m in accumulate(_ladder(name, count))]


class _Row(Value):  # a claim: a reading of one entry's run and its expected value
    __slots__ = ("id", "location", "entry", "reading", "expected", "note", "depth")

    def __init__(self, id, location, entry, reading, expected, note="", depth=0):
        # reading: a key of _READINGS; depth: the depth a "depth value" row reads
        super().__init__(id, location, entry, reading, expected, note, depth)


def _table(max_n: int, fibonacci_agrees: bool) -> list[_Row]:
    """Every recorded claim."""
    catalan = [str(c) for c in catalan_numbers(13)]
    quoted = {2: -(GAMMA**6), 3: GAMMA**12, 4: GAMMA**32, 5: GAMMA**52}  # depth: monomial
    return [
        _Row("ex1-dense-transform", "example 1", "fibonacci-cf", "oracle",
             ["1", "1", "-2", "0", "72", "0", "0", "1944000", "0", "0", "0", "0",
              "1547934105600000000"],
             "closed form agrees with the oracle at every position"
             if fibonacci_agrees else "closed form and oracle disagree"),
        _Row("ex1-nonzero-values", "example 1", "fibonacci-cf", "depth values",
             ["1", "1", "1", "-2", "72", "1944000"]),
        _Row("ex1-multiplicity", "example 1", "fibonacci-cf", "repeated positions",
             {"0": 2}, "only the leading value is doubled"),
        _Row("ex1-index-sequence", "example 1", "fibonacci-cf", "index sums",
             fibonacci_numbers(max_n + 2)[1:]),
        _Row("ex2-hankel-all-ones", "introduction", "catalan", "oracle", ["1"] * 7),
        _Row("ex2-series-is-catalan", "example 2", "catalan", "series", catalan),
        _Row("ex2-index-multiset", "example 2", "catalan", "index sums",
             [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]),
        _Row("ex2-multiplicity", "example 2", "catalan", "multiplicities", [2] * 7),
        _Row("ex3-hankel-all-ones", "example 3", "aerated-catalan", "oracle", ["1"] * 10),
        _Row("ex3-series-is-aerated-catalan", "example 3", "aerated-catalan", "series",
             [catalan[k // 2] if k % 2 == 0 else "0" for k in range(13)]),
        _Row("ex3-index-set", "example 3", "aerated-catalan", "index sums",
             list(range(1, 8))),
        _Row("ex3-multiplicity", "example 3", "aerated-catalan", "multiplicities", [1] * 10),
        _Row("ex4-p-sequence", "example 4", "rogers-ramanujan", "p-sequence",
             [1, 0, 2, 1, 3, 2, 4, 3, 5, 4, 6]),
        _Row("ex4-index-partial-sums", "example 4", "rogers-ramanujan", "index sums",
             [1, 1, 3, 4, 7, 9, 13, 16, 21, 25, 31]),
        *(_Row(f"ex4-value-depth-{depth}", "example 4", "rogers-ramanujan", "depth value",
               scalar_to_json(value), depth=depth) for depth, value in quoted.items()),
        _Row("ex4-exponent-sequence", "example 4", "rogers-ramanujan", "depth exponents",
             [0, 0, 6, 12, 32, 52],
             "gamma exponents of the oracle values at positions 2, 3, 6 and 8"),
        _Row("ex4-exponent-gf-pair", "example 4", "rogers-ramanujan", "quoted exponent gf",
             [0, 0, 6, 12, 32, 52, 94],
             "the quoted generating function against the quoted exponent "
             "sequence; the sequence itself matches numerator 2x^2(x^2+3)"),
    ]


def _depth_value(row: _Row, run: _Run, count: int) -> tuple[object, str]:
    n = _positions(row.entry, row.depth + 1)[-1]
    # gamma = 1 cannot separate powers, so the note evaluates at gamma = 2
    value = run.oracle[n]
    quoted, oracle = (scalar_eval_gamma(v, 2) for v in (scalar_from_json(row.expected), value))
    return scalar_to_json(value), (
        f"position {n}; at gamma=2 quoted gives {quoted}, the oracle gives {oracle}")


def _plain(read: Callable[[_Row, _Run, int], object]):  # a reading that keeps the row's note
    return lambda row, run, count: (read(row, run, count), row.note)


# reading -> (row, run, count) -> (computed side, note): what the reading
# reads of the entry's run, cut to the expected length count
_READINGS: dict[str, Callable[[_Row, _Run, int], tuple[object, str]]] = {
    "oracle": _plain(lambda row, run, count: [scalar_to_json(v) for v in run.oracle[:count]]),
    "series": _plain(lambda row, run, count: [scalar_to_json(v) for v in run.series[:count]]),
    "p-sequence": _plain(lambda row, run, count: _ladder(row.entry, count)),
    "index sums": _plain(lambda row, run, count: list(accumulate(_ladder(row.entry, count)))),
    "depth values": _plain(lambda row, run, count: [
        scalar_to_json(run.oracle[n]) for n in _positions(row.entry, count)]),
    # each value is a monomial; a constant is a Fraction, of degree 0
    "depth exponents": _plain(lambda row, run, count: [
        getattr(run.oracle[n], "degree", 0) for n in _positions(row.entry, count)]),
    "depth value": _depth_value,
    "multiplicities": _plain(lambda row, run, count: [
        pt.multiplicity for pt in run.closed.profile[:count]]),
    "repeated positions": _plain(lambda row, run, count: {
        str(pt.n): pt.multiplicity for pt in run.closed.profile if pt.multiplicity > 1}),
    # 2x^2 (x^3 + 3) / ((1 + x)^2 (1 - x)^4)
    "quoted exponent gf": _plain(lambda row, run, count: [int(v) for v in expand_rational_gf(
        [0, 0, 6, 0, 0, 2], [1, -2, -1, 4, -1, -2, 1], count)]),
}


def _judge(row: _Row, run: _Run) -> Claim:
    """A row's claim, its computed side read off the entry's run; an
    unknown reading raises KeyError."""
    computed, note = _READINGS[row.reading](row, run, len(row.expected))
    verdict = "confirmed" if row.expected == computed else "refuted"
    return Claim(row.id, row.location, row.expected, computed, verdict, note)


def verify_claims(max_n: int = 12) -> VerificationReport:
    """Recompute every recorded reference value and issue verdicts.

    ``max_n`` must cover the longest dense claim (12).  The convention in
    the report is the arbitration winner; fibonacci-cf's closed form,
    times that convention's sign (sign-corrected's when none wins), is
    compared with its oracle for the ex1-dense-transform note.
    """
    if max_n < 12:
        raise ValueError("claim verification needs max_n >= 12")
    runs = _runs(max_n)
    convention, consistent = select_convention(runs)
    fibonacci_agrees = _agrees(runs["fibonacci-cf"], convention or Convention.SIGN_CORRECTED)
    claims = sorted((_judge(row, runs[row.entry]) for row in _table(max_n, fibonacci_agrees)),
                    key=lambda c: c.id)
    return VerificationReport(convention, consistent, tuple(claims))
