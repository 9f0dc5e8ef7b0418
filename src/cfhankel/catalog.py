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
claim is a row of one table, judged by one loop: its expected value and
``read(count)``, which reads its computed side off those runs, cut to the
expected length count: a prefix of the oracle's h or of the series, the
ladder exponents :func:`p_sequence`, their partial sums m_j, the value at
each depth j, which is the oracle's h at position m_j - 1, or its gamma
exponent, the closed form's multiplicities, or the expansion of the
quoted exponent generating function.  Every judged value is the
oracle's.  Each quoted monomial's row is built with its note, which
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
    _coeffs,
    _quotient_coeffs,
    as_scalar,
    scalar_eval_gamma,
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


class _Row(Value):  # a claim: read(count) gives its computed side, cut to count values
    __slots__ = ("id", "location", "read", "expected", "note")

    def __init__(self, id, location, read, expected, note=""):
        super().__init__(id, location, read, expected, note)


def _table(runs: dict[str, _Run], max_n: int, fibonacci_agrees: bool) -> list[_Row]:
    """Every recorded claim, each reading its computed side off ``runs``."""
    catalan = [str(c) for c in catalan_numbers(13)]
    cat, aer, fib, rr = (runs[name] for name in CATALOG_NAMES)

    def prefix(values: Sequence[Scalar]) -> Callable[[int], list]:  # the first count, as JSON
        return lambda count: [scalar_to_json(v) for v in values[:count]]

    def index_sums(name: str) -> Callable[[int], list[int]]:
        return lambda count: list(accumulate(_ladder(name, count)))

    def multiplicities(run: _Run) -> Callable[[int], list[int]]:
        return lambda count: [pt.multiplicity for pt in run.closed.profile[:count]]

    def monomial(depth: int, quoted: Scalar) -> _Row:  # its note gives where the oracle has it
        n = _positions("rogers-ramanujan", depth + 1)[-1]
        value = rr.oracle[n]
        # gamma = 1 cannot separate powers, so the note evaluates at gamma = 2
        at_2 = [scalar_eval_gamma(v, 2) for v in (quoted, value)]
        return _Row(f"ex4-value-depth-{depth}", "example 4", lambda count: scalar_to_json(value),
                    scalar_to_json(quoted),
                    f"position {n}; at gamma=2 quoted gives {at_2[0]}, the oracle gives {at_2[1]}")

    return [
        _Row("ex1-dense-transform", "example 1", prefix(fib.oracle),
             ["1", "1", "-2", "0", "72", "0", "0", "1944000", "0", "0", "0", "0",
              "1547934105600000000"],
             "closed form agrees with the oracle at every position"
             if fibonacci_agrees else "closed form and oracle disagree"),
        _Row("ex1-nonzero-values", "example 1", lambda count: [
            scalar_to_json(fib.oracle[n]) for n in _positions("fibonacci-cf", count)],
             ["1", "1", "1", "-2", "72", "1944000"]),
        _Row("ex1-multiplicity", "example 1", lambda count: {
            str(pt.n): pt.multiplicity for pt in fib.closed.profile if pt.multiplicity > 1},
             {"0": 2}, "only the leading value is doubled"),
        _Row("ex1-index-sequence", "example 1", index_sums("fibonacci-cf"),
             fibonacci_numbers(max_n + 2)[1:]),
        _Row("ex2-hankel-all-ones", "introduction", prefix(cat.oracle), ["1"] * 7),
        _Row("ex2-series-is-catalan", "example 2", prefix(cat.series), catalan),
        _Row("ex2-index-multiset", "example 2", index_sums("catalan"),
             [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]),
        _Row("ex2-multiplicity", "example 2", multiplicities(cat), [2] * 7),
        _Row("ex3-hankel-all-ones", "example 3", prefix(aer.oracle), ["1"] * 10),
        _Row("ex3-series-is-aerated-catalan", "example 3", prefix(aer.series),
             [catalan[k // 2] if k % 2 == 0 else "0" for k in range(13)]),
        _Row("ex3-index-set", "example 3", index_sums("aerated-catalan"), list(range(1, 8))),
        _Row("ex3-multiplicity", "example 3", multiplicities(aer), [1] * 10),
        _Row("ex4-p-sequence", "example 4", lambda count: _ladder("rogers-ramanujan", count),
             [1, 0, 2, 1, 3, 2, 4, 3, 5, 4, 6]),
        _Row("ex4-index-partial-sums", "example 4", index_sums("rogers-ramanujan"),
             [1, 1, 3, 4, 7, 9, 13, 16, 21, 25, 31]),
        *(monomial(depth, quoted) for depth, quoted in
          {2: -(GAMMA**6), 3: GAMMA**12, 4: GAMMA**32, 5: GAMMA**52}.items()),
        _Row("ex4-exponent-sequence", "example 4", lambda count: [  # a monomial: its degree
            len(_coeffs(rr.oracle[n])) - 1 for n in _positions("rogers-ramanujan", count)],
             [0, 0, 6, 12, 32, 52],
             "gamma exponents of the oracle values at positions 2, 3, 6 and 8"),
        # 2x^2 (x^3 + 3) / ((1 + x)^2 (1 - x)^4)
        _Row("ex4-exponent-gf-pair", "example 4", lambda count: list(map(int, expand_rational_gf(
            [0, 0, 6, 0, 0, 2], [1, -2, -1, 4, -1, -2, 1], count))),
             [0, 0, 6, 12, 32, 52, 94],
             "the quoted generating function against the quoted exponent "
             "sequence; the sequence itself matches numerator 2x^2(x^2+3)"),
    ]


def _judge(row: _Row) -> Claim:
    """A row's claim, its computed side read to the expected length."""
    computed = row.read(len(row.expected))
    verdict = "confirmed" if row.expected == computed else "refuted"
    return Claim(row.id, row.location, row.expected, computed, verdict, row.note)


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
    claims = sorted(map(_judge, _table(runs, max_n, fibonacci_agrees)), key=lambda c: c.id)
    return VerificationReport(convention, consistent, tuple(claims))
