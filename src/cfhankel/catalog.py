"""Named example fractions and a verification harness for their recorded
reference values.

Four classic C-fractions are built here by exact formulas:

* ``catalan``          a_k = -1, q_k = 1 (Catalan generating function),
* ``aerated-catalan``  a_k = -1, q_k = 2 (Catalan numbers spread with zeros),
* ``fibonacci-cf``     a_k = F_k, q_k = F_k,
* ``rogers-ramanujan`` a_k = gamma, q_k = k (symbolic unless gamma given).

Each entry carries the values recorded for it in the literature: dense
Hankel transforms, index sequences, multiplicities, symbolic monomials and
one rational generating function.  :func:`verify_claims` recomputes every
one of those values from scratch and reports each claim as confirmed or
refuted.  Refuted claims stay in the report: the harness is also an
errata record.

Every value claim is read from the determinant oracle, which expands and
eliminates each entry once (rogers-ramanujan symbolically), by one rule:
the value at depth j is the oracle's h at position m_j - 1, where m_j are
the partial sums of the ladder exponents :func:`p_sequence`.  The closed
form supplies those positions and the multiplicities, never a value that
is judged.

The sign convention shipped as the package default is not trusted to a
constant: :func:`select_convention` re-runs the oracle arbitration over
the same runs of the whole catalog, and the report records its outcome.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Sequence

from .cfrac import CFraction, Terminated, evaluate
from .closedform import (
    Convention,
    DEFAULT_CONVENTION,
    dense_transform,
    p_sequence,
)
from .exact import (
    DomainError,
    GAMMA,
    Scalar,
    _quotient_coeffs,
    as_scalar,
    scalar_eval_gamma,
    scalar_to_json,
    series,
)


class ZeroConstantDenominator(DomainError):
    """A rational generating function needs denominator(0) != 0."""


CATALOG_NAMES = ("catalan", "aerated-catalan", "fibonacci-cf", "rogers-ramanujan")


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


def catalog_cfraction(name: str, gamma=None, terms: int = 8) -> CFraction:
    """The exact (a, q) data of a named entry, cut to ``terms`` quotients."""
    if terms < 1:
        raise ValueError("an entry needs at least one partial quotient")
    if name != "rogers-ramanujan" and gamma is not None:
        raise ValueError(f"{name} takes no gamma parameter")
    if name == "catalan":
        return CFraction((Fraction(-1),) * terms, (1,) * terms, Terminated())
    if name == "aerated-catalan":
        return CFraction((Fraction(-1),) * terms, (2,) * terms, Terminated())
    if name == "fibonacci-cf":
        fib = fibonacci_numbers(terms + 1)
        return CFraction(
            tuple(Fraction(v) for v in fib[1:]), tuple(fib[1:]), Terminated()
        )
    if name == "rogers-ramanujan":
        if gamma is None:
            coefficient: Scalar = GAMMA
        else:
            coefficient = as_scalar(gamma)
            if coefficient == 0:
                raise ValueError("rogers-ramanujan needs a nonzero gamma")
        return CFraction((coefficient,) * terms, tuple(range(1, terms + 1)), Terminated())
    raise ValueError(f"no catalog entry named {name!r}")


def expand_rational_gf(numer: Sequence, denom: Sequence, count: int) -> list[Scalar]:
    """First ``count`` Taylor coefficients of numer/denom, exact; both are
    polynomial coefficient sequences, lowest degree first."""
    if count < 1:
        raise ValueError("at least one coefficient must be requested")
    if not denom or denom[0] == 0:
        raise ZeroConstantDenominator("denominator must not vanish at 0")
    ns, ds = series(numer, count - 1).coeffs, series(denom, count - 1).coeffs
    # a non-constant gamma-polynomial denom[0] raises NonInvertibleScalar here
    return [as_scalar(c) for c in _quotient_coeffs(ns, ds, as_scalar(1 / ds[0]))]


# ---------------------------------------------------------------------------
# claim verification


class Claim(NamedTuple):
    id: str
    location: str
    expected: object
    computed: object
    verdict: str  # "confirmed" | "refuted" | "unchecked"
    note: str = ""


class VerificationReport(NamedTuple):
    convention: Convention | None
    convention_consistent: bool
    claims: tuple[Claim, ...]


def report_to_json(report: VerificationReport) -> dict:
    return {
        "convention": report.convention.value if report.convention else None,
        "convention_consistent": report.convention_consistent,
        "claims": [
            {
                "id": c.id,
                "location": c.location,
                "expected": c.expected,
                "computed": c.computed,
                "verdict": c.verdict,
                **({"note": c.note} if c.note else {}),
            }
            for c in report.claims
        ],
    }


class _Run(NamedTuple):  # one entry: its series c_0..c_2max_n and h_0..h_max_n
    cf: CFraction
    max_n: int
    series: tuple[Scalar, ...]
    oracle: list[Scalar]


def _runs(max_n: int) -> dict[str, _Run]:
    """Each entry expanded and eliminated once.  Every fraction's exponents
    sum past the order expanded, so each series is the infinite fraction's;
    rogers-ramanujan stays symbolic, and its minors evaluated at a rational
    gamma are that gamma's minors (a ring homomorphism)."""
    from .hankel_oracle import hankel_transform

    runs = {}
    for name, terms, n in (("catalan", 13, 6), ("aerated-catalan", 10, 9),
                           ("fibonacci-cf", 8, max_n), ("rogers-ramanujan", 10, 8)):
        cf = catalog_cfraction(name, terms=terms)
        coeffs = evaluate(cf, 2 * n).coeffs
        runs[name] = _Run(cf, n, coeffs, hankel_transform(coeffs, n))
    return runs


def select_convention(runs: dict[str, _Run]) -> tuple[Convention | None, bool]:
    """Pick the sign convention mechanically: the one under which the
    closed form equals the determinant oracle on every entry of ``runs``,
    the catalog runs ``_runs(max_n)`` that :func:`verify_claims` judges.

    Returns (convention, consistent).  ``consistent`` is False when no
    single convention (or more than one) survives, which the caller must
    surface prominently.
    """
    surviving = [
        c for c in (Convention.SIGN_CORRECTED, Convention.AS_PRINTED)
        if all(list(dense_transform(r.cf, r.max_n, c).dense) == r.oracle
               for r in runs.values())
    ]
    if len(surviving) == 1:
        return surviving[0], True
    return (surviving[0] if surviving else None), False


def _claim(cid, location, expected, computed, note="") -> Claim:
    verdict = "confirmed" if expected == computed else "refuted"
    return Claim(cid, location, expected, computed, verdict, note)


def _fibonacci_claims(run: _Run, convention: Convention) -> list[Claim]:
    cf, max_n, oracle = run.cf, run.max_n, run.oracle
    dense = dense_transform(cf, max_n, convention)
    long_q = catalog_cfraction("fibonacci-cf", terms=max_n).q
    index = list(accumulate(p_sequence((1, *long_q))))
    profile = {pt.n: pt.multiplicity for pt in dense.profile}
    return [
        _claim(
            "ex1-dense-transform",
            "example 1",
            ["1", "1", "-2", "0", "72", "0", "0", "1944000", "0", "0", "0", "0",
             "1547934105600000000"],
            [scalar_to_json(v) for v in oracle[:13]],
            note="closed form agrees with the oracle at every position"
            if list(dense.dense) == oracle
            else "closed form and oracle disagree",
        ),
        _claim(
            "ex1-nonzero-values",
            "example 1",
            ["1", "1", "1", "-2", "72", "1944000"],
            [scalar_to_json(oracle[m - 1]) for m in index[:6]],
        ),
        _claim(
            "ex1-multiplicity",
            "example 1",
            {"0": 2},
            {str(n): mult for n, mult in sorted(profile.items()) if mult > 1},
            note="only the leading value is doubled",
        ),
        _claim(
            "ex1-index-sequence",
            "example 1",
            fibonacci_numbers(max_n + 2)[1:],
            index,
        ),
    ]


def _catalan_claims(run: _Run, convention: Convention) -> list[Claim]:
    dense = dense_transform(run.cf, 6, convention)
    return [
        _claim(
            "ex2-hankel-all-ones",
            "introduction",
            ["1"] * 7,
            [scalar_to_json(v) for v in run.oracle],
        ),
        _claim(
            "ex2-series-is-catalan",
            "example 2",
            [str(c) for c in catalan_numbers(13)],
            [scalar_to_json(v) for v in run.series],
        ),
        _claim(
            "ex2-index-multiset",
            "example 2",
            [1, 1, 2, 2, 3, 3, 4, 4, 5, 5],
            list(accumulate(p_sequence((1, *run.cf.q[:9])))),
        ),
        _claim(
            "ex2-multiplicity",
            "example 2",
            [2] * 7,
            [pt.multiplicity for pt in dense.profile],
        ),
    ]


def _aerated_claims(run: _Run, convention: Convention) -> list[Claim]:
    dense = dense_transform(run.cf, 9, convention)
    catalan = catalan_numbers(7)
    aerated = [catalan[k // 2] if k % 2 == 0 else Fraction(0) for k in range(13)]
    return [
        _claim(
            "ex3-hankel-all-ones",
            "example 3",
            ["1"] * 10,
            [scalar_to_json(v) for v in run.oracle],
        ),
        _claim(
            "ex3-series-is-aerated-catalan",
            "example 3",
            [str(c) for c in aerated],
            [scalar_to_json(v) for v in run.series[:13]],
        ),
        _claim(
            "ex3-index-set",
            "example 3",
            list(range(1, 8)),
            list(accumulate(p_sequence((1, *run.cf.q[:6])))),
        ),
        _claim(
            "ex3-multiplicity",
            "example 3",
            [1] * 10,
            [pt.multiplicity for pt in dense.profile],
        ),
    ]


def _rogers_ramanujan_claims(run: _Run) -> list[Claim]:
    cf, oracle = run.cf, run.oracle
    p = p_sequence((1, *cf.q))
    index = list(accumulate(p))
    claims = [
        _claim(
            "ex4-p-sequence",
            "example 4",
            [1, 0, 2, 1, 3, 2, 4, 3, 5, 4, 6],
            p,
        ),
        _claim(
            "ex4-index-partial-sums",
            "example 4",
            [1, 1, 3, 4, 7, 9, 13, 16, 21, 25, 31],
            index,
        ),
    ]
    # depth j lands at position m_j - 1: 2, 3, 6 and 8 for depths 2..5;
    # gamma = 1 cannot separate powers, so the notes evaluate at gamma = 2
    degrees = []
    for depth, quoted in {2: -(GAMMA**6), 3: GAMMA**12, 4: GAMMA**32, 5: GAMMA**52}.items():
        n = index[depth] - 1
        degrees.append(oracle[n].degree)
        claims.append(
            _claim(
                f"ex4-value-depth-{depth}",
                "example 4",
                scalar_to_json(quoted),
                scalar_to_json(oracle[n]),
                note=f"position {n}; at gamma=2 quoted gives "
                f"{scalar_eval_gamma(quoted, 2)}, the oracle gives "
                f"{scalar_eval_gamma(oracle[n], 2)}",
            )
        )
    quoted_gf = expand_rational_gf(
        [0, 0, 6, 0, 0, 2],  # 2x^2 (x^3 + 3)
        [1, -2, -1, 4, -1, -2, 1],  # (1 + x)^2 (1 - x)^4
        7,
    )
    claims.append(
        _claim(
            "ex4-exponent-gf-pair",
            "example 4",
            [0, 0, 6, 12, 32, 52, 94],
            [int(v) for v in quoted_gf],
            note="the quoted generating function against the quoted exponent "
            "sequence; the sequence itself matches numerator 2x^2(x^2+3)",
        )
    )
    claims.append(
        _claim(
            "ex4-exponent-sequence",
            "example 4",
            [0, 0, 6, 12, 32, 52],
            [0, 0] + degrees,
            note="gamma exponents of the oracle values at positions 2, 3, 6 and 8",
        )
    )
    return claims


def verify_claims(max_n: int = 12) -> VerificationReport:
    """Recompute every recorded reference value and issue verdicts.

    ``max_n`` must cover the longest dense claim (12).  The convention in
    the report is the arbitration winner, and every closed-form value in
    the claims is computed under it.
    """
    if max_n < 12:
        raise ValueError("claim verification needs max_n >= 12")
    runs = _runs(max_n)
    convention, consistent = select_convention(runs)
    working = convention if convention is not None else DEFAULT_CONVENTION
    claims: list[Claim] = []
    claims.extend(_fibonacci_claims(runs["fibonacci-cf"], working))
    claims.extend(_catalan_claims(runs["catalan"], working))
    claims.extend(_aerated_claims(runs["aerated-catalan"], working))
    claims.extend(_rogers_ramanujan_claims(runs["rogers-ramanujan"]))
    claims.sort(key=lambda c: c.id)
    return VerificationReport(convention, consistent, tuple(claims))
