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
one of those values from scratch, using the determinant oracle as ground
truth (symbolically where needed, with rational spot checks where a
symbolic determinant would be wastefully large), and reports each claim
as confirmed or refuted.  Refuted claims stay in the report: the harness
is also an errata record.

The sign convention shipped as the package default is not trusted to a
constant: :func:`select_convention` re-runs the oracle arbitration over
the whole catalog, and the report records its outcome.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .cfrac import CFraction, Terminated, evaluate
from .closedform import (
    Convention,
    DEFAULT_CONVENTION,
    DenseTransform,
    dense_transform_of,
    index_profile,
    p_sequence,
)
from .exact import (
    DomainError,
    GAMMA,
    Scalar,
    as_scalar,
    scalar_eval_gamma,
    scalar_to_json,
    series,
    series_quotient,
)


class UnknownName(DomainError):
    """No catalog entry under that name."""


class MissingParameter(DomainError):
    """A required entry parameter was omitted or unusable."""


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
                raise MissingParameter("rogers-ramanujan needs a nonzero gamma")
        return CFraction((coefficient,) * terms, tuple(range(1, terms + 1)), Terminated())
    raise UnknownName(f"no catalog entry named {name!r}")


def expand_rational_gf(numer: Sequence, denom: Sequence, count: int) -> list[Scalar]:
    """First ``count`` Taylor coefficients of numer/denom, exact; both are
    polynomial coefficient sequences, lowest degree first."""
    if count < 1:
        raise ValueError("at least one coefficient must be requested")
    if not denom or denom[0] == 0:
        raise ZeroConstantDenominator("denominator must not vanish at 0")
    order = count - 1
    expansion = series_quotient(series(numer, order), series(denom, order))
    return [as_scalar(c) for c in expansion.coeffs]


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


def _oracle_dense(cf: CFraction, max_n: int) -> list[Scalar]:
    from .hankel_oracle import hankel_transform

    return hankel_transform(evaluate(cf, 2 * max_n).coeffs, max_n)


_ARBITRATION_PLAN = (
    ("catalan", None, 13, 6),
    ("aerated-catalan", None, 10, 6),
    ("fibonacci-cf", None, 8, 12),
    ("rogers-ramanujan", Fraction(2), 6, 6),
)


def select_convention(plan=_ARBITRATION_PLAN) -> tuple[Convention | None, bool]:
    """Pick the sign convention mechanically: the one under which the
    closed form equals the determinant oracle on every catalog entry.

    Returns (convention, consistent).  ``consistent`` is False when no
    single convention (or more than one) survives, which the caller must
    surface prominently.
    """
    surviving = []
    for convention in (Convention.SIGN_CORRECTED, Convention.AS_PRINTED):
        ok = True
        for name, gamma, terms, max_n in plan:
            cf = catalog_cfraction(name, gamma=gamma, terms=terms)
            closed = list(dense_transform_of(cf, max_n, convention).dense)
            if closed != _oracle_dense(cf, max_n):
                ok = False
                break
        if ok:
            surviving.append(convention)
    if len(surviving) == 1:
        return surviving[0], True
    return (surviving[0] if surviving else None), False


def _depth_values(result: DenseTransform) -> list[Scalar]:
    """The closed-form value of each depth the transform reached, in depth
    order: positions never decrease with depth, so these are the profile
    points, each repeated by its multiplicity."""
    return [pt.value for pt in result.profile for _ in range(pt.multiplicity)]


def _claim(cid, location, expected, computed, note="") -> Claim:
    verdict = "confirmed" if expected == computed else "refuted"
    return Claim(cid, location, expected, computed, verdict, note)


def _fibonacci_claims(max_n: int, convention: Convention) -> list[Claim]:
    cf = catalog_cfraction("fibonacci-cf", terms=8)
    oracle = _oracle_dense(cf, max_n)
    dense = dense_transform_of(cf, max_n, convention)
    claims = [
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
            [scalar_to_json(v) for v in _depth_values(dense)[:6]],
        ),
    ]
    profile = {pt.n: pt.multiplicity for pt in dense.profile}
    claims.append(
        _claim(
            "ex1-multiplicity",
            "example 1",
            {"0": 2},
            {str(n): mult for n, mult in sorted(profile.items()) if mult > 1},
            note="only the leading value is doubled",
        )
    )
    fib = fibonacci_numbers(max_n + 2)
    long_q = catalog_cfraction("fibonacci-cf", terms=max_n).q
    claims.append(
        _claim(
            "ex1-index-sequence",
            "example 1",
            fib[1 : max_n + 2],
            list(index_profile(long_q, max_n).m),
        )
    )
    return claims


def _catalan_claims(convention: Convention) -> list[Claim]:
    cf = catalog_cfraction("catalan", terms=13)
    oracle = _oracle_dense(cf, 6)
    dense = dense_transform_of(cf, 6, convention)
    series = evaluate(cf, 12)
    return [
        _claim(
            "ex2-hankel-all-ones",
            "introduction",
            ["1"] * 7,
            [scalar_to_json(v) for v in oracle],
        ),
        _claim(
            "ex2-series-is-catalan",
            "example 2",
            [str(c) for c in catalan_numbers(13)],
            [scalar_to_json(v) for v in series.coeffs],
        ),
        _claim(
            "ex2-index-multiset",
            "example 2",
            [1, 1, 2, 2, 3, 3, 4, 4, 5, 5],
            list(index_profile(cf.q, 9).m),
        ),
        _claim(
            "ex2-multiplicity",
            "example 2",
            [2] * 7,
            [pt.multiplicity for pt in dense.profile],
        ),
    ]


def _aerated_claims(convention: Convention) -> list[Claim]:
    cf = catalog_cfraction("aerated-catalan", terms=10)
    oracle = _oracle_dense(cf, 9)
    dense = dense_transform_of(cf, 9, convention)
    series = evaluate(cf, 12)
    catalan = catalan_numbers(7)
    aerated = [catalan[k // 2] if k % 2 == 0 else Fraction(0) for k in range(13)]
    return [
        _claim(
            "ex3-hankel-all-ones",
            "example 3",
            ["1"] * 10,
            [scalar_to_json(v) for v in oracle],
        ),
        _claim(
            "ex3-series-is-aerated-catalan",
            "example 3",
            [str(c) for c in aerated],
            [scalar_to_json(v) for v in series.coeffs],
        ),
        _claim(
            "ex3-index-set",
            "example 3",
            list(range(1, 8)),
            list(index_profile(cf.q, 6).m),
        ),
        _claim(
            "ex3-multiplicity",
            "example 3",
            [1] * 10,
            [pt.multiplicity for pt in dense.profile],
        ),
    ]


def _rogers_ramanujan_claims(convention: Convention) -> list[Claim]:
    from .hankel_oracle import hankel_det, hankel_transform

    cf = catalog_cfraction("rogers-ramanujan", terms=10)
    claims = [
        _claim(
            "ex4-p-sequence",
            "example 4",
            [1, 0, 2, 1, 3, 2, 4, 3, 5, 4, 6],
            p_sequence((1, *cf.q)),
        ),
        _claim(
            "ex4-index-partial-sums",
            "example 4",
            [1, 1, 3, 4, 7, 9, 13, 16, 21, 25, 31],
            list(index_profile(cf.q, 10).m),
        ),
    ]

    # positions 2 and 3 are judged by symbolic determinants; the quoted
    # values further out by the closed form plus rational spot checks of
    # the oracle at gamma = 2 (gamma = 1 cannot separate powers)
    symbolic = evaluate(catalog_cfraction("rogers-ramanujan", terms=5), 6)
    h2 = hankel_det(symbolic.coeffs, 2)
    h3 = hankel_det(symbolic.coeffs, 3)
    # depths 0..5 land at positions 0, 0, 2, 3, 6 and 8
    closed = _depth_values(dense_transform_of(cf, 8, convention))
    closed2, closed3, closed4, closed5 = closed[2:6]
    gamma2 = evaluate(catalog_cfraction("rogers-ramanujan", gamma=2, terms=7), 16)
    oracle_g2 = hankel_transform(gamma2.coeffs, 8)
    claims.append(
        _claim(
            "ex4-value-depth-2",
            "example 4",
            scalar_to_json(-(GAMMA**6)),
            scalar_to_json(h2),
            note=(
                f"closed form gives {closed2}; at gamma=1 quoted and computed both "
                f"equal {scalar_eval_gamma(h2, 1)}, at gamma=2 quoted gives "
                f"{scalar_eval_gamma(-(GAMMA ** 6), 2)} but the oracle gives "
                f"{oracle_g2[2]}"
            ),
        )
    )
    claims.append(
        _claim(
            "ex4-value-depth-3",
            "example 4",
            scalar_to_json(GAMMA**12),
            scalar_to_json(h3),
            note=f"closed form gives {closed3}",
        )
    )
    claims.append(
        _claim(
            "ex4-value-depth-4",
            "example 4",
            str(scalar_eval_gamma(GAMMA**32, 2)),
            scalar_to_json(oracle_g2[6]),
            note=f"position 6 at gamma=2; closed form gives {closed4}, "
            f"which evaluates to {scalar_eval_gamma(closed4, 2)}",
        )
    )
    claims.append(
        _claim(
            "ex4-value-depth-5",
            "example 4",
            str(scalar_eval_gamma(GAMMA**52, 2)),
            scalar_to_json(oracle_g2[8]),
            note=f"position 8 at gamma=2; closed form gives {closed5}, "
            f"which evaluates to {scalar_eval_gamma(closed5, 2)}",
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
            [0, 0] + [v.degree for v in closed[2:6]],
            note="gamma exponents of the closed-form values, oracle-arbitrated",
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
    convention, consistent = select_convention()
    working = convention if convention is not None else DEFAULT_CONVENTION
    claims: list[Claim] = []
    claims.extend(_fibonacci_claims(max_n, working))
    claims.extend(_catalan_claims(working))
    claims.extend(_aerated_claims(working))
    claims.extend(_rogers_ramanujan_claims(working))
    claims.sort(key=lambda c: c.id)
    return VerificationReport(convention, consistent, tuple(claims))
