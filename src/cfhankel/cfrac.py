"""C-fraction correspondence for formal power series.

A :class:`CFraction` holds partial numerators ``a_k`` and exponents ``q_k``
and always denotes the continued fraction

    g(x) = 1 / (1 + a_1 x^q_1 / (1 + a_2 x^q_2 / (1 + ...)))

so ``g(0) = 1``.  :func:`correspond` extracts that representation from a
truncated series, and :func:`evaluate` expands a fraction back into a
series.  The two are exact inverses of each other as far as the trusted
truncation window allows; :func:`approximants` and
:func:`determinant_identity_residual` expose the classical approximant
recurrences and the cross-product identity they satisfy.

Extraction works on the reciprocal of the input: writing 1/g = 1 + r(x),
the leading term of r gives (a_1, q_1), and the next level is the
reciprocal of r with that monomial divided out.  Each division by x^q
shrinks the window of trusted coefficients by q, so a term is emitted
exactly when its leading coefficient is pinned by the data supplied:
q_1 + ... + q_n never exceeds the input's trusted order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    DomainError,
    ParamPoly,
    Poly,
    Scalar,
    Series,
    as_scalar,
    int_from_json,
    is_zero_scalar,
    monomial,
    poly,
    scalar_from_json,
    scalar_to_json,
    series_add,
    series_one,
    series_reciprocal,
    series_scale,
    series_shift_down,
    series_sub,
    series_valuation,
)


class ConstantTermNotOne(DomainError):
    """Extraction requires the series to start with constant term 1."""


class NonInvertibleLeadingScalar(DomainError):
    """A symbolic leading coefficient blocked the next extraction step."""


class IndexOutOfRange(DomainError):
    """Approximant index outside the stored partial quotients."""


@dataclass(frozen=True)
class Terminated:
    """The extraction process reached an exactly vanishing remainder."""


@dataclass(frozen=True)
class Truncated:
    """Extraction stopped at the edge of the trusted input window."""

    reliable_order: int


Status = Terminated | Truncated


@dataclass(frozen=True)
class CFraction:
    a: tuple[Scalar, ...]
    q: tuple[int, ...]
    status: Status

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(as_scalar(v) for v in self.a))
        object.__setattr__(self, "q", tuple(self.q))
        if len(self.a) != len(self.q):
            raise ValueError("coefficient and exponent lists differ in length")
        if any(is_zero_scalar(v) for v in self.a):
            raise ValueError("partial numerators must be nonzero")
        if any(not isinstance(e, int) or e < 1 for e in self.q):
            raise ValueError("exponents must be positive integers")
        if not isinstance(self.status, (Terminated, Truncated)):
            raise ValueError("status must be Terminated or Truncated")

    def __len__(self) -> int:
        return len(self.a)

    def exponent_sum(self, n: int) -> int:
        """q_1 + ... + q_n, the agreement exponent of the n-th approximant."""
        if not 0 <= n <= len(self.q):
            raise IndexOutOfRange(f"no {n} partial quotients stored")
        return sum(self.q[:n])


def correspond(f: Series, exact: bool = False) -> CFraction:
    """Extract the continued-fraction representation of a series.

    ``exact=True`` is a caller promise that the supplied coefficients are
    complete: an all-zero remainder is then certified as genuine
    termination instead of the default Truncated status (a zero tail in a
    truncated series proves nothing).
    """
    if f.coeffs[0] != 1:
        raise ConstantTermNotOne(f"series starts with {f.coeffs[0]}, expected 1")
    current = series_reciprocal(f)
    a: list[Scalar] = []
    q: list[int] = []
    while True:
        remainder = series_sub(current, series_one(current.order))
        v = series_valuation(remainder)
        if v is None:
            status = Terminated() if exact else Truncated(f.order)
            return CFraction(tuple(a), tuple(q), status)
        lead = remainder.coeffs[v]
        if isinstance(lead, ParamPoly) and lead.degree >= 1:
            raise NonInvertibleLeadingScalar(
                f"leading coefficient {lead} cannot be inverted in the polynomial ring"
            )
        a.append(lead)
        q.append(v)
        cofactor = series_shift_down(remainder, v)
        current = series_scale(series_reciprocal(cofactor), lead)


def evaluate(cf: CFraction, order: int) -> Series:
    """Taylor expansion of the fraction, built bottom-up at fixed order.

    For a Truncated fraction the expansion agrees with the series it was
    extracted from only through the recorded reliable order, so the result
    is capped there; a Terminated fraction is an exact rational function
    and expands to any requested order.
    """
    if order < 0:
        raise ValueError("expansion order must be non-negative")
    cap = order
    if isinstance(cf.status, Truncated):
        cap = min(order, cf.status.reliable_order)
    tail = series_one(cap)
    for ak, qk in zip(reversed(cf.a), reversed(cf.q)):
        level = series_reciprocal(tail)
        shifted = (Fraction(0),) * qk + tuple(c * ak for c in level.coeffs)
        tail = series_add(series_one(cap), Series(shifted[: cap + 1], cap))
    return series_reciprocal(tail)


@dataclass(frozen=True)
class ApproximantPair:
    """Numerator/denominator polynomials A_n, B_n of the n-th approximant."""

    A: Poly
    B: Poly
    n: int


def approximants(cf: CFraction, n: int) -> ApproximantPair:
    """A_0 = B_0 = 1; A_1 = 1 + a_1 x^q_1, B_1 = 1; then the two-term
    recurrences A_n = A_{n-1} + a_n x^q_n A_{n-2} and likewise for B."""
    if not 0 <= n <= len(cf):
        raise IndexOutOfRange(f"approximant {n} of a {len(cf)}-term fraction")
    one = poly([1])
    if n == 0:
        return ApproximantPair(one, one, 0)
    a_prev, b_prev = one, one
    a_cur = one + monomial(cf.a[0], cf.q[0])
    b_cur = one
    for k in range(2, n + 1):
        term = monomial(cf.a[k - 1], cf.q[k - 1])
        a_cur, a_prev = a_cur + term * a_prev, a_cur
        b_cur, b_prev = b_cur + term * b_prev, b_cur
    return ApproximantPair(a_cur, b_cur, n)


def determinant_identity_residual(cf: CFraction, n: int) -> Poly:
    """A_n B_{n-1} - A_{n-1} B_n minus its closed form; identically zero.

    The closed form is (-1)^(n-1) a_1 ... a_n x^(q_1+...+q_n), which pins
    the order through which successive approximants agree.
    """
    if not 1 <= n <= len(cf):
        raise IndexOutOfRange(f"identity index {n} of a {len(cf)}-term fraction")
    cur = approximants(cf, n)
    prev = approximants(cf, n - 1)
    lhs = cur.A * prev.B - prev.A * cur.B
    coeff: Scalar = Fraction(1) if n % 2 == 1 else Fraction(-1)
    for ak in cf.a[:n]:
        coeff = coeff * ak
    rhs = monomial(coeff, cf.exponent_sum(n))
    return lhs - rhs


def prepend_unit_lead(f: Series) -> Series:
    """1 + x*f(x): embeds an arbitrary series into the unit-constant form
    the extraction requires (the general leading monomial is out of scope)."""
    coeffs = (Fraction(1),) + f.coeffs
    return Series(coeffs, f.order + 1)


def cfraction_to_json(cf: CFraction) -> dict:
    status = "terminated" if isinstance(cf.status, Terminated) else {
        "truncated": cf.status.reliable_order
    }
    return {
        "a": [scalar_to_json(v) for v in cf.a],
        "q": list(cf.q),
        "status": status,
    }


def cfraction_from_json(obj) -> CFraction:
    if not isinstance(obj, dict) or not {"a", "q", "status"} <= set(obj):
        raise ValueError("continued-fraction encoding needs 'a', 'q' and 'status'")
    raw = obj["status"]
    if raw == "terminated":
        status: Status = Terminated()
    elif isinstance(raw, dict) and set(raw) == {"truncated"}:
        status = Truncated(int_from_json(raw["truncated"], "truncated order"))
    else:
        raise ValueError(f"unknown status encoding: {raw!r}")
    return CFraction(
        tuple(scalar_from_json(v) for v in obj["a"]),
        tuple(int_from_json(e, "exponent") for e in obj["q"]),
        status,
    )
