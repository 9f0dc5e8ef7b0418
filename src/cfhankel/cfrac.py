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

Extraction is a Euclid-style ratio step (Jones & Thron 1980): with the
reciprocal of the current tail held as num/den, den(0) = 1, the first
nonzero term a x^q of num - den gives (a, q), and the next level is
den / ((num - den) / (a x^q)).  Each division by x^q shrinks the window
of trusted coefficients by q, so a term is emitted exactly when its
leading coefficient is pinned by the data supplied: q_1 + ... + q_n
never exceeds the input's trusted order.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .exact import (
    DomainError,
    ParamPoly,
    Poly,
    Scalar,
    Series,
    Value,
    int_from_json,
    list_from_json,
    monomial,
    poly,
    ring_scalar,
    scalar_from_json,
    scalar_to_json,
    series_one,
    series_quotient,
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


class Terminated(Value):
    """The extraction process reached an exactly vanishing remainder."""

    __slots__ = ()


class Truncated(Value):
    """Extraction stopped at the edge of the trusted input window."""

    __slots__ = ("reliable_order",)

    def __init__(self, reliable_order: int):
        if int_from_json(reliable_order, "reliable order") < 0:
            raise ValueError(f"reliable order must be non-negative, got {reliable_order}")
        self._set(reliable_order)


Status = Terminated | Truncated


class CFraction(Value):
    __slots__ = ("a", "q", "status")

    def __init__(self, a: tuple[Scalar, ...], q: tuple[int, ...], status: Status):
        a, q = tuple(ring_scalar(v) for v in a), tuple(q)
        if len(a) != len(q):
            raise ValueError("coefficient and exponent lists differ in length")
        if any(v == 0 for v in a):
            raise ValueError("partial numerators must be nonzero")
        if any(not isinstance(e, int) or e < 1 for e in q):
            raise ValueError("exponents must be positive integers")
        if not isinstance(status, (Terminated, Truncated)):
            raise ValueError("status must be Terminated or Truncated")
        self._set(a, q, status)

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
    # the reciprocal of the current tail is num/den, with den(0) = 1
    num, den = series_one(f.order), f
    a: list[Scalar] = []
    q: list[int] = []
    while True:
        diff = series_sub(num, den)
        v = series_valuation(diff)
        if v is None:
            status = Terminated() if exact else Truncated(f.order)
            return CFraction(tuple(a), tuple(q), status)
        lead = diff.coeffs[v]
        if isinstance(lead, ParamPoly) and lead.degree >= 1:
            raise NonInvertibleLeadingScalar(
                f"leading coefficient {lead} cannot be inverted in the polynomial ring"
            )
        a.append(lead)
        q.append(v)
        num = Series(den.coeffs[: diff.order - v + 1], diff.order - v)
        den = series_scale(series_shift_down(diff, v), 1 / lead)


def evaluate(cf: CFraction, order: int) -> Series:
    """Taylor expansion of the fraction as one series quotient B_n/A_n.

    For a Truncated fraction the expansion agrees with the series it was
    extracted from only through the recorded reliable order, so the result
    is capped there; a Terminated fraction is an exact rational function
    and expands to any requested order.  n counts the terms with
    q_1 + ... + q_n <= cap; the n-th approximant agrees with the whole
    fraction through x^(q_1 + ... + q_(n+1) - 1), so later terms cannot
    reach the result.  Cost: O(cap) per term, plus one O(cap^2) quotient.
    """
    if order < 0:
        raise ValueError("expansion order must be non-negative")
    cap = order
    if isinstance(cf.status, Truncated):
        cap = min(order, cf.status.reliable_order)
    pair = approximants(cf, bisect_right(list(accumulate(cf.q)), cap))
    return series_quotient(pair.B.to_series(cap), pair.A.to_series(cap))


class ApproximantPair(NamedTuple):
    """Numerator/denominator polynomials A_n, B_n of the n-th approximant."""

    A: Poly
    B: Poly
    n: int


def approximants(cf: CFraction, n: int) -> ApproximantPair:
    """A_0 = B_0 = 1 and, from A_{-1} = 1, B_{-1} = 0, the two-term
    recurrences A_n = A_{n-1} + a_n x^q_n A_{n-2} and likewise for B
    (so A_1 = 1 + a_1 x^q_1, B_1 = 1)."""
    if not 0 <= n <= len(cf):
        raise IndexOutOfRange(f"approximant {n} of a {len(cf)}-term fraction")
    one = poly([1])
    a_prev, b_prev = one, poly([])
    a_cur, b_cur = one, one
    for k in range(n):
        term = monomial(cf.a[k], cf.q[k])
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
        status = Truncated(raw["truncated"])
    else:
        raise ValueError(f"unknown status encoding: {raw!r}")
    return CFraction(
        tuple(scalar_from_json(v) for v in list_from_json(obj["a"], "partial numerators")),
        tuple(int_from_json(e, "exponent") for e in list_from_json(obj["q"], "exponents")),
        status,
    )
