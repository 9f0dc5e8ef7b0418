"""C-fraction correspondence for formal power series.

A :class:`CFraction` holds partial numerators ``a_k``, exponents ``q_k``
and its reliable order (``None``: terminated), and always denotes the
continued fraction

    g(x) = 1 / (1 + a_1 x^q_1 / (1 + a_2 x^q_2 / (1 + ...)))

so ``g(0) = 1``.  :func:`correspond` extracts that representation from a
truncated series, and :func:`evaluate` expands a fraction back into a
series.  The two are exact inverses of each other as far as the trusted
truncation window allows.

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

from .exact import (
    DomainError,
    NonInvertibleScalar,
    Scalar,
    Series,
    Value,
    _clear_denominators,
    _pack,
    _quotient_coeffs,
    _unpack_scalar,
    _width,
    as_scalar,
    check_json_keys,
    int_from_json,
    list_from_json,
    scalar_from_json,
    scalar_to_json,
)


class ConstantTermNotOne(DomainError):
    """Extraction requires the series to start with constant term 1."""


class NonInvertibleLeadingScalar(DomainError):
    """A symbolic leading coefficient blocked the next extraction step."""


class CFraction(Value):
    """``reliable_order`` N >= 0: trusted through x^N; ``None``: terminated,
    an exact rational function trusted at any order."""

    __slots__ = ("a", "q", "reliable_order")

    def __init__(self, a: tuple[Scalar, ...], q: tuple[int, ...],
                 reliable_order: int | None = None):
        a = tuple(as_scalar(v) for v in a)
        q = tuple(int_from_json(e, "exponent") for e in q)  # bools refused too
        if len(a) != len(q):
            raise ValueError("coefficient and exponent lists differ in length")
        if any(v == 0 for v in a):
            raise ValueError("partial numerators must be nonzero")
        if any(e < 1 for e in q):
            raise ValueError("exponents must be positive integers")
        if reliable_order is not None and int_from_json(reliable_order, "reliable order") < 0:
            raise ValueError(f"reliable order must be non-negative, got {reliable_order}")
        super().__init__(a, q, reliable_order)

    def __len__(self) -> int:
        return len(self.a)


def correspond(f: Series, exact: bool = False) -> CFraction:
    """Extract the continued-fraction representation of a series.

    ``exact=True`` is a caller promise that the supplied coefficients are
    complete: an all-zero remainder is then certified as genuine
    termination (reliable order ``None``) instead of the default, the
    series' own order (a zero tail in a truncated series proves nothing).
    """
    if f.coeffs[0] != 1:
        raise ConstantTermNotOne(f"series starts with {f.coeffs[0]}, expected 1")
    # the reciprocal of the current tail is num/den, den(0) = 1, as equal-length lists
    num = [Fraction(1)] + [Fraction(0)] * f.order
    den = list(f.coeffs)
    a: list[Scalar] = []
    q: list[int] = []
    while True:
        diff = [x - y for x, y in zip(num, den)]
        v = next((k for k, c in enumerate(diff) if c != 0), None)
        if v is None:
            return CFraction(tuple(a), tuple(q), None if exact else f.order)
        lead = diff[v]
        try:
            inverse = 1 / lead
        except NonInvertibleScalar:
            raise NonInvertibleLeadingScalar(
                f"leading coefficient {lead} cannot be inverted in the polynomial ring"
            ) from None
        a.append(lead)
        q.append(v)
        num = den[: len(diff) - v]
        den = [c * inverse for c in diff[v:]]


def evaluate(cf: CFraction, order: int) -> Series:
    """Taylor expansion of the fraction as one series quotient B_n/A_n.

    A fraction with a reliable order agrees with the series it was
    extracted from only through that order, so the result is capped there;
    a terminated one (reliable order ``None``) is an exact rational
    function and expands to any requested order.  n counts the terms with
    q_1 + ... + q_n <= cap; the n-th approximant agrees with the whole
    fraction through x^(q_1 + ... + q_(n+1) - 1), so later terms cannot
    reach the result.

    The expansion runs over ``int``.  With D the lcm of the coefficient
    denominators of a_1..a_n, the substitution x -> D x turns each a_k into
    a_k D^q_k, which lies in Z[gamma].  A_n(0) = 1, so the quotient divides
    nowhere, and coefficient k of the result is e_k / D^k for the integer
    e_k it computes.  Every a_k D^q_k is packed into one int at gamma =
    2**bits (``exact._pack``), bits from ``exact._width`` and a 1-norm
    bound on the e_k.  The integers reach about cap * bits(D) bits, so past
    ``_SCALED_BITS`` the same recurrence and quotient run on the
    gcd-reduced Fraction/ParamPoly scalars instead.  Cost: O(cap) ring
    operations per term, plus one O(cap^2) quotient.
    """
    if order < 0:
        raise ValueError("expansion order must be non-negative")
    cap = order if cf.reliable_order is None else min(order, cf.reliable_order)
    n = bisect_right(list(accumulate(cf.q)), cap)
    a, q = cf.a[:n], cf.q[:n]
    scale, polys = _clear_denominators(a, q)
    if scale.bit_length() * cap > _SCALED_BITS:
        return Series(_quotient_coeffs(*_approximant_coeffs(a, q), cap + 1))

    def bound(norms: list[int]) -> int:
        # Every term of A_n = A_{n-1} + a_n x^q_n A_{n-2}, and of B_n, enters
        # with a + sign, so by |f + g|_1 <= |f|_1 + |g|_1 and |fg|_1 <=
        # |f|_1 |g|_1 the same recurrence run on the 1-norms |a_k D^q_k|_1
        # gives B~, A~ whose coefficient j bounds the 1-norm of coefficient j
        # of B_n, A_n.  With A_n = 1 - R, R(0) = 0, the quotient is B_n (1 +
        # R + R^2 + ...) and A~ - 1 bounds R, so coefficient k of B~ / (2 - A~)
        # bounds |e_k|_1; only the e_k are unpacked.
        b_norm, a_norm = _approximant_coeffs(norms, q)
        return max(_quotient_coeffs(b_norm, (1, *(-v for v in a_norm[1:])), cap + 1))

    bits = _width(polys, bound)
    e = _quotient_coeffs(*_approximant_coeffs([_pack(p, bits) for p in polys], q), cap + 1)
    return Series(_unpack_scalar(v, bits, scale**k) for k, v in enumerate(e))


# Past this many bits for cap * bits(D), evaluate leaves int.  A fraction
# extracted from a generic integer series has a_k whose denominators are
# products of Hankel determinants, so bits(D) grows with every term while
# the expansion stays small, and the reduced scalars win.  On such
# fractions the int route took 0.2-0.56x the Fraction time below cap *
# bits(D) = 5,600 and 0.9-1.5x at 8,000-11,000 (one CPU of a 2-core x86-64
# host, CPython 3.11); on fractions whose expansion does grow, as with
# random rational a_k, it stays faster beyond (0.18x at 9,800).
_SCALED_BITS = 4096


def _add_shifted(p: tuple, c, q: int, r: tuple) -> tuple:
    """Coefficients of p + c x^q r over any ring, trailing zeros stripped."""
    out = list(p) + [0] * (q + len(r) - len(p))
    for k, v in enumerate(r, q):
        out[k] = out[k] + c * v
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _approximant_coeffs(a, q) -> tuple[tuple, tuple]:
    """Coefficient tuples (lowest degree first, trailing zeros stripped) of
    the numerator B_n and denominator A_n of the n-term fraction, over
    whatever ring the a_k lie in: A_0 = B_0 = 1 and, from A_{-1} = 1,
    B_{-1} = 0, A_n = A_{n-1} + a_n x^q_n A_{n-2} and likewise for B."""
    a_prev, b_prev = (1,), ()
    a_cur, b_cur = (1,), (1,)
    for ak, qk in zip(a, q):
        a_cur, a_prev = _add_shifted(a_cur, ak, qk, a_prev), a_cur
        b_cur, b_prev = _add_shifted(b_cur, ak, qk, b_prev), b_cur
    return b_cur, a_cur


def cfraction_to_json(cf: CFraction) -> dict:
    order = cf.reliable_order
    return {
        "a": [scalar_to_json(v) for v in cf.a],
        "q": list(cf.q),
        "status": "terminated" if order is None else {"truncated": order},
    }


def cfraction_from_json(obj) -> CFraction:
    check_json_keys(obj, {"a", "q", "status"}, set(), "continued-fraction")
    raw = obj["status"]
    if raw == "terminated":
        order = None
    elif isinstance(raw, dict) and set(raw) == {"truncated"}:
        # null would read as terminated
        order = int_from_json(raw["truncated"], "reliable order")
    else:
        raise ValueError(f"unknown status encoding: {raw!r}")
    return CFraction(
        tuple(scalar_from_json(v) for v in list_from_json(obj["a"], "partial numerators")),
        list_from_json(obj["q"], "exponents"),
        order,
    )
