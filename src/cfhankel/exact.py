"""Exact scalars and truncated power series.

Scalars come in three exact forms:

* ``fractions.Fraction`` for plain rational values,
* :class:`ParamPoly` for univariate polynomials in one formal parameter
  (printed as ``gamma``) with rational coefficients,
* :class:`PolyFrac` for reduced quotients of two such polynomials, used
  where a construction needs a symbolic reciprocal without leaving exact
  arithmetic.

All three answer one numeric protocol, so callers use operators and never
ask which form they hold: ``x == 0``, ``1 / x``, ``x ** n`` for any
integer n, and ``x / y``, which divides polynomials exactly when no
remainder is left and into a reduced :class:`PolyFrac` otherwise.
:func:`as_scalar` gives the normal form: constants are Fractions and a
quotient with denominator 1 is its numerator.  Series, x-polynomials and
continued fractions take coefficients of the polynomial ring only and
refuse a :class:`PolyFrac` when built.

A :class:`Series` couples a coefficient vector with the truncation order
through which those coefficients are trusted.  Every operation propagates
the trusted order pessimistically: a result never claims coefficients the
operands did not supply.  All values are immutable, so everything here is
safe to share between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Union


class DomainError(Exception):
    """Base class for arithmetic contract violations in this package."""


class ZeroConstantTerm(DomainError):
    """Reciprocal requested for a series whose constant term is zero."""


class NonInvertibleScalar(DomainError):
    """Inversion would leave the polynomial ring (non-constant scalar)."""


class InexactDivision(DomainError):
    """A division that must be exact left a remainder: a ring-arithmetic bug."""


class NonPolynomialCoefficient(DomainError):
    """A series, polynomial or fraction coefficient is a polynomial quotient."""


class Value:
    """Immutable value: ``__init__`` sets the fields named by ``__slots__``
    once, through ``_set``; equality and hashing go by the tuple of fields."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# dense coefficient tuples: gamma-polynomials, x-polynomials and series


def _dense_mul(xs, ys, n: int) -> list:
    """Coefficients 0..n-1 of the product of two dense coefficient tuples."""
    out = [Fraction(0)] * n
    for i, a in enumerate(xs[:n]):
        if a == 0:
            continue
        for k, b in enumerate(ys[: n - i], i):
            out[k] += a * b
    return out


def all_integral(values) -> bool:
    """Whether every value is an integral Fraction, so ``int`` arithmetic serves."""
    return all(isinstance(v, Fraction) and v.denominator == 1 for v in values)


# ---------------------------------------------------------------------------
# gamma-polynomials


def _coerce_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot use {value!r} as a rational coefficient")


class ParamPoly(Value):
    """Dense polynomial in the formal parameter ``gamma`` over the rationals.

    Trailing zero coefficients are stripped; the zero polynomial stores an
    empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_coerce_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # degree of the zero polynomial is -1 by convention
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def evaluate(self, value) -> Fraction:
        """Value of the polynomial at a rational point (Horner)."""
        x = _coerce_fraction(value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ParamPoly((other,))
        if not isinstance(other, ParamPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return ParamPoly(self.coeff(k) + other.coeff(k) for k in range(n))

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ParamPoly(c * other for c in self.coeffs)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ParamPoly()
        xs, ys = self.coeffs, other.coeffs
        return ParamPoly(_dense_mul(xs, ys, len(xs) + len(ys) - 1))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """The exact quotient when the division leaves no remainder, else a PolyFrac."""
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        if not isinstance(other, ParamPoly):
            return NotImplemented
        quo, rem = self.div_rem(other)
        return quo if rem.is_zero else PolyFrac(self, other)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return ParamPoly((other,)) / self
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise ValueError("ParamPoly power requires an integer")
        if exponent < 0:
            return 1 / self ** -exponent
        acc = ParamPoly((1,))
        for _ in range(exponent):
            acc = acc * self
        return acc

    def div_rem(self, other: "ParamPoly") -> tuple["ParamPoly", "ParamPoly"]:
        """Quotient and remainder of dense polynomial division."""
        if not isinstance(other, ParamPoly) or other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lead = other.coeffs[-1]
        for k in range(len(rem) - 1, d - 1, -1):
            c = rem[k] / lead
            if c == 0:
                continue
            quo[k - d] = c
            for j, b in enumerate(other.coeffs):
                rem[k - d + j] -= c * b
        return ParamPoly(quo), ParamPoly(rem)

    def exact_div(self, other: "ParamPoly") -> "ParamPoly":
        quo, rem = self.div_rem(other)
        if not rem.is_zero:
            raise InexactDivision(f"{self} is not divisible by {other}")
        return quo

    def __eq__(self, other):
        if isinstance(other, ParamPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.is_zero
            return self.degree == 0 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if self.degree <= 0:
            return hash(self.constant)
        return hash(self.coeffs)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c == 0:
                continue
            if k == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                var = "gamma" if k == 1 else f"gamma^{k}"
                term = f"{mag}{var}"
                if c < 0:
                    term = "-" + term
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term[1:])
            else:
                parts.append(term)
        return " ".join(parts)

    def __repr__(self):
        return f"ParamPoly({self.coeffs!r})"


#: the formal parameter itself
GAMMA = ParamPoly((0, 1))

_ONE_POLY = ParamPoly((1,))


def param_gcd(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, a.div_rem(b)[1]
    if a.is_zero:
        return a
    return a * (Fraction(1) / a.coeffs[-1])


class PolyFrac(Value):
    """Reduced quotient of two gamma-polynomials; denominator kept monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE_POLY):
        num = num if isinstance(num, ParamPoly) else ParamPoly((num,))
        den = den if isinstance(den, ParamPoly) else ParamPoly((den,))
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in polynomial quotient")
        if num.is_zero:
            num, den = ParamPoly(), _ONE_POLY
        else:
            g = param_gcd(num, den)
            if g.degree > 0:
                num, den = num.exact_div(g), den.exact_div(g)
            scale = Fraction(1) / den.coeffs[-1]
            num, den = num * scale, den * scale
        self._set(num, den)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            other = PolyFrac(other)
        if not isinstance(other, PolyFrac):
            return NotImplemented
        return PolyFrac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __neg__(self):
        return PolyFrac(-self.num, self.den)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            other = PolyFrac(other)
        if not isinstance(other, PolyFrac):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial quotient")
        return PolyFrac(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            return PolyFrac(other) / self
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise ValueError("PolyFrac power requires an integer")
        if exponent < 0:
            return 1 / self**-exponent
        return PolyFrac(self.num**exponent, self.den**exponent)

    def evaluate(self, value) -> Fraction:
        return self.num.evaluate(value) / self.den.evaluate(value)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ParamPoly)):
            other = PolyFrac(other)
        if not isinstance(other, PolyFrac):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.den == _ONE_POLY:
            return hash(self.num)
        return hash((self.num.coeffs, self.den.coeffs))

    def __str__(self):
        if self.den == _ONE_POLY:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"PolyFrac({self.num!r}, {self.den!r})"


Scalar = Union[Fraction, ParamPoly, PolyFrac]


def as_scalar(value) -> Scalar:
    """The normal form of an exact scalar; ints and strings become Fractions.

    A quotient with denominator 1 becomes its numerator, and a polynomial
    of degree 0 or less its constant.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, PolyFrac):
        if value.den.degree > 0:
            return value
        value = value.num
    if isinstance(value, ParamPoly):
        return value if value.degree > 0 else value.constant
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"{value!r} is not an exact scalar")


def ring_scalar(value) -> Scalar:
    """as_scalar, refusing a quotient: coefficients of series, x-polynomials
    and continued fractions stay in the gamma-polynomial ring."""
    value = as_scalar(value)
    if isinstance(value, PolyFrac):
        raise NonPolynomialCoefficient(f"coefficient {value} is not a polynomial in gamma")
    return value


def scalar_eval_gamma(value: Scalar, point) -> Fraction:
    """Evaluate a scalar at gamma = point (rationals are constants)."""
    value = as_scalar(value)
    if isinstance(value, Fraction):
        return value
    return value.evaluate(point)


# ---------------------------------------------------------------------------
# polynomials in x (no truncation), used for approximants and rational g.f.s


class Poly(Value):
    """Dense polynomial in x over exact scalars; trailing zeros stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [ring_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.coeff(k) + other.coeff(k) for k in range(n))

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        xs, ys = self.coeffs, other.coeffs
        return Poly(_dense_mul(xs, ys, len(xs) + len(ys) - 1))

    def shift(self, k: int) -> "Poly":
        """Multiply by x**k."""
        if self.is_zero:
            return self
        return Poly((Fraction(0),) * k + self.coeffs)

    def to_series(self, order: int) -> "Series":
        return series(self.coeffs, order)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(f"({c})*x^{k}" if k else f"({c})")
        return " + ".join(parts)


def poly(values: Iterable) -> Poly:
    return Poly(values)


def monomial(coefficient, k: int) -> Poly:
    return Poly((Fraction(0),) * k + (coefficient,))


# ---------------------------------------------------------------------------
# truncated power series


class Series(Value):
    """Coefficients trusted for x^0 .. x^order; len(coeffs) == order + 1."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: tuple[Scalar, ...], order: int):
        if order < 0:
            raise ValueError("series order must be non-negative")
        if len(coeffs) != order + 1:
            raise ValueError(f"series stores {len(coeffs)} coefficients but claims order {order}")
        self._set(coeffs, order)

    def coeff(self, k: int) -> Scalar:
        return self.coeffs[k]

    def __str__(self):
        return f"series[{', '.join(str(c) for c in self.coeffs)}; order {self.order}]"


def series(values: Iterable, order: int | None = None) -> Series:
    """Build a Series, coercing values and zero-padding up to ``order``."""
    cs = [ring_scalar(v) for v in values]
    if order is None:
        if not cs:
            raise ValueError("cannot infer the order of an empty series")
        order = len(cs) - 1
    if len(cs) < order + 1:
        cs.extend(Fraction(0) for _ in range(order + 1 - len(cs)))
    return Series(tuple(cs[: order + 1]), order)


def series_one(order: int) -> Series:
    return series([Fraction(1)], order)


def series_add(f: Series, g: Series) -> Series:
    n = min(f.order, g.order)
    return Series(tuple(f.coeffs[k] + g.coeffs[k] for k in range(n + 1)), n)


def series_sub(f: Series, g: Series) -> Series:
    n = min(f.order, g.order)
    return Series(tuple(f.coeffs[k] - g.coeffs[k] for k in range(n + 1)), n)


def series_scale(f: Series, factor: Scalar) -> Series:
    factor = ring_scalar(factor)
    return Series(tuple(c * factor for c in f.coeffs), f.order)


def series_mul(f: Series, g: Series) -> Series:
    """Truncated product; the result order is the smaller operand order."""
    n = min(f.order, g.order)
    return Series(tuple(_dense_mul(f.coeffs, g.coeffs, n + 1)), n)


def series_valuation(f: Series) -> int | None:
    """Index of the first nonzero stored coefficient.

    Returns None ("zero so far") when every stored coefficient vanishes,
    which deliberately does not distinguish the zero series from a series
    whose first nonzero term lies beyond the trusted order.
    """
    for k, c in enumerate(f.coeffs):
        if c != 0:
            return k
    return None


def _quotient_coeffs(ns, ds, inv0) -> list:
    """Coefficients of num/den from those of num and den, given inv0 = 1/den_0."""
    out = []
    for k, acc in enumerate(ns):
        for j in range(1, k + 1):
            d = ds[j]
            if d == 0:
                continue
            acc = acc - d * out[k - j]
        out.append(inv0 * acc)
    return out


def series_quotient(num: Series, den: Series) -> Series:
    """num/den, exact through the smaller trusted order of the operands.

    When both operands have integer coefficients and den starts with +-1, the
    quotient is integral; it is computed over ``int`` and returned as Fractions.
    """
    n = min(num.order, den.order)
    ns, ds = num.coeffs[: n + 1], den.coeffs[: n + 1]
    d0 = ds[0]
    if d0 in (1, -1) and all_integral(ns + ds):
        # a constant term of +-1 is its own inverse
        ints = _quotient_coeffs([c.numerator for c in ns], [c.numerator for c in ds], d0.numerator)
        return Series(tuple(Fraction(v) for v in ints), n)
    if d0 == 0:
        raise ZeroConstantTerm("series has no reciprocal: constant term is zero")
    inv0 = as_scalar(1 / d0)
    if isinstance(inv0, PolyFrac):
        raise NonInvertibleScalar(f"constant term {d0} has no inverse inside the polynomial ring")
    return Series(tuple(_quotient_coeffs(ns, ds, inv0)), n)


def series_reciprocal(f: Series) -> Series:
    """Multiplicative inverse, exact through the operand's trusted order."""
    return series_quotient(series_one(f.order), f)


def series_shift_down(f: Series, k: int) -> Series:
    """Divide by x**k, dropping the first k coefficients (assumed zero)."""
    if k > f.order:
        raise ValueError("shift below the trusted window")
    return Series(f.coeffs[k:], f.order - k)


def series_eval_gamma(f: Series, point) -> Series:
    return Series(tuple(scalar_eval_gamma(c, point) for c in f.coeffs), f.order)


# ---------------------------------------------------------------------------
# wire formats: rationals as "p/q" strings, polynomials as coefficient lists


def scalar_to_json(value: Scalar):
    value = as_scalar(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, ParamPoly):
        return {"coeffs": [str(c) for c in value.coeffs]}
    raise ValueError(f"{value} has no wire format (unreduced quotient)")


def int_from_json(obj, what: str) -> int:
    """A JSON integer; bools and floats are refused, never coerced."""
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValueError(f"{what} must be an integer, got {obj!r}")
    return obj


def list_from_json(obj, what: str) -> list:
    """A JSON list; strings and objects are refused, never iterated."""
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be a list, got {obj!r}")
    return obj


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _rational_from_json(obj) -> Fraction:
    if isinstance(obj, bool) or not isinstance(obj, (str, int)):
        raise ValueError(f"not a scalar encoding: {obj!r}")
    if isinstance(obj, str) and not _RATIONAL.fullmatch(obj):
        # Fraction would also read "1e30000000", at unbounded cost
        raise ValueError(f"not a rational p/q: {obj!r}")
    try:
        return Fraction(obj)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {obj!r}") from None


def scalar_from_json(obj) -> Scalar:
    if isinstance(obj, dict) and set(obj) == {"coeffs"}:
        coeffs = list_from_json(obj["coeffs"], "polynomial coefficients")
        return as_scalar(ParamPoly(_rational_from_json(c) for c in coeffs))
    return _rational_from_json(obj)


def series_to_json(f: Series) -> dict:
    return {"coeffs": [scalar_to_json(c) for c in f.coeffs], "order": f.order}


def series_from_json(obj) -> Series:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ValueError("series encoding must be an object with 'coeffs'")
    coeffs = [scalar_from_json(c) for c in list_from_json(obj["coeffs"], "series coefficients")]
    order = int_from_json(obj.get("order", len(coeffs) - 1), "series order")
    if len(coeffs) != order + 1:
        raise ValueError("series coefficient count does not match its order")
    return Series(tuple(coeffs), order)
