"""Exact scalars and truncated power series.

Scalars are elements of the ring Q[gamma], in two exact forms:

* ``fractions.Fraction`` for plain rational values,
* :class:`ParamPoly` for univariate polynomials in one formal parameter
  (printed as ``gamma``) with rational coefficients.

Both answer one numeric protocol, so callers use operators and never ask
which form they hold: ``x == 0``, ``x * y``, ``x ** n`` for any integer
n, and ``x / y`` and ``1 / x``.  Division is by units only: a non-zero
constant divides, a non-constant polynomial raises
:class:`NonInvertibleScalar` (even where it would divide exactly) and
zero raises ``ZeroDivisionError``.  Nothing the package computes leaves
the ring, so there is no quotient form.  Every scalar is in normal form,
and constructing a :class:`ParamPoly` is what makes it: a polynomial of
degree 0 or less comes out as its constant Fraction, so a ParamPoly is
never constant and no result needs normalizing.  :func:`as_scalar` only
coerces outside input.

A :class:`Series` is its coefficient tuple, every coefficient trusted, so
its truncation order is the length minus 1.  There is no type for
polynomials in x: they are coefficient tuples, lowest degree first, and
:func:`series` turns one into a Series.  Every series quotient in the
package, 1/f included, is the one division ``_quotient_coeffs``, and
both integer kernels pack at the one width ``_width`` picks.  Every
operation propagates the trusted order pessimistically: a result never
claims coefficients the operands did not supply.  All values are
immutable, so everything here is safe to share between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat, zip_longest
from math import lcm
from typing import Callable, Iterable, Sequence, Union


class DomainError(Exception):
    """Base class for arithmetic contract violations in this package."""


class ZeroConstantTerm(DomainError):
    """A series quotient's divisor has constant term zero."""


class NonInvertibleScalar(DomainError):
    """Inversion would leave the polynomial ring (non-constant scalar)."""


class InexactDivision(DomainError):
    """A division that must be exact left a remainder: a ring-arithmetic bug."""


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
# dense coefficient tuples


def _dense_mul(xs, ys) -> list:
    """Coefficients of the product of two dense coefficient tuples."""
    out = [Fraction(0)] * (len(xs) + len(ys) - 1)
    for i, a in enumerate(xs):
        if a == 0:
            continue
        for k, b in enumerate(ys, i):
            out[k] += a * b
    return out


# ---------------------------------------------------------------------------
# Kronecker packing: an integer gamma-polynomial as one int at gamma = 2**bits.
# Evaluation there is a ring homomorphism from Z[gamma] to Z, so sums and
# products of packed values are the packed sums and products.  Both integer
# kernels scale their scalars into Z[gamma] (``_clear_denominators``), pack
# each at the one width ``_width`` picks, run over int and unpack each
# result (``_unpack_scalar``, which divides the scale out).


def _clear_denominators(values: Sequence, powers: Iterable[int] | None = None):
    """(L, lists): L is the lcm of the coefficient denominators of the
    scalars ``values``, and list i holds the integer coefficients (lowest
    first) of values[i] * L**powers[i]; every power defaults to 1."""
    coeffs = [v.coeffs if isinstance(v, ParamPoly) else (v,) for v in values]
    scale = lcm(*(c.denominator for p in coeffs for c in p))
    return scale, [[c.numerator * (scale**e // c.denominator) for c in p]
                   for p, e in zip(coeffs, repeat(1) if powers is None else powers)]


def _width(polys: Sequence[Sequence[int]], bound: Callable[[list[int]], int]) -> int:
    """Packing width of the cleared values ``polys``: 0 when all are constants,
    else bits(M) + 1, M = bound(their 1-norms) >= 1.  The kernel proves that M
    bounds the 1-norm of each value it unpacks or tests for zero, so with
    M < 2**(bits - 1) those values' balanced digits are their coefficients."""
    if not any(len(p) > 1 for p in polys):
        return 0
    return bound([sum(map(abs, p)) for p in polys]).bit_length() + 1


def _pack(coeffs: Sequence[int], bits: int) -> int:
    """The integer polynomial ``coeffs`` (lowest first) at gamma = 2**bits.
    Width 0 serves constants only: one coefficient packs to itself."""
    value = 0
    for c in reversed(coeffs):
        value = (value << bits) + c
    return value


def _unpack(value: int, bits: int) -> list[int]:
    """Balanced base-2**bits digits of ``value``, lowest first: the inverse
    of ``_pack`` for coefficients of absolute value below 2**(bits - 1)."""
    if bits < 2:  # the digits {-1, 0} of one bit would map 1 to 1 forever
        raise ValueError(f"balanced digits need at least 2 bits, got {bits}")
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    digits = []
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << bits
        digits.append(digit)
        value = (value - digit) >> bits
    return digits


def _unpack_scalar(value: int, bits: int, divisor: int) -> Scalar:
    """The gamma-polynomial packed as ``value`` divided by ``divisor``."""
    if not bits:
        return Fraction(value, divisor)
    return ParamPoly(Fraction(c, divisor) for c in _unpack(value, bits))


# ---------------------------------------------------------------------------
# gamma-polynomials


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _coerce_fraction(value) -> Fraction:
    """A Fraction, int or "p/q" string as a Fraction; a bool or other type is a
    TypeError, another string a ValueError (Fraction reads "1e300000" slowly)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str) and not _RATIONAL.fullmatch(value):
        raise ValueError(f"not a rational p/q: {value!r}")
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot use {value!r} as a rational scalar")


class ParamPoly(Value):
    """Dense polynomial in the formal parameter ``gamma`` over the rationals.

    Construction makes the normal form: trailing zero coefficients are
    stripped, and what has fewer than two coefficients left is returned as
    its constant Fraction (``Fraction(0)`` when none), so every ParamPoly
    has degree 1 or more.
    """

    __slots__ = ("coeffs",)

    def __new__(cls, coeffs: Iterable = ()) -> Scalar:
        cs = [_coerce_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) < 2:
            return cs[0] if cs else Fraction(0)
        self = object.__new__(cls)
        self._set(tuple(cs))
        return self

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, value) -> Fraction:
        """Value of the polynomial at a rational point (Horner)."""
        x = _coerce_fraction(value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        if isinstance(other, ParamPoly):
            other = other.coeffs
        elif isinstance(other, (int, Fraction)):
            other = (other,)
        else:
            return NotImplemented
        return ParamPoly(x + y for x, y in zip_longest(self.coeffs, other, fillvalue=0))

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
        return ParamPoly(_dense_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a unit of Q[gamma], a non-zero constant; any other
        divisor is refused, even one that would divide exactly."""
        if isinstance(other, ParamPoly):
            raise NonInvertibleScalar(f"{other} has no inverse in the polynomial ring")
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self * (1 / Fraction(other))

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            raise NonInvertibleScalar(f"{self} has no inverse in the polynomial ring")
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise ValueError("ParamPoly power requires an integer")
        if exponent < 0:
            return 1 / self ** -exponent
        acc = Fraction(1)
        for bit in bin(exponent)[2:]:  # square and multiply, top bit first
            acc = acc * acc
            if bit == "1":
                acc = acc * self
        return acc

    def __str__(self):
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
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

Scalar = Union[Fraction, ParamPoly]


def as_scalar(value) -> Scalar:
    """Outside input as an exact scalar: Fractions and ParamPolys pass, ints
    and "p/q" strings become Fractions; a bool or any other type is a
    TypeError, and a string of any other shape a ValueError."""
    return value if isinstance(value, ParamPoly) else _coerce_fraction(value)


def scalar_eval_gamma(value: Scalar, point) -> Fraction:
    """Evaluate a scalar at gamma = point (rationals are constants)."""
    return value.evaluate(point) if isinstance(value, ParamPoly) else value


# ---------------------------------------------------------------------------
# truncated power series


class Series(Value):
    """Coefficients c_0 .. c_order, all trusted: order = len(coeffs) - 1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Scalar, ...]):
        if not coeffs:
            raise ValueError("series order must be non-negative")
        self._set(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def series(values: Iterable, order: int | None = None) -> Series:
    """Build a Series, coercing values and zero-padding up to ``order``."""
    cs = [as_scalar(v) for v in values]
    if order is None:
        if not cs:
            raise ValueError("cannot infer the order of an empty series")
        order = len(cs) - 1
    if order < 0:
        raise ValueError("series order must be non-negative")
    cs.extend(Fraction(0) for _ in range(order + 1 - len(cs)))
    return Series(tuple(cs[: order + 1]))


def _quotient_coeffs(num: Sequence, den: Sequence, count: int) -> list:
    """Coefficients 0..count-1 of num/den over any ring; num and den read as
    0 past their ends.  A zero den[0] raises ZeroConstantTerm, den[0] = 1 is
    its own inverse (int stays int), and 1 / den[0] raises
    NonInvertibleScalar for a non-constant gamma-polynomial."""
    if den[0] == 0:
        raise ZeroConstantTerm("the divisor's constant term is zero")
    inv0 = den[0] if den[0] == 1 else 1 / den[0]
    out = []
    for k in range(count):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k + 1, len(den))):
            d = den[j]
            if d == 0:
                continue
            acc = acc - d * out[k - j]
        out.append(inv0 * acc)
    return out


def series_reciprocal(f: Series) -> Series:
    """Multiplicative inverse, exact through the operand's trusted order."""
    return Series(tuple(_quotient_coeffs((1,), f.coeffs, len(f.coeffs))))


# ---------------------------------------------------------------------------
# wire formats: rationals as "p/q" strings, polynomials as coefficient lists


def scalar_to_json(value: Scalar):
    if isinstance(value, ParamPoly):
        return {"coeffs": [str(c) for c in value.coeffs]}
    return str(value)


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


def check_json_keys(obj, required: set[str], optional: set[str], what: str) -> None:
    """Refuse a non-object, a missing required key and any unknown key."""
    if not isinstance(obj, dict) or not required <= obj.keys():
        raise ValueError(f"{what} encoding must be an object with keys {sorted(required)}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise ValueError(f"unknown keys in the {what} encoding: {sorted(unknown)}")


def _rational_from_json(obj) -> Fraction:
    try:
        return _coerce_fraction(obj)
    except TypeError:
        raise ValueError(f"not a scalar encoding: {obj!r}") from None
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {obj!r}") from None


def scalar_from_json(obj) -> Scalar:
    if isinstance(obj, dict) and set(obj) == {"coeffs"}:
        coeffs = list_from_json(obj["coeffs"], "polynomial coefficients")
        return ParamPoly(_rational_from_json(c) for c in coeffs)
    return _rational_from_json(obj)


def series_to_json(f: Series) -> dict:
    return {"coeffs": [scalar_to_json(c) for c in f.coeffs], "order": f.order}


def series_from_json(obj) -> Series:
    check_json_keys(obj, {"coeffs"}, {"order"}, "series")
    coeffs = [scalar_from_json(c) for c in list_from_json(obj["coeffs"], "series coefficients")]
    order = int_from_json(obj.get("order", len(coeffs) - 1), "series order")
    if len(coeffs) != order + 1:
        raise ValueError("series coefficient count does not match its order")
    return Series(tuple(coeffs))
