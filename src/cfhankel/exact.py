"""Exact scalars and truncated power series.

Scalars are elements of the ring Q[gamma], in two exact forms:

* ``fractions.Fraction`` for plain rational values,
* :class:`ParamPoly` for univariate polynomials in one formal parameter
  (printed as ``gamma``) with rational coefficients.

Both answer one numeric protocol, so callers use operators and never ask
which form they hold: ``x == 0``, ``x * y``, ``x ** n`` for any integer
n, and ``x / y`` and ``1 / x``; inside this module only ``_coeffs`` asks,
and it reads either form as its coefficient tuple.  Division is by units
only: a non-zero constant divides, a non-constant polynomial raises
:class:`NonInvertibleScalar` (even where it would divide exactly) and
zero raises ``ZeroDivisionError``.  Nothing the package computes leaves
the ring, so there is no quotient form.  Every scalar is in normal form,
and constructing a :class:`ParamPoly` is what makes it: a polynomial of
degree 0 or less comes out as its constant Fraction, so a ParamPoly is
never constant and no result needs normalizing.  :func:`as_scalar` only
coerces outside input.

A :class:`Series` is its coefficient tuple, each coefficient a scalar
and trusted, so its order is the length minus 1.  Polynomials in x are
coefficient tuples, lowest degree first, and :func:`series` turns one
into a Series.  Every series quotient in the package, 1/f included, is
the one division ``_quotient_coeffs``, and one Kronecker route, packed at
the one width ``_width`` picks, serves the integer kernels of
``cfrac.evaluate`` and the oracle and ``ParamPoly``'s ``*`` and ``**``
(``_packed_power``).  Every operation propagates the trusted order
pessimistically: a result never claims coefficients the operands did not
supply.  Every record of the package is a :class:`Value`: immutable, so
safe to share between threads, and compared by its fields.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import repeat
from math import lcm, prod


class DomainError(Exception):
    """Base class for arithmetic contract violations in this package."""


class ZeroConstantTerm(DomainError):
    """A series quotient's divisor has constant term zero."""


class NonInvertibleScalar(DomainError):
    """Inversion would leave the polynomial ring (non-constant scalar)."""


class InexactDivision(DomainError):
    """A division that must be exact left a remainder: a ring-arithmetic bug."""


class Value:
    """The package's one record type, immutable: the constructor sets the
    ``__slots__`` fields in order and refuses a wrong count; equality, hashing,
    copying, pickling, ``_asdict`` and ``_replace`` go by the fields in order."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__}{self.__slots__} given {len(values)} values")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _asdict(self) -> dict:
        return dict(zip(self.__slots__, self._fields()))

    def _replace(self, **changes):
        return type(self)(*(self._asdict() | changes).values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), self._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# dense coefficient tuples


def _add_shifted(p: tuple, q: int, r: tuple) -> tuple:
    """The one coefficient add: p + x^q r over any ring, trailing zeros stripped."""
    out = list(p) + [0] * (q + len(r) - len(p))
    for k, v in enumerate(r, q):
        out[k] = out[k] + v
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _horner(coeffs: Sequence, x):
    """The polynomial ``coeffs`` (lowest first) at ``x``: the one Horner loop."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# Kronecker packing: an integer gamma-polynomial as one int at gamma = 2**bits.
# Evaluation there is a ring homomorphism from Z[gamma] to Z, so sums and
# products of packed values are the packed sums and products.  The integer
# kernels and ``_packed_power`` scale their scalars into Z[gamma]
# (``_clear_denominators``), pack each at the width ``_width`` picks, run
# over int and unpack each result (``_unpack_scalar`` divides the scale out).


def _clear_denominators(values: Sequence, powers: Iterable[int] | None = None):
    """(L, lists): L is the lcm of the coefficient denominators of the
    scalars ``values``, and list i holds the integer coefficients (lowest
    first) of values[i] * L**powers[i]; every power defaults to 1."""
    coeffs = [_coeffs(v) for v in values]
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
    return _horner(coeffs, 1 << bits)


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


def _packed_power(factors: Sequence, exponent: int) -> Scalar:
    """(product of the scalars ``factors``) ** exponent, exponent >= 0, as one
    int product or power.  The k cleared factors multiply to L**(k * exponent)
    times the result, and since |fg|_1 <= |f|_1 |g|_1 its 1-norm is at most
    (product of their 1-norms) ** exponent, taken as at least 1 so that a zero
    factor still packs."""
    scale, polys = _clear_denominators(factors)
    bits = _width(polys, lambda norms: max(1, prod(norms)) ** exponent)
    value = prod(_pack(p, bits) for p in polys) ** exponent
    return _unpack_scalar(value, bits, scale ** (len(factors) * exponent))


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


def _coeffs(value) -> tuple | None:
    """A scalar's coefficients, lowest first: an int or a Fraction is its
    1-tuple and a ParamPoly its ``coeffs``; None for any other type.  The one
    place that tells the two scalar forms apart."""
    if isinstance(value, ParamPoly):
        return value.coeffs
    return (value,) if isinstance(value, (int, Fraction)) else None


def scalar_eval_gamma(value: Scalar, point) -> Fraction:
    """Evaluate a scalar at gamma = point (rationals are constants)."""
    return _horner(_coeffs(value), _coerce_fraction(point))


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
        Value.__init__(self, tuple(cs))
        return self

    __init__ = object.__init__  # __new__ set the field; Value's would store the raw argument

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    evaluate = scalar_eval_gamma  # its value at a rational point

    def __add__(self, other):
        other = _coeffs(other)
        if other is None:
            return NotImplemented
        return ParamPoly(_add_shifted(self.coeffs, 0, other))

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _coeffs(other) is None:
            return NotImplemented
        return _packed_power((self, other), 1)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a unit of Q[gamma], a non-zero constant; any other
        divisor is refused, even one that would divide exactly."""
        if _coeffs(other) is None:
            return NotImplemented
        return self * (Fraction(1) / other)  # a ParamPoly's __rtruediv__ refuses

    def __rtruediv__(self, other):
        if _coeffs(other) is None:
            return NotImplemented
        raise NonInvertibleScalar(f"{self} has no inverse in the polynomial ring")

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise ValueError("ParamPoly power requires an integer")
        if exponent < 0:
            return 1 / self ** -exponent
        return _packed_power((self,), exponent)

    def __str__(self):  # highest power first, each term's sign between the terms
        text = ""
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c:
                power = "" if k == 0 else "gamma" if k == 1 else f"gamma^{k}"
                mag = str(abs(c)) if not power else "" if abs(c) == 1 else f"{abs(c)}*"
                text += (" - " if c < 0 else " + ") + mag + power
        return text[3:] if text.startswith(" + ") else "-" + text[3:]

    def __repr__(self):
        return f"ParamPoly({self.coeffs!r})"


#: the formal parameter itself
GAMMA = ParamPoly((0, 1))

Scalar = Fraction | ParamPoly


def as_scalar(value) -> Scalar:
    """Outside input as an exact scalar: Fractions and ParamPolys pass, ints
    and "p/q" strings become Fractions; a bool or any other type is a
    TypeError, and a string of any other shape a ValueError."""
    return value if isinstance(value, ParamPoly) else _coerce_fraction(value)


# ---------------------------------------------------------------------------
# truncated power series


class Series(Value):
    """Coefficients c_0 .. c_order, all trusted: order = len(coeffs) - 1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        coeffs = tuple(map(as_scalar, coeffs))  # a bool or a float is a TypeError
        if not coeffs:
            raise ValueError("series order must be non-negative")
        super().__init__(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def series(values: Iterable, order: int | None = None) -> Series:
    """A Series of ``values`` cut or zero-padded to ``order`` (default: all)."""
    cs = list(values)
    if order is None and not cs:
        raise ValueError("cannot infer the order of an empty series")
    order = len(cs) - 1 if order is None else order
    if order < 0:
        raise ValueError("series order must be non-negative")
    return Series(cs[: order + 1] + [0] * (order + 1 - len(cs)))


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
    return Series(_quotient_coeffs((1,), f.coeffs, len(f.coeffs)))


# ---------------------------------------------------------------------------
# wire formats: rationals as "p/q" strings, polynomials as coefficient lists


def scalar_to_json(value: Scalar):
    coeffs = _coeffs(value)
    return str(value) if len(coeffs) == 1 else {"coeffs": [str(c) for c in coeffs]}


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
    return Series(coeffs)
