"""Second routes that the tests compare the library against.

The package computes each value one way.  The functions here compute the
same values another way, or check an identity the library's values must
satisfy, and only the tests call them:

* the closed-form value of one depth as a signed monomial in the a_k
  (``closed_form_monomial``, ``closed_form_value``), against the one-pass
  ``dense_transform`` of ``cfhankel.closedform``, whose profile gives every
  depth's value;
* the paper's literal closed form in the ladder coefficients b_k
  (``b_from_a`` ... ``closed_form_from_b``), against that monomial form;
* a first-row cofactor expansion, against the Bareiss elimination of
  ``cfhankel.hankel_oracle``;
* the cross-product identity of the approximants of ``cfhankel.cfrac``;
* catalog series cut to an order, and catalog round trips through
  extraction;
* series sum, product and evaluation at a rational gamma.

Importing it also loads the ``cfhankel`` hypothesis profile.  The modules
with properties that run under ``--noconftest`` import this one, so the
profile holds there too; ``tests/conftest.py`` imports it for the rest.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from tempfile import TemporaryDirectory
from typing import NamedTuple, Sequence

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from cfhankel.catalog import catalog_cfraction
from cfhankel.cfrac import CFraction, _approximant_coeffs, correspond, evaluate
from cfhankel.closedform import (
    DEFAULT_CONVENTION,
    Convention,
    NegativePExponent,
    p_sequence,
)
from cfhankel.exact import (
    DomainError,
    Scalar,
    Series,
    Value,
    _dense_mul,
    as_scalar,
    scalar_eval_gamma,
)

# Property tests draw the same examples on every run, a bounded number of
# them, and write nothing into the working directory: no example database,
# and hypothesis's cache of the constants in local source files goes to a
# directory removed at exit.
_HYPOTHESIS_HOME = TemporaryDirectory(prefix="cfhankel-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
settings.register_profile("cfhankel", derandomize=True, max_examples=60, database=None)
settings.load_profile("cfhankel")

# ---------------------------------------------------------------------------
# series arithmetic


def series_add(f: Series, g: Series) -> Series:
    n = min(f.order, g.order)
    return Series(tuple(f.coeffs[k] + g.coeffs[k] for k in range(n + 1)))


def series_mul(f: Series, g: Series) -> Series:
    """Truncated product; the result order is the smaller operand order."""
    n = min(f.order, g.order)
    return Series(tuple(_dense_mul(f.coeffs, g.coeffs)[: n + 1]))


def series_eval_gamma(f: Series, point) -> Series:
    return Series(tuple(scalar_eval_gamma(c, point) for c in f.coeffs))


# ---------------------------------------------------------------------------
# approximants: the cross-product identity


def _stripped(coeffs) -> tuple:
    cs = [as_scalar(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _poly_mul(xs: tuple, ys: tuple) -> tuple:
    if not xs or not ys:
        return ()
    return _stripped(_dense_mul(xs, ys))


def _poly_sub(xs: tuple, ys: tuple) -> tuple:
    n = max(len(xs), len(ys))
    zero = Fraction(0)
    return _stripped(
        (xs[k] if k < len(xs) else zero) - (ys[k] if k < len(ys) else zero) for k in range(n)
    )


def determinant_identity_residual(cf: CFraction, n: int) -> tuple:
    """A_n B_{n-1} - A_{n-1} B_n minus its closed form, as a stripped
    coefficient tuple; identically zero, so always ().

    The closed form is (-1)^(n-1) a_1 ... a_n x^(q_1+...+q_n), which pins
    the order through which successive approximants agree.
    """
    if not 1 <= n <= len(cf):
        raise ValueError(f"identity index {n} of a {len(cf)}-term fraction")

    def pair(k: int) -> list[tuple]:  # B_k, A_k
        return [tuple(map(as_scalar, p)) for p in _approximant_coeffs(cf.a[:k], cf.q[:k])]

    (cur_b, cur_a), (prev_b, prev_a) = pair(n), pair(n - 1)
    lhs = _poly_sub(_poly_mul(cur_a, prev_b), _poly_mul(prev_a, cur_b))
    coeff: Scalar = Fraction(1) if n % 2 == 1 else Fraction(-1)
    for ak in cf.a[:n]:
        coeff = coeff * ak
    rhs = (Fraction(0),) * sum(cf.q[:n]) + (coeff,)
    return _poly_sub(lhs, rhs)


# ---------------------------------------------------------------------------
# determinants


def det_cofactor(rows: Sequence[Sequence]) -> Scalar:
    """First-row cofactor expansion; exponential, for cross-checks only."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = [[as_scalar(v) for v in row] for row in rows]

    def expand(grid: list[list[Scalar]]) -> Scalar:
        size = len(grid)
        if size == 1:
            return grid[0][0]
        total: Scalar = Fraction(0)
        for j, top in enumerate(grid[0]):
            if top == 0:
                continue
            minor = [row[:j] + row[j + 1 :] for row in grid[1:]]
            term = top * expand(minor)
            total = total + term if j % 2 == 0 else total - term
        return total

    return expand(m)


# ---------------------------------------------------------------------------
# catalog series


def terms_for_order(name: str, order: int) -> int:
    """Quotients needed so the entry's expansion is exact through ``order``.

    The m-term cut agrees with the full fraction strictly below
    x^(q_1 + ... + q_{m+1}), so the count is the first m whose exponent sum
    clears the requested order; order + 1 exponents, each at least 1, always
    reach it.
    """
    exponents = catalog_cfraction(name, terms=max(order, 0) + 1).q
    return bisect_right(list(accumulate(exponents)), order) + 1


def catalog_series(name: str, order: int, gamma=None):
    """The entry's series, exact through ``order``."""
    cf = catalog_cfraction(name, gamma=gamma, terms=terms_for_order(name, order))
    return evaluate(cf, order)


def catalog_round_trip(name: str, gamma=None, terms: int = 6) -> bool:
    """Entry series fed back through extraction reproduces its (a, q)."""
    cf = catalog_cfraction(name, gamma=gamma, terms=terms)
    horizon = sum(cf.q) + 4
    try:
        back = correspond(evaluate(cf, horizon), exact=True)
    except DomainError:
        return False
    return back.a == cf.a and back.q == cf.q


# ---------------------------------------------------------------------------
# the ladder: the paper's closed form in the coefficients b_k


class ZeroCoefficient(DomainError):
    """A coefficient that must be invertible is zero."""


def b_from_a(a: Sequence) -> list[Scalar]:
    """Ladder coefficients from partial numerators, unit-led.

    ``a`` starts with the leading coefficient a_0 (1 for fractions with a
    plain unit numerator).  Starting from b_0 = 1, each next value is
    forced by a_k * b_k * b_{k+1} = 1.  The ladder is a rational
    cross-check: its b_k are reciprocals, so a non-constant symbolic a_k
    raises NonInvertibleScalar.
    """
    values = [as_scalar(v) for v in a]
    b: list[Scalar] = [Fraction(1)]
    for k, ak in enumerate(values):
        if ak == 0:
            raise ZeroCoefficient(f"partial numerator a_{k} is zero")
        b.append(1 / (ak * b[-1]))
    return b


def a_from_b(b: Sequence) -> list[Scalar]:
    """Inverse of b_from_a: a_k = 1/(b_k * b_{k+1})."""
    values = [as_scalar(v) for v in b]
    for k, v in enumerate(values):
        if v == 0:
            raise ZeroCoefficient(f"ladder coefficient b_{k} is zero")
    return [1 / (values[k] * values[k + 1]) for k in range(len(values) - 1)]


class PFraction(Value):
    """Reciprocal-ladder data; b stores b_1, b_2, ... with b_0 = 1 implicit."""

    __slots__ = ("b", "p")

    def __init__(self, b: tuple[Scalar, ...], p: tuple[int, ...]):
        if any(v == 0 for v in b):
            raise ZeroCoefficient("ladder coefficients must be nonzero")
        if any(v < 0 for v in p):
            raise NegativePExponent(p.index(min(p)), min(p))
        super().__init__(b, p)


def pfraction_from_cfraction(cf: CFraction) -> PFraction:
    """Ladder form of a C-fraction: exponents q~ = (1, q...) alternated
    into p, coefficients from b_from_a with a unit lead."""
    p = p_sequence((1, *cf.q))
    full_b = b_from_a((Fraction(1), *cf.a))
    return PFraction(tuple(full_b[1:]), tuple(p))


def closed_form_from_b(b: Sequence, p: Sequence[int], m: int) -> Scalar:
    """Ladder-coefficient form of the transform value, evaluated verbatim:

        prod_{i=1..m} (-1)^(p_i (p_i - 1)/2)
        * (-1)^(sum_{i=0..m-1} i * p_{i+1})
        * prod_{i=1..m} b[i]^(-(p_i + 2 * sum_{j>i} p_j))

    Subscripts index straight into ``b``; b[0] is never touched.  Passing
    a unit-led list (as built by b_from_a) evaluates the subscripts
    literally.  Under the unit-lead normalization the coefficient
    introduced at ladder level i is element i+1, so passing ``b[1:]``
    instead aligns each exponent with its own level's coefficient; on that
    alignment the result equals (-1)^n times the Hankel value at position
    n = p_1 + ... + p_m (the relation the tests pin down).  The b[i] are
    raised to negative powers, so they must be rationals (or constants): a
    non-constant symbolic b[i] raises NonInvertibleScalar.
    """
    if m < 0:
        raise ValueError("level count must be non-negative")
    if len(p) <= m:
        raise ValueError(f"need p_0..p_{m}, got {len(p)} entries")
    if len(b) <= m:
        raise ValueError(f"need ladder coefficients through b[{m}]")
    sign_exp = sum(p[i] * (p[i] - 1) // 2 for i in range(1, m + 1))
    sign_exp += sum(i * p[i + 1] for i in range(m))
    value: Scalar = Fraction(-1) if sign_exp % 2 else Fraction(1)
    for i in range(1, m + 1):
        bi = as_scalar(b[i])
        if bi == 0:
            raise ZeroCoefficient(f"ladder coefficient b[{i}] is zero")
        exponent = p[i] + 2 * sum(p[j] for j in range(i + 1, m + 1))
        value = value * bi**-exponent
    return value


# ---------------------------------------------------------------------------
# the closed form of one depth, a signed monomial in the a_k


class MonomialValue(NamedTuple):
    """A transform value as sign times a monomial in the partial numerators.

    ``exponents[k-1]`` is the power of a_k; instantiating multiplies them
    out.  When every a_k is the same parameter, the value is that
    parameter raised to ``total_exponent``, up to sign.
    """

    sign: int
    exponents: tuple[int, ...]

    @property
    def total_exponent(self) -> int:
        return sum(self.exponents)

    def instantiate(self, a: Sequence) -> Scalar:
        value: Scalar = Fraction(self.sign)
        for e, ak in zip(self.exponents, a):
            ak = as_scalar(ak)
            if ak == 0:
                raise ZeroCoefficient("partial numerators must be nonzero")
            if e:
                value = value * ak**e
        return value


def closed_form_monomial(
    qtilde: Sequence[int], m: int, convention: Convention = DEFAULT_CONVENTION
) -> MonomialValue:
    """Structured closed-form value at ladder depth m.

    Signs: (-1)^(sum p_i (p_i + 1)/2) times (-1)^(sum i * p_{i+1}), the
    latter picking up one more flip under AS_PRINTED.  Exponents:
    a_k carries p_k + p_{k+1} + ... + p_m.
    """
    if m < 0:
        raise ValueError("level count must be non-negative")
    p = p_sequence(qtilde[: m + 1])
    sign_exp = sum(p[i] * (p[i] + 1) // 2 for i in range(1, m + 1))
    sign_exp += sum(i * p[i + 1] for i in range(m))
    if convention is Convention.AS_PRINTED:
        sign_exp += 1
    exponents = []
    tail = 0
    for k in range(m, 0, -1):
        tail += p[k]
        exponents.append(tail)
    return MonomialValue(-1 if sign_exp % 2 else 1, tuple(reversed(exponents)))


def closed_form_value(
    a: Sequence,
    qtilde: Sequence[int],
    m: int,
    convention: Convention = DEFAULT_CONVENTION,
) -> Scalar:
    """The closed-form Hankel value at depth m, instantiated over ``a``."""
    if len(a) < m:
        raise ValueError(f"need {m} partial numerators, got {len(a)}")
    return closed_form_monomial(qtilde, m, convention).instantiate(a[:m])
