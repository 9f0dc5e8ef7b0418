"""Closed-form Hankel transforms of C-fraction coefficient data.

The route from a C-fraction to its Hankel transform goes through a second
continued-fraction shape, a reciprocal ladder

    x^p_0 / (b_1 x^p_1 + 1/(b_2 x^p_2 + 1/(b_3 x^p_3 + ...)))

whose exponents come from the alternating sums
p_n = q~_n - q~_{n-1} + q~_{n-2} - ... of the extended exponent list
q~ = (1, q_1, q_2, ...), and whose coefficients are forced by
a_k = 1/(b_k b_{k+1}).  The transform vanishes everywhere except at the
positions n = p_1 + ... + p_m, where its value is a signed monomial in the
partial numerators a_k.

Two sign normalizations of that monomial circulate; they differ by a
global factor of -1.  Nothing here hard-codes a belief about which one is
right: the default is pinned by arbitrating against the exact determinant
oracle over the whole built-in catalog (see the catalog module and the
test suite).

A q-sequence whose alternating sums go negative leaves the scope of the
ladder construction, and every entry point here refuses it rather than
guessing.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Sequence

from .cfrac import CFraction
from .exact import DomainError, Scalar, Value, as_scalar, scalar_to_json


class NegativePExponent(DomainError):
    """An alternating exponent sum went negative: closed form refused."""

    def __init__(self, index: int, value: int):
        super().__init__(f"ladder exponent p_{index} = {value} is negative")
        self.index = index
        self.value = value


class ZeroCoefficient(DomainError):
    """A coefficient that must be invertible is zero."""


class MultiplicityConflict(DomainError):
    """Two positions collided with different values: sign-convention bug."""


class IndexProfileMismatch(DomainError):
    """Index partial sums disagree with their generating function: a bug."""


class Convention(str, Enum):
    """Sign normalization of the closed-form monomial.

    AS_PRINTED evaluates the circulated statement verbatim, including its
    extra global negation; SIGN_CORRECTED drops that negation.  The
    shipped default is whichever the oracle arbitration selects, and the
    test suite enforces that the constant below matches a fresh
    arbitration run.
    """

    AS_PRINTED = "as-printed"
    SIGN_CORRECTED = "sign-corrected"


DEFAULT_CONVENTION = Convention.SIGN_CORRECTED


def p_sequence(qtilde: Sequence[int], count: int | None = None) -> list[int]:
    """p_0..p_count with p_0 = q~_0 and p_n = q~_n - p_{n-1}.

    Equivalently p_n is the alternating sum q~_n - q~_{n-1} + ... +- q~_0.
    Raises NegativePExponent as soon as a term drops below zero.
    """
    q = [int(v) for v in qtilde]
    if not q or q[0] != 1:
        raise ValueError("extended exponent list must start with 1")
    if any(v < 1 for v in q[1:]):
        raise ValueError("exponents must be positive integers")
    last = count if count is not None else len(q) - 1
    if last >= len(q):
        raise ValueError(f"need {last + 1} exponents, got {len(q)}")
    out = [q[0]]
    for n in range(1, last + 1):
        nxt = q[n] - out[-1]
        if nxt < 0:
            raise NegativePExponent(n, nxt)
        out.append(nxt)
    return out


class IndexProfile(NamedTuple):
    """Index bookkeeping for the non-zero transform positions.

    ``m`` holds the partial sums p_0 + ... + p_n; ``dense_pos`` the same
    sums without p_0, which are the dense positions n_j = m_j - 1 where
    values land.  Repeats in dense_pos encode multiplicity.
    """

    qtilde: tuple[int, ...]
    p: tuple[int, ...]
    m: tuple[int, ...]
    dense_pos: tuple[int, ...]


def index_profile(q: Sequence[int], count: int | None = None) -> IndexProfile:
    """Profile of the first ``count`` index entries for exponents q_1, q_2, ...."""
    exps = [int(v) for v in q]
    last = count if count is not None else len(exps)
    if len(exps) < last:
        raise ValueError(f"need {last} exponents, got {len(exps)}")
    qtilde = [1] + exps[:last]
    p = p_sequence(qtilde)
    m = list(accumulate(p))
    # cross-check against the generating function (1 + x*G(x))/(1 - x^2),
    # G carrying q_1, q_2, ...: its n-th coefficient is the sum of q~_k
    # over k = n, n-2, n-4, ...
    for n in range(last + 1):
        expected = sum(qtilde[k] for k in range(n % 2, n + 1, 2))
        if expected != m[n]:
            raise IndexProfileMismatch(
                f"index sum m_{n} = {m[n]}, its generating function gives {expected}"
            )
    return IndexProfile(tuple(qtilde), tuple(p), tuple(m), tuple(v - 1 for v in m))


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
        b.append(as_scalar(1 / (ak * b[-1])))
    return b


def a_from_b(b: Sequence) -> list[Scalar]:
    """Inverse of b_from_a: a_k = 1/(b_k * b_{k+1})."""
    values = [as_scalar(v) for v in b]
    for k, v in enumerate(values):
        if v == 0:
            raise ZeroCoefficient(f"ladder coefficient b_{k} is zero")
    return [as_scalar(1 / (values[k] * values[k + 1])) for k in range(len(values) - 1)]


class PFraction(Value):
    """Reciprocal-ladder data; b stores b_1, b_2, ... with b_0 = 1 implicit."""

    __slots__ = ("b", "p")

    def __init__(self, b: tuple[Scalar, ...], p: tuple[int, ...]):
        if any(v == 0 for v in b):
            raise ZeroCoefficient("ladder coefficients must be nonzero")
        if any(v < 0 for v in p):
            raise NegativePExponent(p.index(min(p)), min(p))
        self._set(b, p)


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
    return as_scalar(value)


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
        return as_scalar(value)


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
    p = p_sequence(qtilde, m)
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


class ProfilePoint(NamedTuple):
    n: int
    value: Scalar
    multiplicity: int


class DenseTransform(NamedTuple):
    dense: tuple[Scalar, ...]
    profile: tuple[ProfilePoint, ...]
    convention: Convention


def dense_transform(
    a: Sequence,
    qtilde: Sequence[int],
    max_n: int,
    convention: Convention = DEFAULT_CONVENTION,
) -> DenseTransform:
    """Dense transform values h_0..h_max_n with a sparse position profile.

    The value at depth m lands at position p_1 + ... + p_m; positions no
    depth reaches are zero.  Depths sharing a position must agree in value
    (a disagreement means a sign-convention bug and raises
    MultiplicityConflict); their count is recorded as the multiplicity.
    """
    if max_n < 0:
        raise ValueError("max_n must be non-negative")
    coeffs = [as_scalar(v) for v in a]
    if len(qtilde) < len(coeffs) + 1:
        raise ValueError("extended exponent list shorter than coefficient list")
    p = p_sequence(qtilde, len(coeffs))
    points: dict[int, ProfilePoint] = {}
    position = 0
    for m in range(len(coeffs) + 1):
        if m > 0:
            position += p[m]
        if position > max_n:
            break
        value = closed_form_value(coeffs, qtilde, m, convention)
        seen = points.get(position)
        if seen is not None and seen.value != value:
            raise MultiplicityConflict(f"position {position}: {seen.value} vs {value}")
        count = 1 if seen is None else seen.multiplicity + 1
        points[position] = ProfilePoint(position, value, count)
    dense: list[Scalar] = [Fraction(0)] * (max_n + 1)
    for pt in points.values():
        dense[pt.n] = pt.value
    profile = tuple(points[n] for n in sorted(points))
    return DenseTransform(tuple(dense), profile, convention)


def dense_transform_of(
    cf: CFraction, max_n: int, convention: Convention = DEFAULT_CONVENTION
) -> DenseTransform:
    return dense_transform(cf.a, (1, *cf.q), max_n, convention)


def dense_to_json(result: DenseTransform) -> dict:
    return {
        "dense": [scalar_to_json(v) for v in result.dense],
        "profile": [
            {"n": pt.n, "value": scalar_to_json(pt.value), "multiplicity": pt.multiplicity}
            for pt in result.profile
        ],
        "convention": result.convention.value,
    }
