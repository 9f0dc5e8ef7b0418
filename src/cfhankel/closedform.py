"""Closed-form Hankel transforms of C-fractions.

:func:`dense_transform` reads the transform of a :class:`CFraction` off
its exponents and partial numerators alone.  The exponents give the
alternating sums p_n = q~_n - q~_{n-1} + ... +- q~_0 of the extended
exponent list q~ = (1, q_1, q_2, ...).  The transform vanishes everywhere
except at the positions n = p_1 + ... + p_m, where its value is a signed
monomial in the partial numerators: a_k carries the power
p_k + p_{k+1} + ... + p_m.  Being a monomial, the value stays in Q[gamma]
for symbolic a_k.  Consecutive depths differ by one power of a prefix
product, so one linear pass reads every depth; the monomial of one depth
is kept in ``tests/crosscheck.py`` as the reference that pass is checked
against.  The fraction's type already guarantees what the pass relies on:
non-zero a_k and exponents q_k >= 1, one of each per depth.

A fraction of reliable order N (``None``: terminated) fixes h_n only for
n <= N // 2, since h_n depends on c_0..c_2n; :func:`dense_transform`
refuses anything past that window, and at an even N it gives the point
at n = N / 2 the multiplicity ``None``, since the input does not fix it.

The paper reaches that monomial through a reciprocal ladder

    x^p_0 / (b_1 x^p_1 + 1/(b_2 x^p_2 + 1/(b_3 x^p_3 + ...)))

whose coefficients are forced by a_k = 1/(b_k b_{k+1}), and states the
value as a product of powers of the b_k.  That literal formula is kept in
the tests (``tests/crosscheck.py``) as the reference the monomial form is
checked against; here the b_k are eliminated.

Two sign normalizations of that monomial circulate; they differ by the
global factor :attr:`Convention.sign`.  Nothing here hard-codes a belief
about which one is right: the default is pinned by arbitrating against
the exact determinant oracle over the whole built-in catalog (see the
catalog module and the test suite).

A q-sequence whose alternating sums go negative leaves the scope of the
construction: :func:`p_sequence` and :func:`dense_transform` refuse a
negative p_n that they need rather than guessing, and the transform needs
none past the depth that overshoots max_n.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .cfrac import CFraction
from .exact import DomainError, Scalar, int_from_json, scalar_to_json


class NegativePExponent(DomainError):
    """An alternating exponent sum went negative: closed form refused."""

    def __init__(self, index: int, value: int):
        super().__init__(f"ladder exponent p_{index} = {value} is negative")
        self.index = index
        self.value = value


class OutsideTruncationWindow(DomainError):
    """A transform entry past what a truncated fraction determines."""


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

    @property
    def sign(self) -> int:  # the global factor of the monomial
        return -1 if self is Convention.AS_PRINTED else 1


DEFAULT_CONVENTION = Convention.SIGN_CORRECTED


def _p_terms(qtilde: Sequence[int]) -> Iterator[int]:
    """p_0, p_1, ... on demand, p_0 = q~_0 and p_n = q~_n - p_{n-1}.

    Equivalently p_n is the alternating sum q~_n - q~_{n-1} + ... +- q~_0.
    Checks q~ on the first draw and raises NegativePExponent on reaching a
    term below zero, so a caller that stops early never meets a later one.
    """
    q = [int_from_json(v, "exponent") for v in qtilde]
    if not q or q[0] != 1:
        raise ValueError("extended exponent list must start with 1")
    if any(v < 1 for v in q[1:]):
        raise ValueError("exponents must be positive integers")
    p = 0
    for n, qn in enumerate(q):
        p = qn - p
        if p < 0:
            raise NegativePExponent(n, p)
        yield p


def p_sequence(qtilde: Sequence[int]) -> list[int]:
    """p_0, p_1, ..., one for each entry of q~."""
    return list(_p_terms(qtilde))


class ProfilePoint(NamedTuple):
    n: int
    value: Scalar
    multiplicity: int | None  # None: not fixed by the input


class DenseTransform(NamedTuple):
    dense: tuple[Scalar, ...]
    profile: tuple[ProfilePoint, ...]
    convention: Convention


def dense_transform(
    cf: CFraction, max_n: int, convention: Convention = DEFAULT_CONVENTION
) -> DenseTransform:
    """Dense transform values h_0..h_max_n of a fraction, with a sparse
    position profile.

    The value at depth m lands at position p_1 + ... + p_m; positions no
    depth reaches are zero.  Depths sharing a position agree in value, and
    their count is recorded as the multiplicity.

    One pass over the depths: from depth m - 1 to m every a_k with k <= m
    gains p_m in its power, so value(m) is +-value(m - 1) (a_1 ... a_m)^p_m,
    the sign exponent rising by p_m (p_m + 1)/2 + (m - 1) p_m; p_m = 0
    leaves the value and its position as they were.  A running prefix
    product makes the pass linear in the depth.  The pass reads p_m on
    reaching depth m, so a negative exponent past max_n is never met.

    h_n is a function of c_0..c_2n, so a fraction of reliable order N,
    which agrees with its series only through x^N, fixes h_n for
    n <= N // 2 and no further: a larger max_n raises
    OutsideTruncationWindow before any work.  Inside the window, depths
    past the trusted ones (q_1 + ... + q_m > N) change at most one
    multiplicity.  As q_k = p_(k-1) + p_k, q_1 + ... + q_m = 1 + 2P + p_m,
    where P = p_1 + ... + p_(m-1) <= N / 2 is where depth m - 1 lies.  So
    an untrusted depth has p_m >= N - 2P >= 0, raising nothing, and lands
    at P + p_m >= N - P >= N / 2: inside the window only as a p_m = 0 step
    at n = N / 2, N even.  The input cannot fix whether that step exists,
    so that point's multiplicity is None (the Catalan series through x^8
    starts fractions with 1 and with 2 depths at n = 4).
    """
    if max_n < 0:
        raise ValueError("max_n must be non-negative")
    order = cf.reliable_order
    if order is not None and max_n > order // 2:
        raise OutsideTruncationWindow(
            f"a fraction reliable through order {order} fixes h_n only for "
            f"n <= {order // 2}, not up to max_n = {max_n}"
        )
    p = _p_terms((1, *cf.q))
    next(p)  # p_0 = 1 moves no position
    value: Scalar = Fraction(convention.sign)
    prefix: Scalar = Fraction(1)
    profile = [ProfilePoint(0, value, 1)]
    position = 0
    for m, (ak, pm) in enumerate(zip(cf.a, p), 1):
        position += pm
        if position > max_n:
            break
        prefix = prefix * ak
        if pm == 0:
            profile[-1] = profile[-1]._replace(multiplicity=profile[-1].multiplicity + 1)
            continue
        value = value * prefix**pm
        if (pm * (pm + 1) // 2 + (m - 1) * pm) % 2:
            value = -value
        profile.append(ProfilePoint(position, value, 1))
    if order is not None and 2 * profile[-1].n == order:
        profile[-1] = profile[-1]._replace(multiplicity=None)
    dense: list[Scalar] = [Fraction(0)] * (max_n + 1)
    for pt in profile:
        dense[pt.n] = pt.value
    return DenseTransform(tuple(dense), tuple(profile), convention)


def dense_to_json(result: DenseTransform) -> dict:
    return {
        "dense": [scalar_to_json(v) for v in result.dense],
        "profile": [pt._asdict() | {"value": scalar_to_json(pt.value)} for pt in result.profile],
        "convention": result.convention.value,
    }
