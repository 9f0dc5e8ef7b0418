"""Ground-truth Hankel transforms by exact determinant evaluation.

The matrix of order n built from a sequence has entry (i, j) equal to
seq[i + j], so it needs 2n + 1 leading terms.  Determinants are computed
by fraction-free (Bareiss) elimination over Python ``int``, where every
division is exact and checked with ``divmod``: a remainder aborts loudly,
because it can only mean broken arithmetic.  A matrix whose entries are
all integers, as every integral catalog sequence gives, is eliminated as
it is.  Any other matrix, with a non-integral rational or a
gamma-polynomial entry, first has its denominators cleared and each entry
packed into one integer by Kronecker substitution, evaluating it at
gamma = 2**B for a B at which every minor's coefficients fit their
digits.  The route is read off the entries alone; the result
is a ``Fraction`` or ``ParamPoly`` either way.

``hankel_transform`` is the reference every closed-form value in this
package is judged against.  The elimination itself is cross-checked in
the tests against a naive cofactor expansion, which lives in
``tests/crosscheck.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .exact import DomainError, InexactDivision, ParamPoly, Scalar, all_integral, as_scalar


class InsufficientTerms(DomainError):
    """The sequence is too short for the requested matrix order."""


def hankel_matrix(seq: Sequence, n: int) -> tuple[tuple[Scalar, ...], ...]:
    """Rows of the order-n Hankel matrix, entry (i, j) = seq[i + j]."""
    if n < 0:
        raise ValueError("matrix order must be non-negative")
    if len(seq) < 2 * n + 1:
        raise InsufficientTerms(
            f"order {n} needs {2 * n + 1} terms, only {len(seq)} supplied"
        )
    values = [as_scalar(v) for v in seq]
    return tuple(tuple(values[i + j] for j in range(n + 1)) for i in range(n + 1))


def _checked_div(num: int, den: int) -> int:
    quotient, remainder = divmod(num, den)
    if remainder:
        raise InexactDivision(f"{num} is not divisible by {den}")
    return quotient


def _bareiss(m: list[list[int]]) -> int:
    """Determinant of the square integer matrix ``m``, eliminated in place.

    Zero pivots are repaired by a signed row exchange; a fully zero pivot
    column settles the determinant as 0 immediately.
    """
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = _checked_div(pivot * row_i[j] - head * m[k][j], prev)
        prev = pivot
    result = m[n - 1][n - 1]
    return -result if sign < 0 else result


def _pack(coeffs: Sequence[int], bits: int) -> int:
    """The integer polynomial ``coeffs`` (lowest first) at gamma = 2**bits."""
    value = 0
    for c in reversed(coeffs):
        value = (value << bits) + c
    return value


def _unpack(value: int, bits: int) -> list[int]:
    """Balanced base-2**bits digits of ``value``, lowest first: the inverse
    of ``_pack`` for coefficients of absolute value below 2**(bits - 1)."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    digits = []
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << bits
        digits.append(digit)
        value = (value - digit) >> bits
    return digits


def matrix_det(rows: Sequence[Sequence]) -> Scalar:
    """Fraction-free elimination determinant over the rationals or Q[gamma].

    Every matrix is eliminated over ``int``: an all-integer one as it is,
    any other scaled by the lcm L of its coefficient denominators with each
    entry packed into one integer; that determinant is unpacked and divided
    by L**n.  The value is a ``Fraction`` or ``ParamPoly`` either way.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = [[as_scalar(v) for v in row] for row in rows]
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    if all_integral(v for row in m for v in row):
        ints = [[v.numerator for v in row] for row in m]
        return Fraction(_bareiss(ints))
    polys = [[v.coeffs if isinstance(v, ParamPoly) else (v,) for v in row] for row in m]
    scale = lcm(*(c.denominator for row in polys for p in row for c in p))
    polys = [[[c.numerator * (scale // c.denominator) for c in p] for p in row] for row in polys]
    # Every entry of the elimination is a minor of the matrix (Sylvester's
    # identity), so every Bareiss division is exact in Z[gamma].  Evaluation
    # at gamma = 2**bits is a ring homomorphism Z[gamma] -> Z, so the packed
    # elimination computes the packed minors exactly and without remainder;
    # the numerators pivot*a - head*b need not be digit-exact.  Only minors
    # are tested for zero or unpacked.  By the Leibniz expansion and
    # |fg|_1 <= |f|_1 |g|_1, each has |.|_1 <= M, the product over rows of
    # max(1, row sum of |a_ij|_1), and M < 2**(bits - 1): its balanced
    # digits are its coefficients, so a zero test reads the polynomial's
    # zero and every pivot is chosen as over Z[gamma].
    bound = prod(max(1, sum(abs(c) for p in row for c in p)) for row in polys)
    bits = bound.bit_length() + 1
    det = _bareiss([[_pack(p, bits) for p in row] for row in polys])
    return as_scalar(ParamPoly(_unpack(det, bits)) * Fraction(1, scale**n))


def hankel_det(seq: Sequence, n: int) -> Scalar:
    return matrix_det(hankel_matrix(seq, n))


def hankel_transform(seq: Sequence, max_n: int) -> list[Scalar]:
    """(h_0, ..., h_max_n): the determinant of each leading Hankel matrix."""
    if max_n < 0:
        raise ValueError("max_n must be non-negative")
    if len(seq) < 2 * max_n + 1:
        raise InsufficientTerms(
            f"transform to order {max_n} needs {2 * max_n + 1} terms, "
            f"only {len(seq)} supplied"
        )
    return [hankel_det(seq, n) for n in range(max_n + 1)]
