"""Ground-truth Hankel transforms by exact determinant evaluation.

The matrix of order n built from a sequence has entry (i, j) equal to
seq[i + j], so it needs 2n + 1 leading terms.  Determinants are computed
by fraction-free (Bareiss) elimination, which stays inside the coefficient
domain: every division it performs is exact over an integral domain, and
an inexact one aborts loudly because it can only mean broken scalar
arithmetic.  One elimination serves every domain; only the exact division
differs.  A matrix whose entries are all integers, as every integral
catalog sequence gives, is eliminated over Python ``int`` with ``divmod``
checking each division.  Any other matrix, with a non-integral rational
or a gamma-polynomial entry, is eliminated over ``Fraction`` and
``ParamPoly`` by the scalars' own ``/``, which keeps symbolic intermediate
growth under control compared to rational-function elimination; a
quotient that leaves the polynomial ring raises ``InexactDivision``.  The
route is read off the entries alone; the result is a ``Fraction`` or
``ParamPoly`` either way.

``hankel_transform`` is the reference every closed-form value in this
package is judged against.  A naive cofactor expansion is included purely
as an independent second route for cross-checking the elimination.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact import DomainError, InexactDivision, PolyFrac, Scalar, all_integral, as_scalar


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


def _exact_div(num: Scalar, den: Scalar) -> Scalar:
    quotient = num / den
    if isinstance(quotient, PolyFrac):
        raise InexactDivision(f"{num} is not divisible by {den}")
    return quotient


def _exact_div_int(num: int, den: int) -> int:
    quotient, remainder = divmod(num, den)
    if remainder:
        raise InexactDivision(f"{num} is not divisible by {den}")
    return quotient


def _bareiss(m: list[list], one, div):
    """Determinant of the square matrix ``m``, eliminated in place.

    ``one`` is the unit of the entries' domain and ``div`` its exact
    division.  Zero pivots are repaired by a signed row exchange; a fully
    zero pivot column settles the determinant as 0 immediately.
    """
    n = len(m)
    sign = 1
    prev = one
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
                row_i[j] = div(pivot * row_i[j] - head * m[k][j], prev)
        prev = pivot
    result = m[n - 1][n - 1]
    return -result if sign < 0 else result


def matrix_det(rows: Sequence[Sequence]) -> Scalar:
    """Fraction-free elimination determinant over rationals or polynomials.

    All-integer matrices are eliminated over ``int``; the value is returned
    as a ``Fraction`` all the same.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = [[as_scalar(v) for v in row] for row in rows]
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    if all_integral(v for row in m for v in row):
        ints = [[v.numerator for v in row] for row in m]
        return Fraction(_bareiss(ints, 1, _exact_div_int))
    return as_scalar(_bareiss(m, Fraction(1), _exact_div))


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

    return as_scalar(expand(m))


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
