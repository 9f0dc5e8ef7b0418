"""Ground-truth Hankel transforms by exact determinant evaluation.

The matrix of order n built from a sequence has entry (i, j) equal to
seq[i + j], so it needs 2n + 1 leading terms.  One fraction-free (Bareiss)
elimination gives every leading principal minor: column k pivots on the
unused row of smallest index with a non-zero entry, minor k is that pivot
(signed by the row order) when rows 0..k were the ones taken and else 0,
and a column with no pivot ends the pass, as it and every later minor are
0.  So ``hankel_transform`` eliminates one matrix, and a sequence with a
rational generating function of rank r costs r columns.  The pass runs
over ``int`` with every division checked by ``divmod``: a remainder can
only mean broken arithmetic.  Its distinct values, the 2n + 1 terms of a
Hankel matrix or the n**2 entries of any other, have their denominators
cleared and each is packed once into one integer at gamma = 2**B
(Kronecker), B from ``exact._width`` and a 1-norm bound over the full
matrix that every minor meets.  The result, a ``Fraction`` or ``ParamPoly``,
is the reference every closed form here is judged against; the tests
cross-check it with the cofactor expansion in ``tests/crosscheck.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence

from .exact import (
    DomainError,
    InexactDivision,
    Scalar,
    _clear_denominators,
    _pack,
    _unpack_scalar,
    _width,
    as_scalar,
)


class InsufficientTerms(DomainError):
    """The sequence is too short for the requested matrix order."""


def _checked_div(num: int, den: int) -> int:
    quotient, remainder = divmod(num, den)
    if remainder:
        raise InexactDivision(f"{num} is not divisible by {den}")
    return quotient


def _leading_minors(m: list[list[int]]) -> list[int]:
    """Every leading principal minor of the square integer matrix ``m``,
    from one fraction-free elimination of it in place."""
    # After k steps, entry j of an unused row i is the minor on rows
    # p_0..p_{k-1}, i and columns 0..k-1, j (Sylvester's identity), so every
    # division by the previous pivot is exact.  If h_k != 0, the first k + 1
    # rows taken are 0..k: while the j <= k rows taken lie in 0..k, they are
    # independent on columns 0..j and rows 0..k have rank j + 1 there, so
    # some untaken row <= k extends them to a non-zero minor, and the
    # smallest-index rule takes a row <= k; they are 0..k exactly when the
    # first unused row lies past k.  The sign of p_0..p_k counts its
    # inversions: the positions popped from the ordered unused rows.  With
    # no pivot in column k, every row on columns 0..k lies in the span of
    # the k rows taken, so column k depends on columns 0..k-1 and h_n = 0
    # for all n >= k.
    n = len(m)
    unused = list(enumerate(m))
    minors: list[int] = []
    prev, sign = 1, 1
    for k in range(n):
        for pos, (_, pivot_row) in enumerate(unused):
            if pivot_row[k]:
                break
        else:
            return minors + [0] * (n - k)
        del unused[pos]
        sign = -sign if pos % 2 else sign
        pivot = pivot_row[k]
        minors.append(sign * pivot if not unused or unused[0][0] > k else 0)
        for _, row in unused:
            head = row[k]
            for j in range(k + 1, n):
                row[j] = _checked_div(pivot * row[j] - head * pivot_row[j], prev)
        prev = pivot
    return minors


def _minors(values: Sequence[Scalar], n: int, stride: int) -> list[Scalar]:
    """All leading minors of the n x n matrix (i, j) -> values[i * stride + j].
    Each value is scaled by the lcm L of the denominators and packed once,
    and minor k is unpacked and divided by L**(k + 1)."""
    scale, polys = _clear_denominators(values)
    # Only minors of the full matrix, bordered ones too, are tested for zero
    # or unpacked.  By Leibniz and |fg|_1 <= |f|_1 |g|_1 each has |.|_1 <= M,
    # the product over all rows of max(1, row sum of |a_ij|_1), so zero
    # tests and pivots go as over Z[gamma].
    bits = _width(polys, lambda norm: prod(max(1, sum(norm[i * stride : i * stride + n]))
                                           for i in range(n)))
    packed = [_pack(p, bits) for p in polys]
    minors = _leading_minors([packed[i * stride : i * stride + n] for i in range(n)])
    return [_unpack_scalar(d, bits, scale ** (k + 1)) for k, d in enumerate(minors)]


def matrix_det(rows: Sequence[Sequence]) -> Scalar:
    """Determinant over the rationals or Q[gamma]: the last leading minor of
    the one pass, pivoting on the first usable row and stopping at a column
    with no pivot, over ``int`` packed at one width from the whole matrix."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    return _minors([as_scalar(v) for row in rows for v in row], n, n)[-1]


def hankel_transform(seq: Sequence, max_n: int) -> list[Scalar]:
    """(h_0, ..., h_max_n): all leading minors of the order-max_n Hankel
    matrix, entry (i, j) = seq[i + j], from one pass, pivoting on the first
    usable row, stopping at the first column with no pivot (every later h_n
    is 0) and packing each of the 2 max_n + 1 terms once."""
    if max_n < 0:
        raise ValueError("matrix order must be non-negative")
    count = 2 * max_n + 1
    if len(seq) < count:
        raise InsufficientTerms(f"order {max_n} needs {count} terms, only {len(seq)} supplied")
    return _minors([as_scalar(v) for v in seq[:count]], max_n + 1, 1)
