import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, strategies as st

from cfhankel import exact, hankel_oracle
from cfhankel.catalog import catalog_cfraction
from cfhankel.cfrac import CFraction, evaluate
from cfhankel.exact import (
    GAMMA,
    InexactDivision,
    ParamPoly,
    scalar_eval_gamma,
    series,
)
from cfhankel.hankel_oracle import (
    InsufficientTerms,
    hankel_transform,
    matrix_det,
)
from crosscheck import det_cofactor, series_eval_gamma

ROGERS_RAMANUJAN_5 = [1, -GAMMA, GAMMA**2, GAMMA**2 - GAMMA**3, GAMMA**4 - 2 * GAMMA**3]


def hankel_rows(seq, n):
    """Rows of the order-n Hankel matrix, entry (i, j) = seq[i + j]."""
    return [[seq[i + j] for j in range(n + 1)] for i in range(n + 1)]


def rand_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))


def rand_poly(rng):
    return ParamPoly([rand_fraction(rng) for _ in range(rng.randint(0, 3))])


class TestMatrixConstruction:
    def test_symmetry_and_entries(self):
        # entry (i, j) is seq[i + j]: h_1 = 2*7 - 1*1, and h_2 is the
        # determinant of [[2, 1, 7], [1, 7, 0], [7, 0, 9]]
        assert hankel_transform([2, 1, 7, 0, 9], 2) == [2, 13, -226]
        assert hankel_transform([1, 2, 3, 4, 5], 2) == [1, -1, 0]

    def test_insufficient_terms(self):
        with pytest.raises(InsufficientTerms, match="order 1 needs 3 terms, only 2 supplied"):
            hankel_transform([1, 2], 1)
        with pytest.raises(InsufficientTerms):
            hankel_transform([1, 2, 3], 2)
        with pytest.raises(ValueError, match="matrix order must be non-negative"):
            hankel_transform([1, 2, 3], -1)

    def test_determinant_shapes(self):
        # the empty product, and no determinant of a matrix that is not square
        assert matrix_det([]) == 1
        with pytest.raises(ValueError, match="non-square"):
            matrix_det([[1, 2], [3, 4], [5, 6]])
        with pytest.raises(ValueError, match="non-square"):
            matrix_det([[1, 2], [3]])


class TestDeterminants:
    def test_rank_one_sequence(self):
        assert hankel_transform([1, 0, 0], 1) == [1, 0]

    def test_catalan_prefix(self):
        assert hankel_transform([1, 1, 2, 5, 14], 2)[2] == 1

    def test_rogers_ramanujan_symbolic(self):
        # cofactor expansion of the 3x3 matrix gives -gamma^4; Bareiss must agree
        rows = hankel_rows(ROGERS_RAMANUJAN_5, 2)
        expected = -(GAMMA**4)
        assert det_cofactor(rows) == expected
        assert matrix_det(rows) == expected
        # numeric spot checks: gamma = 1 -> -1, gamma = 2 -> -16
        numeric1 = series_eval_gamma(series(ROGERS_RAMANUJAN_5, 4), 1)
        numeric2 = series_eval_gamma(series(ROGERS_RAMANUJAN_5, 4), 2)
        assert hankel_transform(numeric1.coeffs, 2)[2] == -1
        assert hankel_transform(numeric2.coeffs, 2)[2] == -16

    def test_bareiss_matches_cofactor_rational(self):
        rng = random.Random(23)
        for size in range(1, 6):
            for _ in range(8):
                rows = [[rand_fraction(rng) for _ in range(size)] for _ in range(size)]
                assert matrix_det(rows) == det_cofactor(rows)

    def test_bareiss_matches_cofactor_symbolic(self):
        rng = random.Random(29)
        for size in range(1, 5):
            for _ in range(4):
                rows = [[rand_poly(rng) for _ in range(size)] for _ in range(size)]
                assert matrix_det(rows) == det_cofactor(rows)

    def test_exact_division_over_polynomials(self):
        # Packed at gamma = 2**bits, a polynomial division that is exact in
        # Z[gamma] stays exact in int, and one that is not raises.
        bits = 8
        pack, div = exact._pack, hankel_oracle._checked_div
        quotient = div(pack([-1, 0, 1], bits), pack([1, 1], bits))
        assert exact._unpack(quotient, bits) == [-1, 1]
        with pytest.raises(InexactDivision):
            div(pack([1, 1], bits), pack([0, 1], bits))
        with pytest.raises(InexactDivision):
            div(pack([1], bits), pack([0, 1], bits))
        # A Bareiss step of this matrix divides by the pivot gamma + 1/2.
        half = Fraction(1, 2)
        rows = [
            [GAMMA + half, GAMMA, 1],
            [GAMMA, GAMMA**2, half],
            [1, GAMMA - 1, GAMMA],
        ]
        assert matrix_det(rows) == det_cofactor(rows)

    def test_zero_pivot_column(self):
        rows = [
            [Fraction(0), Fraction(1), Fraction(1)],
            [Fraction(0), Fraction(2), Fraction(5)],
            [Fraction(0), Fraction(3), Fraction(7)],
        ]
        assert matrix_det(rows) == 0

    def test_row_swap_sign(self):
        rows = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        assert matrix_det(rows) == -1

    def test_multilinearity_in_rows(self):
        rng = random.Random(31)
        for _ in range(10):
            seq = [rand_fraction(rng) for _ in range(7)]
            rows = hankel_rows(seq, 3)
            base = matrix_det(rows)
            scaled = [list(row) for row in rows]
            scaled[2] = [Fraction(5) * v for v in scaled[2]]
            assert matrix_det(scaled) == 5 * base

    def test_symbolic_numeric_commutation(self):
        rng = random.Random(37)
        for _ in range(6):
            seq = [rand_poly(rng) for _ in range(5)]
            point = rand_fraction(rng)
            symbolic = matrix_det(hankel_rows(seq, 2))
            numeric = hankel_transform([scalar_eval_gamma(c, point) for c in seq], 2)[2]
            assert scalar_eval_gamma(symbolic, point) == numeric


class TestTransform:
    def test_constant_sequence(self):
        assert hankel_transform([1] * 7, 2) == [1, 0, 0]

    def test_catalan_all_ones(self):
        catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
        assert hankel_transform(catalan, 5) == [1] * 6

    def test_matches_individual_determinants(self):
        rng = random.Random(41)
        seq = [rand_fraction(rng) for _ in range(9)]
        transform = hankel_transform(seq, 4)
        assert transform == [det_cofactor(hankel_rows(seq, n)) for n in range(5)]

    def test_swapped_rows_give_no_leading_minor(self):
        # column 0 pivots on row 1, so minor 0 is 0 and minor 1 is -1
        assert hankel_oracle._leading_minors([[0, 1], [1, 0]]) == [0, -1]

    def test_rank_cut_of_a_terminated_fraction(self):
        # eight Fibonacci terms give a rational series: h_n != 0 exactly at the
        # partial sums of the Fibonacci numbers, and 0 for 34 <= n <= 48
        expansion = evaluate(catalog_cfraction("fibonacci-cf", terms=8), 96)
        transform = hankel_transform(expansion.coeffs, 48)
        assert [n for n, h in enumerate(transform) if h != 0] == [0, 1, 2, 4, 7, 12, 20, 33]
        assert transform[34:] == [0] * 15


def _rational_gf_terms(numer, denom, count):
    """The first ``count`` terms of numer/denom, a power series with denom[0] = 1."""
    terms = []
    for k in range(count):
        value = numer[k] if k < len(numer) else 0
        terms.append(value - sum(q * terms[k - i] for i, q in enumerate(denom[1 : k + 1], 1)))
    return terms


@st.composite
def hankel_sequences(draw, max_n=5):
    """(seq, N) with 2N + 1 terms and N <= max_n, of four kinds.

    ``sparse`` integers are mostly zero; ``rational-gf`` expands a random
    P/Q with deg Q <= 3, so H_N has low rank and its later minors vanish;
    ``zero-lead`` zeroes the first terms, so leading blocks are zero and
    the first pivots are off the diagonal; ``symbolic`` mixes p/q and
    gamma-polynomial terms, which take the packed route.
    """
    n = draw(st.integers(0, max_n))
    count = 2 * n + 1
    kind = draw(st.sampled_from(["sparse", "rational-gf", "zero-lead", "symbolic"]))
    small = st.integers(-2, 2)
    if kind == "sparse":
        seq = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=count, max_size=count))
    elif kind == "rational-gf":
        numer = draw(st.lists(small, min_size=1, max_size=4))
        denom = [1] + draw(st.lists(small, max_size=3))
        seq = _rational_gf_terms(numer, denom, count)
    elif kind == "zero-lead":
        seq = draw(st.lists(small, min_size=count, max_size=count))
        zeros = draw(st.integers(1, count))
        seq[:zeros] = [0] * zeros
    else:
        coeff = st.builds(Fraction, small, st.sampled_from([1, 2, 3]))
        entry = st.one_of(coeff, st.lists(coeff, max_size=3).map(ParamPoly))
        seq = draw(st.lists(entry, min_size=count, max_size=count))
    return seq, n


class TestLeadingMinors:
    @given(hankel_sequences())
    def test_one_pass_matches_cofactor_per_order(self, case):
        seq, n = case
        expected = [det_cofactor(hankel_rows(seq, k)) for k in range(n + 1)]
        assert hankel_transform(seq, n) == expected

    @given(hankel_sequences())
    def test_one_pass_matches_sympy(self, sympy, case):
        from sympy.polys.matrices import DomainMatrix

        seq, n = case
        big = sympy_matrix(sympy, hankel_rows(seq, n))
        transform = hankel_transform(seq, n)
        for k in range(n + 1):
            block = DomainMatrix.from_Matrix(big[: k + 1, : k + 1])
            expected = block.domain.to_sympy(block.det())
            assert sympy.expand(expected - sympy_value(sympy, transform[k])) == 0


@st.composite
def int_matrices(draw, max_size=5):
    """Small integer matrices, many singular or with zero leading pivots.

    Entries are drawn from a narrow range so that zeros and repeated rows are
    common; ``shape`` then forces a dependent last row (a singular matrix) or
    zeroes the first column above the last row (a row swap at the first step).
    """
    n = draw(st.integers(1, max_size))
    rows = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
    shape = draw(st.sampled_from(["as-drawn", "singular", "zero-lead"]))
    if shape == "singular":
        rows[-1] = [2 * v for v in rows[0]] if n > 1 else [0]
    elif shape == "zero-lead":
        for row in rows[:-1]:
            row[0] = 0
    return [[Fraction(v) for v in row] for row in rows]


@pytest.fixture(scope="module")
def sympy():
    sympy = pytest.importorskip("sympy")
    # sympy's first use of this path costs more than a hypothesis deadline:
    # pay it here, with one determinant over Q[gamma] and one expand
    from sympy.polys.matrices import DomainMatrix

    block = DomainMatrix.from_Matrix(sympy_matrix(sympy, [[GAMMA, Fraction(1, 2)], [1, GAMMA]]))
    sympy.expand(block.domain.to_sympy(block.det()) - sympy.Symbol("gamma"))
    return sympy


def packed_calls(patch):
    """The (coeffs, bits) of every ``_pack`` call the oracle makes."""
    calls, pack = [], hankel_oracle._pack

    def spy(coeffs, bits):
        calls.append((list(coeffs), bits))
        return pack(coeffs, bits)

    patch.setattr(hankel_oracle, "_pack", spy)
    return calls


class TestIntegerRoute:
    def test_exact_division_helper(self):
        assert hankel_oracle._checked_div(-12, 4) == -3
        with pytest.raises(InexactDivision):
            hankel_oracle._checked_div(7, 2)
        with pytest.raises(InexactDivision):
            hankel_oracle._checked_div(-7, 2)

    def test_integer_matrix_avoids_rational_division(self, monkeypatch):
        # each of the n**2 entries packs to itself at width 0, so the pass
        # runs on the integers themselves
        calls = packed_calls(monkeypatch)
        rows = hankel_rows([1, 1, 2, 5, 14, 42, 132], 3)
        det = matrix_det(rows)
        assert calls == [([int(v)], 0) for row in rows for v in row]
        assert det == 1 and isinstance(det, Fraction)
        assert det == det_cofactor(rows)

    @given(int_matrices())
    def test_matches_cofactor(self, rows):
        det = matrix_det(rows)
        assert isinstance(det, Fraction)
        assert det == det_cofactor(rows)

    @given(int_matrices())
    def test_matches_sympy(self, sympy, rows):
        expected = sympy.Matrix([[int(v) for v in row] for row in rows]).det()
        assert matrix_det(rows) == Fraction(int(expected))

    @given(int_matrices(max_size=4), st.data())
    def test_one_non_integral_entry_takes_rational_route(self, rows, data):
        n = len(rows)
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        rows[i][j] += Fraction(1, data.draw(st.integers(2, 5)))
        with pytest.MonkeyPatch.context() as patch:
            calls = packed_calls(patch)
            det = matrix_det(rows)
        # cleared of denominators, every entry is a constant: width 0
        assert len(calls) == n * n and {bits for _, bits in calls} == {0}
        assert det == det_cofactor(rows)


@st.composite
def poly_matrices(draw, max_size=4, max_degree=2):
    """Small matrices of gamma-polynomials, many with zero entries or row swaps.

    Coefficients are p/q with p in -3..3, so zeros and negative coefficients
    are common, and q is 1 for an integral matrix or in 1..3 otherwise;
    ``shape`` then zeroes the first column above the last row (a row swap at
    the first step) or the leading block of half the rows and columns (a
    swap that must reach past it).
    """
    n = draw(st.integers(1, max_size))
    denominators = draw(st.sampled_from([[1], [1, 2, 3]]))
    coeff = st.builds(Fraction, st.integers(-3, 3), st.sampled_from(denominators))
    entry = st.lists(coeff, max_size=max_degree + 1).map(ParamPoly)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["as-drawn", "zero-lead", "zero-block"]))
    if shape == "zero-lead":
        for row in rows[:-1]:
            row[0] = ParamPoly()
    elif shape == "zero-block":
        k = (n + 1) // 2
        for row in rows[:k]:
            row[:k] = [ParamPoly()] * k
    return rows


def sympy_value(sympy, value):
    """A Fraction or ParamPoly as a sympy expression in the symbol gamma."""
    gamma = sympy.Symbol("gamma")
    coeffs = value.coeffs if isinstance(value, ParamPoly) else (value,)
    return sum(sympy.Rational(c.numerator, c.denominator) * gamma**k for k, c in enumerate(coeffs))


def sympy_matrix(sympy, rows):
    return sympy.Matrix([[sympy_value(sympy, v) for v in row] for row in rows])


class TestPackedRoute:
    @given(poly_matrices())
    def test_matches_cofactor(self, rows):
        assert matrix_det(rows) == det_cofactor(rows)

    @given(st.one_of(poly_matrices(max_size=3, max_degree=0), poly_matrices(max_size=3)))
    def test_matches_sympy(self, sympy, rows):
        expected = sympy_matrix(sympy, rows).det()
        assert sympy.expand(expected - sympy_value(sympy, matrix_det(rows))) == 0

    @given(st.integers(2, 80), st.data())
    def test_pack_round_trip_at_the_digit_bound(self, bits, data):
        edge = 2 ** (bits - 1) - 1
        digit = st.sampled_from([edge, -edge, 1, -1, 0])
        coeffs = data.draw(st.lists(digit, max_size=6)) + [data.draw(st.sampled_from([edge, -edge]))]
        assert exact._unpack(exact._pack(coeffs, bits), bits) == coeffs
        # one past the bound, a digit is no longer recovered
        assert exact._unpack(exact._pack([edge + 1], bits), bits) != [edge + 1]

    @given(st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=4), min_size=1, max_size=5))
    def test_diagonal_determinant_meets_the_norm_bound(self, diagonal):
        # positive coefficients: the determinant's |.|_1 is the product M of
        # the row sums exactly, the largest value the bound allows
        entries = [ParamPoly(cs + [1]) for cs in diagonal]
        n = len(entries)
        rows = [[entries[i] if i == j else ParamPoly() for j in range(n)] for i in range(n)]
        expected = ParamPoly((1,))
        for entry in entries:
            expected = expected * entry
        assert matrix_det(rows) == expected

    def test_a_transform_packs_each_term_once(self, monkeypatch):
        # the Hankel matrix of order N holds 2N + 1 distinct terms, each
        # cleared and packed once, at the one width of the whole matrix
        seq = evaluate(CFraction((GAMMA / 2,) * 4, (1, 2, 3, 4)), 8).coeffs
        calls = packed_calls(monkeypatch)
        transform = hankel_transform(seq, 4)
        (width,) = {bits for _, bits in calls}
        assert len(calls) == 9 and width > 0
        assert transform == [det_cofactor(hankel_rows(seq, k)) for k in range(5)]

    @pytest.mark.parametrize("diagonal", [(255,), (-7, 9), (3, -5, 17), (5, 3, 17, -1)])
    def test_a_minor_fills_the_narrowest_digit(self, diagonal):
        # entry i is c_i gamma^(i+1), so M = |prod c_i| = 2**8 - 1 or 2**6 - 1 and
        # the determinant prod(c_i) gamma^(n(n+1)/2) has one coefficient of
        # absolute value M: the largest digit the width bits(M) + 1 holds.
        # With three or more rows a numerator pivot*a - head*b (the first
        # entry times a minor) overflows its digit, and the exact division
        # still recovers the minor.
        n = len(diagonal)
        rows = [
            [ParamPoly((0,) * (i + 1) + (c,)) if i == j else ParamPoly() for j in range(n)]
            for i, c in enumerate(diagonal)
        ]
        with pytest.MonkeyPatch.context() as patch:
            calls = packed_calls(patch)
            det = matrix_det(rows)
        top = prod(diagonal)
        assert det == ParamPoly((0,) * (n * (n + 1) // 2) + (top,)) == det_cofactor(rows)
        (bits,) = {bits for _, bits in calls}
        assert abs(top) == 2 ** (bits - 1) - 1
