import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cfhankel.exact import (
    GAMMA,
    NonInvertibleScalar,
    ParamPoly,
    Series,
    ZeroConstantTerm,
    _unpack,
    as_scalar,
    scalar_eval_gamma,
    scalar_from_json,
    scalar_to_json,
    series,
    series_from_json,
    series_reciprocal,
    series_to_json,
)
from crosscheck import series_add, series_eval_gamma, series_mul


def rand_fraction(rng, allow_zero=True):
    num = rng.randint(-6, 6)
    if not allow_zero:
        while num == 0:
            num = rng.randint(-6, 6)
    return Fraction(num, rng.choice([1, 2, 3]))


def rand_series(rng, order, unit_constant=False):
    coeffs = [rand_fraction(rng) for _ in range(order + 1)]
    if unit_constant:
        coeffs[0] = Fraction(1)
    return series(coeffs, order)


class TestRationals:
    def test_normalization(self):
        # 6/(-4) normalizes to -3/2 with a positive denominator
        f = Fraction(6, -4)
        assert f.numerator == -3 and f.denominator == 2

    def test_wire_format(self):
        assert scalar_to_json(Fraction(-3, 2)) == "-3/2"
        assert scalar_to_json(Fraction(5)) == "5"
        assert scalar_from_json("7/3") == Fraction(7, 3)


class TestParamPoly:
    def test_trailing_zeros_stripped(self):
        assert ParamPoly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
        # what is left constant is built as its Fraction
        assert ParamPoly((0, 0)) == 0 and type(ParamPoly((0, 0))) is Fraction
        assert ParamPoly((3, 0)) == 3 and type(ParamPoly((3, 0))) is Fraction

    def test_arithmetic(self):
        p = ParamPoly((1, 1))  # 1 + gamma
        q = ParamPoly((-1, 1))  # -1 + gamma
        assert p * q == ParamPoly((-1, 0, 1))
        assert p + q == ParamPoly((0, 2))
        assert p - p == 0
        assert 2 * p == ParamPoly((2, 2))
        assert GAMMA**3 == ParamPoly((0, 0, 0, 1))
        # an operand that is not a number is left to the other type, and
        # neither handles it
        for other in ("1", 1.5, None):
            for apply in (lambda: p + other, lambda: p * other, lambda: p / other,
                          lambda: other / p):
                with pytest.raises(TypeError):
                    apply()
        with pytest.raises(ValueError, match="requires an integer"):
            GAMMA**1.5

    def test_zero_compares_with_numbers(self):
        assert ParamPoly() == 0
        assert not ParamPoly() == 1
        assert not ParamPoly() == Fraction(1, 2)
        # a ParamPoly is never constant, so it never equals a number
        assert GAMMA != 0 and GAMMA != 1 and not GAMMA + 1 == 1

    def test_cancelled_results_are_fractions(self):
        for value in (
            series_reciprocal(series([1, GAMMA, GAMMA**2])).coeffs[2],
            GAMMA - GAMMA,
            (GAMMA + 1) - GAMMA,
        ):
            assert type(value) is Fraction

    def test_mixed_with_fraction(self):
        assert Fraction(1, 2) + GAMMA == ParamPoly((Fraction(1, 2), 1))
        assert GAMMA * Fraction(2) == ParamPoly((0, 2))

    def test_eval_commutes_with_arithmetic(self):
        rng = random.Random(7)
        for _ in range(30):
            p = ParamPoly([rand_fraction(rng) for _ in range(rng.randint(0, 4))])
            q = ParamPoly([rand_fraction(rng) for _ in range(rng.randint(0, 4))])
            r = rand_fraction(rng)
            at_r = [scalar_eval_gamma(v, r) for v in (p, q, p * q, p + q)]
            assert at_r[2] == at_r[0] * at_r[1]
            assert at_r[3] == at_r[0] + at_r[1]

    def test_str(self):
        assert str(ParamPoly((1, -1, Fraction(3, 2)))) == "3/2*gamma^2 - gamma + 1"


RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=4)
#: any scalar of Q[gamma]: Fractions and gamma-polynomials, zero included
SCALARS = st.one_of(RATIONALS, st.lists(RATIONALS, max_size=3).map(ParamPoly))
#: the units of Q[gamma]: non-zero Fractions (a constant polynomial is built as one)
UNITS = RATIONALS.filter(lambda v: v != 0)


class TestScalarProtocol:
    def test_polynomial_division(self):
        # a constant divides, written as a polynomial too: that is built as a Fraction
        assert GAMMA / 2 == ParamPoly((0, Fraction(1, 2)))
        assert 2 / ParamPoly((4,)) == ParamPoly((Fraction(1, 2),))
        assert 1 / ParamPoly((3,)) == Fraction(1, 3)
        assert ParamPoly((2,)) ** -2 == Fraction(1, 4)
        constant = ParamPoly((3,)) / ParamPoly((2,))
        assert constant == Fraction(3, 2) and type(constant) is Fraction
        with pytest.raises(ZeroDivisionError):
            GAMMA / ParamPoly()
        with pytest.raises(ZeroDivisionError):
            ParamPoly() ** -1

    def test_non_units_are_refused(self):
        with pytest.raises(NonInvertibleScalar):
            1 / GAMMA
        with pytest.raises(NonInvertibleScalar):
            GAMMA**-1
        # refused even where the division would be exact
        with pytest.raises(NonInvertibleScalar):
            (GAMMA**2 - 1) / (GAMMA + 1)
        with pytest.raises(NonInvertibleScalar):
            Fraction(1, 2) / (GAMMA + 1)

    def test_normal_form(self):
        assert type(ParamPoly((3,))) is Fraction
        assert ParamPoly() == 0 and type(ParamPoly()) is Fraction
        assert as_scalar(GAMMA) is GAMMA
        assert as_scalar(3) == Fraction(3) and as_scalar("-1/2") == Fraction(-1, 2)
        with pytest.raises(TypeError):
            as_scalar(0.5)
        # the shapes the JSON boundary takes and no more: a bool is not 1, and
        # Fraction's other spellings are refused ("1e300000" before parsing)
        for coerce in (as_scalar, lambda v: ParamPoly((v, 1))):
            with pytest.raises(TypeError):
                coerce(True)
            for text in ("0.5", " 3/4 ", "1_000", "1e300000"):
                with pytest.raises(ValueError, match="not a rational p/q"):
                    coerce(text)

    @given(UNITS, UNITS, st.integers(-3, 3))
    def test_operators_agree(self, x, y, n):
        assert x / y * y == x
        assert 1 / x * x == 1
        assert x**n * x**-n == 1
        assert x**n == 1 / x ** -n

    @given(SCALARS, SCALARS, UNITS, st.integers(0, 3))
    def test_every_result_is_in_normal_form(self, x, y, unit, n):
        # a Fraction, or a ParamPoly of degree 1 or more
        for value in (x + y, x - y, x * y, x**n, x / unit):
            assert type(value) is Fraction or value.degree >= 1, value

    @given(SCALARS, SCALARS, st.integers(1, 3))
    def test_division_raises_exactly_for_non_units(self, x, y, n):
        if isinstance(y, ParamPoly) and y.degree > 0:
            with pytest.raises(NonInvertibleScalar):
                x / y
            with pytest.raises(NonInvertibleScalar):
                y**-n
        elif y == 0:
            with pytest.raises(ZeroDivisionError):
                x / y
        else:
            assert x / y * y == x
            assert y**-n * y**n == 1


class TestSeries:
    def test_length_invariant(self):
        s = series([1, 2], 4)
        assert len(s.coeffs) == 5 and s.order == 4
        assert Series.__slots__ == ("coeffs",)
        for empty in (lambda: Series(()), lambda: series([], -1), lambda: series([1, 2, 3], -3)):
            with pytest.raises(ValueError, match="order must be non-negative"):
                empty()
        with pytest.raises(ValueError, match="empty series"):
            series([])

    def test_mul_difference_of_squares(self):
        f = series([1, 1], 2)
        g = series([1, -1], 2)
        assert series_mul(f, g) == series([1, 0, -1], 2)

    def test_mul_identity(self):
        rng = random.Random(1)
        f = rand_series(rng, 6)
        assert series_mul(f, series([1], 4)) == series(f.coeffs[:5], 4)

    def test_catalan_reciprocal(self):
        catalan = series([1, 1, 2, 5, 14], 4)
        rec = series_reciprocal(catalan)
        assert rec == series([1, -1, -1, -2, -5], 4)
        assert series_mul(catalan, rec) == series([1], 4)

    def test_geometric_reciprocal(self):
        assert series_reciprocal(series([1, -1], 5)) == series([1] * 6, 5)

    def test_constant_reciprocal(self):
        assert series_reciprocal(series([2], 1)) == series([Fraction(1, 2), 0], 1)

    def test_reciprocal_errors(self):
        with pytest.raises(ZeroConstantTerm):
            series_reciprocal(series([0, 1], 1))
        with pytest.raises(NonInvertibleScalar):
            series_reciprocal(series([GAMMA, 1], 1))

    def test_constant_polynomial_lead_is_a_unit(self):
        # Series() keeps its coefficients as given, but a constant written as
        # a ParamPoly is already its Fraction, so it divides
        den = Series((ParamPoly((2,)), ParamPoly((0, 1))))
        assert series_reciprocal(den) == series([Fraction(1, 2), -GAMMA / 4], 1)

    def test_reciprocal_involution(self):
        rng = random.Random(3)
        for _ in range(20):
            f = rand_series(rng, rng.randint(0, 8))
            if f.coeffs[0] == 0:
                continue
            assert series_reciprocal(series_reciprocal(f)) == f

    @given(
        st.sampled_from([1, -1]),
        st.lists(st.integers(-6, 6), max_size=14),
    )
    def test_integral_unit_reciprocal(self, c0, tail):
        f = series([c0] + tail)
        rec = series_reciprocal(f)
        assert all(isinstance(c, Fraction) for c in rec.coeffs)
        assert series_mul(f, rec) == series([1], f.order)

    def test_quotient_order_is_the_smaller(self):
        q = series_mul(series([1, 2, 3], 2), series_reciprocal(series([1, -1], 5)))
        assert q == series([1, 3, 6], 2)

    def test_ring_axioms(self):
        rng = random.Random(5)
        for _ in range(15):
            n = rng.randint(0, 6)
            f, g, h = (rand_series(rng, n) for _ in range(3))
            assert series_add(series_add(f, g), h) == series_add(f, series_add(g, h))
            assert series_mul(f, g) == series_mul(g, f)
            lhs = series_mul(f, series_add(g, h))
            rhs = series_add(series_mul(f, g), series_mul(f, h))
            assert lhs == rhs

    def test_order_propagation_is_min(self):
        f = series([1, 2, 3], 2)
        g = series([1, 1, 1, 1, 1], 4)
        assert series_mul(f, g).order == 2
        assert series_add(f, g).order == 2

    def test_symbolic_series_evaluation(self):
        f = series([1, GAMMA, GAMMA**2], 2)
        assert series_eval_gamma(f, 2) == series([1, 2, 4], 2)

    def test_json_round_trip(self):
        f = series([Fraction(1), Fraction(-3, 2), GAMMA], 2)
        assert series_from_json(series_to_json(f)) == f

    def test_json_order_is_optional(self):
        # without "order" every coefficient given is trusted
        assert series_from_json({"coeffs": ["1", "2", "5"]}) == series([1, 2, 5], 2)
        assert series_from_json({"coeffs": ["1"]}).order == 0

    def test_json_rejects_inconsistent_order(self):
        with pytest.raises(ValueError):
            series_from_json({"coeffs": ["1", "2"], "order": 5})
        with pytest.raises(ValueError):
            series_from_json({"order": 2})


def test_unpack_refuses_fewer_than_two_bits():
    # the digits {-1, 0} of one bit would map 1 to 1 forever, so the call
    # runs in a child that a timeout ends if it hangs
    code = (
        "from cfhankel.exact import _unpack\n"
        "try:\n    _unpack(1, 1)\nexcept ValueError:\n    raise SystemExit(0)\n"
        "raise SystemExit(1)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, timeout=10)
    assert done.returncode == 0
    with pytest.raises(ValueError):
        _unpack(0, 1)
