import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cfhankel import cfrac, exact
from cfhankel.cfrac import (
    CFraction,
    ConstantTermNotOne,
    NonInvertibleLeadingScalar,
    _approximant_coeffs,
    cfraction_from_json,
    cfraction_to_json,
    correspond,
    evaluate,
)
from cfhankel.exact import (
    GAMMA,
    DomainError,
    ParamPoly,
    Series,
    series,
    series_reciprocal,
    series_to_json,
)
from crosscheck import determinant_identity_residual, series_add, series_eval_gamma, series_mul

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


def reference_correspond(f, exact=False):
    """Extraction by one full series reciprocal per emitted term."""
    if f.coeffs[0] != 1:
        raise ConstantTermNotOne(f"series starts with {f.coeffs[0]}, expected 1")
    current = series_reciprocal(f).coeffs
    a, q = [], []
    while True:
        remainder = (current[0] - 1, *current[1:])
        v = next((k for k, c in enumerate(remainder) if c != 0), None)
        if v is None:
            return CFraction(tuple(a), tuple(q), None if exact else f.order)
        lead = remainder[v]
        if isinstance(lead, ParamPoly):
            raise NonInvertibleLeadingScalar(f"leading coefficient {lead}")
        a.append(lead)
        q.append(v)
        # current = 1/g with 1/g - 1 = lead x^v g', so the next current
        # 1/g' is lead / ((current - 1) / x^v)
        current = tuple(c * lead for c in series_reciprocal(Series(remainder[v:])).coeffs)


def reference_evaluate(cf, order):
    """Expansion built bottom-up, one series reciprocal per term."""
    if order < 0:
        raise ValueError("expansion order must be non-negative")
    cap = order if cf.reliable_order is None else min(order, cf.reliable_order)
    tail = one = series([1], cap)
    for ak, qk in zip(reversed(cf.a), reversed(cf.q)):
        level = series_reciprocal(tail)
        shifted = (Fraction(0),) * qk + tuple(c * ak for c in level.coeffs)
        tail = series_add(one, Series(shifted[: cap + 1]))
    return series_reciprocal(tail)


def outcome(fn, *args):
    """The result of fn(*args), or the type of the DomainError it raised."""
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc)


def same_series(got, want):
    assert got == want
    assert series_to_json(got) == series_to_json(want)


NONZERO_RATIONALS = st.builds(
    lambda sign, p, q: Fraction(sign * p, q),
    st.sampled_from([1, -1]),
    st.integers(1, 9),
    st.integers(1, 9),
)
# rational coefficients (gamma/2 - 1/3, say) make evaluate scale x by the
# lcm of the denominators before it packs
GAMMA_POLYS = st.lists(
    st.integers(-3, 3).map(Fraction) | NONZERO_RATIONALS, min_size=1, max_size=3
).map(ParamPoly).filter(lambda v: v != 0)
RELIABLE_ORDERS = st.none() | st.integers(0, 30)


@st.composite
def cfractions(draw, numerators):
    n = draw(st.integers(0, 10))
    a = draw(st.lists(numerators, min_size=n, max_size=n))
    q = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return CFraction(tuple(a), tuple(q), draw(RELIABLE_ORDERS))


def rand_cfraction(rng, max_terms=6):
    n = rng.randint(1, max_terms)
    a = [rng.choice([1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2)]) for _ in range(n)]
    q = [rng.choice([1, 2, 3]) for _ in range(n)]
    return CFraction(tuple(Fraction(v) for v in a), tuple(q))


class TestCorrespond:
    def test_catalan(self):
        # every level of the extraction reproduces the same tail, so the
        # partial quotients continue at (-1, 1) for as long as the trusted
        # window allows: q_1 + ... + q_n <= 6
        cf = correspond(series(CATALAN[:7], 6))
        assert cf.a == (Fraction(-1),) * 6
        assert cf.q == (1,) * 6
        assert cf.reliable_order == 6

    def test_aerated_catalan(self):
        cf = correspond(series([1, 0, 1, 0, 2, 0, 5], 6))
        assert cf.a == (Fraction(-1),) * 3
        assert cf.q == (2, 2, 2)
        assert cf.reliable_order == 6

    def test_geometric_terminates(self):
        # 1/(1-x) is exactly 1/(1 + (-x)), one partial quotient
        f = series([1, 1, 1, 1, 1], 4)
        cf = correspond(f, exact=True)
        assert cf.a == (Fraction(-1),)
        assert cf.q == (1,)
        assert cf.reliable_order is None
        assert evaluate(cf, 4) == f

    def test_zero_tail_without_exact_flag_stays_truncated(self):
        cf = correspond(series([1, 1, 1, 1, 1], 4))
        assert cf.reliable_order == 4

    def test_constant_series(self):
        cf = correspond(series([1, 0, 0, 0, 0], 4), exact=True)
        assert cf.a == () and cf.reliable_order is None

    def test_constant_term_must_be_one(self):
        with pytest.raises(ConstantTermNotOne):
            correspond(series([2, 1], 1))

    def test_symbolic_lead_is_rejected(self):
        with pytest.raises(NonInvertibleLeadingScalar):
            correspond(series([1, -GAMMA, GAMMA**2], 2))

    def test_constant_polynomial_lead_is_inverted(self):
        # a constant written as a ParamPoly is built as its Fraction, a unit
        # of Q[gamma], so a leading coefficient written that way is inverted
        f = Series((Fraction(1), ParamPoly((2,)), ParamPoly((3,))))
        assert correspond(f) == correspond(series([1, 2, 3]))

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(30):
            coeffs = [Fraction(1)] + [
                Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(12)
            ]
            f = series(coeffs, 12)
            cf = correspond(f)
            assert evaluate(cf, 12) == f

    @given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9), max_size=16))
    def test_round_trip_property(self, tail):
        # zero coefficients are common, so q_k > 1 and zero tails occur
        f = series([1, *tail])
        assert evaluate(correspond(f), f.order) == f

    def test_reverse_round_trip_random(self):
        rng = random.Random(13)
        for _ in range(25):
            cf = rand_cfraction(rng)
            horizon = sum(cf.q) + 4
            back = correspond(evaluate(cf, horizon), exact=True)
            assert back == cf


class TestEvaluate:
    def test_empty_fraction(self):
        cf = CFraction((), ())
        assert evaluate(cf, 4) == series([1, 0, 0, 0, 0], 4)

    def test_catalan_generating_function(self):
        cf = CFraction((Fraction(-1),) * 8, (1,) * 8)
        assert evaluate(cf, 5) == series([1, 1, 2, 5, 14, 42], 5)

    def test_rogers_ramanujan_symbolic(self):
        # hand expansion of 1/(1 + gx/(1 + gx^2/(1 + gx^3/(1 + gx^4)))) mod x^5
        cf = CFraction((GAMMA,) * 4, (1, 2, 3, 4))
        expected = series(
            [1, -GAMMA, GAMMA**2, GAMMA**2 - GAMMA**3, GAMMA**4 - 2 * GAMMA**3], 4
        )
        got = evaluate(cf, 4)
        assert got == expected
        # cross-check at gamma = 1 against extraction from the numeric series
        numeric = CFraction((Fraction(1),) * 4, (1, 2, 3, 4))
        assert series_eval_gamma(got, 1) == evaluate(numeric, 4)
        back = correspond(evaluate(numeric, 9))
        assert back.a == (Fraction(1),) * 3
        assert back.q == (1, 2, 3)

    def test_truncated_status_caps_expansion(self):
        cf = correspond(series(CATALAN[:7], 6))
        assert evaluate(cf, 50).order == 6

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            evaluate(CFraction((), ()), -1)


class TestIntegerKernel:
    """evaluate expands over int: x -> D x clears the denominators, and
    gamma-polynomials are packed at a digit from a 1-norm majorant."""

    @pytest.mark.parametrize(
        "a, q, order",
        [
            # e_k = (2 gamma)^k: its one coefficient 2^k is the majorant's
            ((-2 * GAMMA,), (1,), 6),
            # D = 2 turns a_1 into -3 gamma, and e_k = (3 gamma)^k
            ((-3 * GAMMA / 2,), (1,), 6),
            ((-3 * GAMMA**2, -3 * GAMMA**2), (2, 5), 8),
        ],
    )
    def test_one_bit_fewer_than_the_majorant_loses_a_coefficient(self, monkeypatch, a, q, order):
        cf = CFraction(a, q)
        expansion = evaluate(cf, order)
        assert expansion == reference_evaluate(cf, order)
        monkeypatch.setattr(cfrac, "_pack", lambda coeffs, bits: exact._pack(coeffs, bits - 1))
        monkeypatch.setattr(
            cfrac, "_unpack_scalar",
            lambda value, bits, divisor: exact._unpack_scalar(value, bits - 1, divisor),
        )
        assert evaluate(cf, order) != expansion

    @given(cfractions(NONZERO_RATIONALS), st.integers(0, 30))
    def test_rational_fraction_packs_at_width_zero(self, cf, order):
        # every a_k D^q_k is a constant, so each packs to itself at width 0
        widths, pack = set(), exact._pack

        def spy(coeffs, bits):
            widths.add(bits)
            return pack(coeffs, bits)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cfrac, "_pack", spy)
            expansion = evaluate(cf, order)
        assert widths <= {0}
        assert expansion == reference_evaluate(cf, order)

    def test_gamma_polynomial_fraction_is_packed(self, monkeypatch):
        packed, pack = [], exact._pack

        def spy(coeffs, bits):
            packed.append(list(coeffs))
            return pack(coeffs, bits)

        monkeypatch.setattr(cfrac, "_pack", spy)
        cf = CFraction((GAMMA / 2 - Fraction(1, 3), Fraction(1, 4)), (1, 2))
        assert evaluate(cf, 6) == reference_evaluate(cf, 6)
        # D = lcm(2, 3, 4) = 12: a_1 D = 6 gamma - 4, a_2 D^2 = 36
        assert packed == [[-4, 6], [36]]

    @staticmethod
    def rings(monkeypatch):
        """The scalar types of the a_k each approximant recurrence runs on."""
        seen, recurrence = [], cfrac._approximant_coeffs

        def spy(a, q):
            seen.append({type(v) for v in a})
            return recurrence(a, q)

        monkeypatch.setattr(cfrac, "_approximant_coeffs", spy)
        return seen

    def test_int_route_ends_at_the_scaled_bits(self, monkeypatch):
        # D = 2**15 has 16 bits, so cap * 16 passes _SCALED_BITS at cap + 1
        cap = 20
        monkeypatch.setattr(cfrac, "_SCALED_BITS", 16 * cap)
        cf = CFraction((Fraction(1, 2**15), Fraction(-3, 2)), (1, 1))
        seen = self.rings(monkeypatch)
        inside, past = evaluate(cf, cap), evaluate(cf, cap + 1)
        assert seen == [{int}, {Fraction}]
        assert past.coeffs[: cap + 1] == inside.coeffs

    def test_fraction_of_a_generic_integer_series_leaves_int(self, monkeypatch):
        # its a_k have denominators of hundreds of bits, while the expansion
        # is the small input again
        rng = random.Random(5)
        f = series([1] + [rng.randint(-9, 9) for _ in range(32)])
        cf = correspond(f)
        seen = self.rings(monkeypatch)
        same_series(evaluate(cf, f.order), f)
        assert seen == [{Fraction}]

    @given(cfractions(st.one_of(GAMMA_POLYS, NONZERO_RATIONALS)), st.integers(0, 14))
    def test_scalar_route_matches_the_reference(self, cf, order):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cfrac, "_SCALED_BITS", -1)
            expansion = evaluate(cf, order)
        same_series(expansion, reference_evaluate(cf, order))


class TestApproximants:
    # _approximant_coeffs(a, q) gives (B_n, A_n) for the n = len(a) terms
    def test_base_cases(self):
        assert _approximant_coeffs((), ()) == ((1,), (1,))
        assert _approximant_coeffs((Fraction(-1),), (1,)) == ((1,), (1, -1))

    def test_catalan_second_approximant(self):
        b_poly, a_poly = _approximant_coeffs((Fraction(-1),) * 2, (1, 1))
        assert a_poly == (1, -2)
        assert b_poly == (1, -1)

    def test_cancelling_leading_coefficients(self):
        # A_2 = (1 + x) - x = 1: the cancelled top coefficient is stripped
        cf = CFraction((Fraction(1), Fraction(-1)), (1, 1))
        assert _approximant_coeffs(cf.a, cf.q) == ((1, -1), (1,))
        assert evaluate(cf, 3) == series([1, -1, 0, 0], 3)

    def test_approximant_quotient_equals_prefix_expansion(self):
        # 1/(A_n/B_n) expanded as a series is exactly the n-term evaluation
        rng = random.Random(71)
        for _ in range(10):
            cf = rand_cfraction(rng)
            n = rng.randint(0, len(cf))
            b_poly, a_poly = _approximant_coeffs(cf.a[:n], cf.q[:n])
            quotient = series_mul(
                series(b_poly, 10), series_reciprocal(series(a_poly, 10))
            )
            prefix = CFraction(cf.a[:n], cf.q[:n])
            assert quotient == evaluate(prefix, 10)

    def test_agreement_order_with_full_expansion(self):
        # the n-term prefix agrees with the full fraction strictly through
        # x^(s_{n+1} - 1) and differs at x^(s_{n+1})
        cf = CFraction(
            (Fraction(2), Fraction(-1, 3), Fraction(5), Fraction(1)),
            (1, 2, 1, 2),
        )
        full = evaluate(cf, 12)
        for n in range(len(cf)):
            prefix = CFraction(cf.a[:n], cf.q[:n])
            partial = evaluate(prefix, 12)
            boundary = sum(cf.q[: n + 1])
            assert partial.coeffs[:boundary] == full.coeffs[:boundary]
            assert partial.coeffs[boundary] != full.coeffs[boundary]


class TestDeterminantIdentity:
    def test_base_case_any_fraction(self):
        rng = random.Random(17)
        for _ in range(5):
            cf = rand_cfraction(rng)
            assert determinant_identity_residual(cf, 1) == ()

    def test_catalan_hand_expansion(self):
        cf = CFraction((Fraction(-1),) * 3, (1,) * 3)
        # (1-2x)*1 - (1-x)^2 = -x^2 = (-1)^1 a_1 a_2 x^2
        assert determinant_identity_residual(cf, 2) == ()

    def test_mixed_exponents(self):
        cf = CFraction((Fraction(2), Fraction(-1, 3), Fraction(5)), (1, 2, 1))
        for n in (1, 2, 3):
            assert determinant_identity_residual(cf, n) == ()

    def test_random_property(self):
        rng = random.Random(19)
        for _ in range(20):
            cf = rand_cfraction(rng)
            for n in range(1, len(cf) + 1):
                assert determinant_identity_residual(cf, n) == ()

    def test_symbolic_coefficients(self):
        cf = CFraction((GAMMA, GAMMA, GAMMA), (1, 2, 3))
        for n in (1, 2, 3):
            assert determinant_identity_residual(cf, n) == ()


class TestSerialization:
    def test_round_trip_terminated(self):
        cf = CFraction((Fraction(-1), Fraction(1, 2)), (1, 3))
        blob = cfraction_to_json(cf)
        assert blob["status"] == "terminated"
        assert cfraction_from_json(blob) == cf

    def test_round_trip_truncated_symbolic(self):
        cf = CFraction((GAMMA, GAMMA), (1, 2), 9)
        blob = cfraction_to_json(cf)
        assert blob["status"] == {"truncated": 9}
        assert cfraction_from_json(blob) == cf

    def test_bad_status(self):
        with pytest.raises(ValueError):
            cfraction_from_json({"a": [], "q": [], "status": "later"})
        # the order of a truncated fraction is an integer >= 0; null, the one
        # value that would read as terminated, is refused like the others
        for order in (None, -1, True, "5", 2.0):
            with pytest.raises(ValueError):
                cfraction_from_json({"a": [], "q": [], "status": {"truncated": order}})


class TestEquivalenceWithReciprocalPaths:
    """evaluate and correspond against the one-reciprocal-per-term originals."""

    @given(cfractions(NONZERO_RATIONALS), st.integers(0, 30), st.booleans())
    def test_rational_fractions(self, cf, order, exact):
        expansion = evaluate(cf, order)
        same_series(expansion, reference_evaluate(cf, order))
        assert correspond(expansion, exact) == reference_correspond(expansion, exact)

    @given(cfractions(st.one_of(GAMMA_POLYS, NONZERO_RATIONALS)), st.integers(0, 14))
    def test_gamma_polynomial_numerators(self, cf, order):
        expansion = evaluate(cf, order)
        same_series(expansion, reference_evaluate(cf, order))
        assert outcome(correspond, expansion) == outcome(reference_correspond, expansion)

    @given(
        st.lists(st.integers(-4, 4).map(Fraction) | NONZERO_RATIONALS, max_size=8),
        st.integers(0, 12),
        st.booleans(),
    )
    def test_series_with_zero_tails(self, head, zeros, exact):
        f = series([1, *head], len(head) + zeros)
        cf = correspond(f, exact)
        assert cf == reference_correspond(f, exact)
        same_series(evaluate(cf, f.order), reference_evaluate(cf, f.order))

    @given(st.lists(GAMMA_POLYS | NONZERO_RATIONALS, max_size=8), st.booleans())
    def test_symbolic_series(self, tail, exact):
        f = series([1, *tail])
        assert outcome(correspond, f, exact) == outcome(reference_correspond, f, exact)


class TestTruncationRule:
    # exponent sums s_1..s_5 = 1, 3, 4, 6, 9
    CF = CFraction(
        (Fraction(2), Fraction(-1, 3), Fraction(5), Fraction(1), Fraction(-2)),
        (1, 2, 1, 2, 3),
    )

    @pytest.mark.parametrize(
        "cap, n",
        [(0, 0), (2, 1), (3, 2), (5, 3), (6, 4), (8, 4), (9, 5), (12, 5)],
    )
    def test_prefix_expands_identically(self, cap, n):
        # s_n <= cap < s_(n+1); cap = 3 has s_2 = cap and s_3 = cap + 1,
        # cap = 5 has s_4 = cap + 1, cap = 6 has s_4 = cap
        cf = self.CF
        assert sum(cf.q[:n]) <= cap
        assert n == len(cf) or sum(cf.q[: n + 1]) > cap
        prefix = CFraction(cf.a[:n], cf.q[:n])
        assert evaluate(cf, cap) == evaluate(prefix, cap)
        capped = CFraction(cf.a, cf.q, cap)
        assert evaluate(capped, 50) == evaluate(prefix, cap)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_term_at_the_cap_is_needed(self, n):
        # with s_n = cap, dropping the n-th term changes the x^cap coefficient
        cf = self.CF
        cap = sum(cf.q[:n])
        shorter = CFraction(cf.a[: n - 1], cf.q[: n - 1])
        assert evaluate(cf, cap).coeffs[:cap] == evaluate(shorter, cap).coeffs[:cap]
        assert evaluate(cf, cap).coeffs[cap] != evaluate(shorter, cap).coeffs[cap]

    def test_negative_reliable_order_rejected(self):
        for order in (-1, True, 2.0, "terminated"):
            with pytest.raises(ValueError):
                CFraction((), (), order)
