import random
import re
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, strategies as st

from cfhankel.catalog import catalog_cfraction
from cfhankel.cfrac import (
    CFraction,
    NonInvertibleLeadingScalar,
    correspond,
    evaluate,
)
from cfhankel.closedform import (
    Convention,
    DEFAULT_CONVENTION,
    NegativePExponent,
    OutsideTruncationWindow,
    dense_to_json,
    dense_transform,
    p_sequence,
)
from cfhankel.exact import GAMMA, NonInvertibleScalar, ParamPoly, series
from cfhankel.hankel_oracle import hankel_transform
from crosscheck import (
    PFraction,
    ZeroCoefficient,
    a_from_b,
    b_from_a,
    closed_form_from_b,
    closed_form_monomial,
    closed_form_value,
    pfraction_from_cfraction,
)

FIB = [1, 1, 2, 3, 5, 8, 13, 21]  # F_1..F_8

FIB_DENSE_12 = [1, 1, -2, 0, 72, 0, 0, 1944000, 0, 0, 0, 0, 1547934105600000000]


def fibonacci_cfraction(terms=8):
    return CFraction(tuple(Fraction(v) for v in FIB[:terms]), tuple(FIB[:terms]))


def rand_valid_cfraction(rng, max_terms=6):
    while True:
        n = rng.randint(1, max_terms)
        a = [rng.choice([1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2)]) for _ in range(n)]
        q = [rng.choice([1, 2, 3]) for _ in range(n)]
        try:
            p_sequence([1] + q)
        except NegativePExponent:
            continue
        return CFraction(tuple(Fraction(v) for v in a), tuple(q))


RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(lambda v: v != 0)
GAMMA_POLYS = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=2, max_size=3
).map(ParamPoly).filter(lambda v: isinstance(v, ParamPoly))


@st.composite
def ladder_cfractions(draw, numerators=RATIONALS):
    """Fractions whose ladder exponents p_n = q_n - p_{n-1} stay
    non-negative: each q_n is drawn from max(1, p_{n-1}) .. p_{n-1} + 3."""
    n = draw(st.integers(0, 7))
    a = draw(st.lists(numerators, min_size=n, max_size=n))
    q, p = [], 1
    for _ in range(n):
        q.append(draw(st.integers(max(1, p), p + 3)))
        p = q[-1] - p
    return CFraction(tuple(a), tuple(q))


class TestPSequence:
    def test_all_ones(self):
        assert p_sequence([1] * 8) == [1, 0, 1, 0, 1, 0, 1, 0]

    def test_rogers_ramanujan(self):
        qtilde = [1, 1, 2, 3, 4, 5, 6]
        assert p_sequence(qtilde) == [1, 0, 2, 1, 3, 2, 4]

    def test_single_term(self):
        assert p_sequence([1]) == [1]

    def test_negative_refused(self):
        with pytest.raises(NegativePExponent) as info:
            p_sequence([1, 3, 1])
        assert info.value.index == 2

    def test_zero_exponent_after_a_zero_step_is_refused(self):
        # p_1 = 0, so a zero q_2 would give p_2 = 0 and no negative p to
        # stop it; the exponent check itself must
        with pytest.raises(ValueError, match="exponents must be positive integers"):
            p_sequence([1, 1, 0])

    def test_leading_entry_must_be_one(self):
        with pytest.raises(ValueError):
            p_sequence([2, 1, 1])

    @pytest.mark.parametrize("entry", [1.9, "2", Fraction(2), True])
    def test_non_integer_entries_are_refused_not_coerced(self, entry):
        with pytest.raises(ValueError, match=re.escape(f"got {entry!r}")):
            p_sequence([1, 1, entry])


def index_sums(q):
    """m_0, m_1, ...: the partial sums of p_sequence((1, *q))."""
    return list(accumulate(p_sequence((1, *q))))


class TestIndexProfile:
    def test_fibonacci_indices(self):
        m = index_sums(FIB[:6])
        assert m == [1, 1, 2, 3, 5, 8, 13]
        # depth j's value lands at position m_j - 1
        profile = dense_transform(fibonacci_cfraction(6), 12).profile
        assert [pt.n for pt in profile for _ in range(pt.multiplicity)] == [v - 1 for v in m]

    def test_rogers_ramanujan_indices(self):
        m = index_sums([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        assert m == [1, 1, 3, 4, 7, 9, 13, 16, 21, 25, 31]

    def test_catalan_indices(self):
        m = index_sums([1] * 9)
        assert m == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
        assert m == [(n + 2) // 2 for n in range(10)]

    def test_aerated_indices(self):
        assert index_sums([2] * 6) == [1, 2, 3, 4, 5, 6, 7]

    def test_consistency_relations(self):
        rng = random.Random(43)
        for _ in range(20):
            cf = rand_valid_cfraction(rng)
            qtilde = (1, *cf.q)
            p, m = p_sequence(qtilde), index_sums(cf.q)
            for n in range(1, len(p)):
                assert m[n] - m[n - 1] == p[n]
                assert p[n] + p[n - 1] == qtilde[n]

    @given(ladder_cfractions())
    def test_generating_function(self, cf):
        # (1 + x G(x)) / (1 - x^2), G carrying q_1, q_2, ...: its n-th
        # coefficient is the sum of q~_k over k = n, n - 2, n - 4, ...
        qtilde = (1, *cf.q)
        expected = [sum(qtilde[n % 2 : n + 1 : 2]) for n in range(len(qtilde))]
        assert index_sums(cf.q) == expected


class TestCoefficientConversion:
    def test_all_ones_fixed_point(self):
        assert b_from_a([1, 1, 1, 1]) == [1, 1, 1, 1, 1]
        assert a_from_b([1, 1, 1, 1, 1]) == [1, 1, 1, 1]

    def test_catalan_pattern(self):
        b = b_from_a([1, -1, -1, -1, -1, -1])
        assert b == [1, 1, -1, 1, -1, 1, -1]

    def test_inverse_pair(self):
        assert a_from_b([1, 1, -1, 1, -1]) == [1, -1, -1, -1]

    def test_fibonacci_values(self):
        b = b_from_a([Fraction(1)] + [Fraction(v) for v in FIB[:6]])
        assert b == [1, 1, 1, 1, Fraction(1, 2), Fraction(2, 3), Fraction(3, 10), Fraction(5, 12)]

    def test_symbolic_numerators_are_refused(self):
        # b_2 = 1/gamma would leave Q[gamma]; the ladder is a rational cross-check
        with pytest.raises(NonInvertibleScalar):
            b_from_a([1, GAMMA])
        with pytest.raises(NonInvertibleScalar):
            a_from_b([1, 1, GAMMA])
        with pytest.raises(NonInvertibleScalar):
            closed_form_from_b([1, GAMMA], [1, 1], 1)
        # a constant polynomial is a unit
        assert b_from_a([1, ParamPoly((2,))]) == [1, 1, Fraction(1, 2)]

    def test_defining_relation(self):
        rng = random.Random(47)
        for _ in range(20):
            a = [Fraction(rng.randint(1, 9), rng.choice([1, 2, 3])) * rng.choice([1, -1])
                 for _ in range(rng.randint(1, 7))]
            b = b_from_a(a)
            for k, ak in enumerate(a):
                assert ak * b[k] * b[k + 1] == 1
            assert a_from_b(b) == a

    @given(st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(lambda v: v != 0),
        max_size=10,
    ))
    def test_inverse_pair_property(self, a):
        assert a_from_b(b_from_a(a)) == a

    def test_zero_rejected(self):
        with pytest.raises(ZeroCoefficient):
            b_from_a([1, 0, 1])
        with pytest.raises(ZeroCoefficient):
            a_from_b([1, 0])

    def test_pfraction_from_cfraction(self):
        cf = CFraction((Fraction(-1),) * 4, (1,) * 4)
        pf = pfraction_from_cfraction(cf)
        assert pf.p == (1, 0, 1, 0, 1)
        assert pf.b == (1, -1, 1, -1, 1)


class TestLadderClosedForm:
    def test_empty_product(self):
        assert closed_form_from_b([1, 1, 1], [1, 1, 1], 0) == 1

    def test_aerated_literal_subscripts(self):
        b = b_from_a([1, -1, -1, -1])
        p = p_sequence([1, 2, 2, 2])
        assert [closed_form_from_b(b, p, m) for m in (1, 2, 3)] == [1, 1, 1]

    @given(ladder_cfractions())
    @example(fibonacci_cfraction(6))
    def test_level_alignment_matches_dense_values(self, cf):
        # with coefficients aligned to their own ladder level (drop the
        # unit lead), the paper's ladder form reproduces the shipped
        # monomial value at position n up to the factor (-1)^n
        qtilde = [1, *cf.q]
        p = p_sequence(qtilde)
        b = b_from_a([Fraction(1), *cf.a])
        for m in range(len(cf) + 1):
            position = sum(p[1 : m + 1])
            expected = closed_form_value(cf.a, qtilde, m, Convention.SIGN_CORRECTED)
            if position % 2:
                expected = -1 * expected
            assert closed_form_from_b(b[1:], p, m) == expected


class TestMonomialClosedForm:
    def test_fibonacci_values(self):
        qtilde = [1, *FIB[:6]]
        mono4 = closed_form_monomial(qtilde, 4)
        assert mono4.exponents == (4, 4, 3, 2)
        assert mono4.instantiate(FIB[:4]) == 72
        mono5 = closed_form_monomial(qtilde, 5)
        assert mono5.exponents == (7, 7, 6, 5, 3)
        assert mono5.instantiate(FIB[:5]) == 1944000
        assert closed_form_value(FIB, qtilde, 3) == -2
        assert closed_form_value(FIB, [1, *FIB], 6) == 1547934105600000000

    def test_catalan_value(self):
        assert closed_form_value([-1, -1], [1, 1, 1], 2) == 1

    def test_rogers_ramanujan_symbolic(self):
        mono = closed_form_monomial([1, 1, 2], 2)
        assert mono.sign == -1
        assert mono.total_exponent == 4
        assert mono.instantiate([GAMMA, GAMMA]) == -(GAMMA**4)

    def test_conventions_differ_by_global_negation(self):
        rng = random.Random(59)
        for _ in range(15):
            cf = rand_valid_cfraction(rng)
            qtilde = [1, *cf.q]
            m = rng.randint(0, len(cf))
            corrected = closed_form_value(cf.a, qtilde, m, Convention.SIGN_CORRECTED)
            printed = closed_form_value(cf.a, qtilde, m, Convention.AS_PRINTED)
            assert printed == -1 * corrected

    def test_depth_zero(self):
        assert closed_form_value([], [1], 0, Convention.SIGN_CORRECTED) == 1
        assert closed_form_value([], [1], 0, Convention.AS_PRINTED) == -1

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ZeroCoefficient):
            closed_form_value([Fraction(0)], [1, 1], 1)


class TestDenseTransform:
    def test_empty_fraction(self):
        result = dense_transform(CFraction((), ()), 4)
        assert result.dense == (1, 0, 0, 0, 0)
        assert result.profile == (result.profile[0],)
        assert result.profile[0].n == 0 and result.profile[0].multiplicity == 1
        with pytest.raises(ValueError, match="max_n must be non-negative"):
            dense_transform(CFraction((), ()), -1)

    def test_fibonacci_dense(self):
        result = dense_transform(fibonacci_cfraction(), 12)
        assert list(result.dense) == FIB_DENSE_12
        mults = {pt.n: pt.multiplicity for pt in result.profile}
        assert mults == {0: 2, 1: 1, 2: 1, 4: 1, 7: 1, 12: 1}

    def test_fibonacci_matches_oracle(self):
        cf = fibonacci_cfraction()
        oracle = hankel_transform(evaluate(cf, 24).coeffs, 12)
        assert oracle == FIB_DENSE_12
        assert list(dense_transform(cf, 12).dense) == oracle

    def test_catalan_multiplicity_two(self):
        # position n is visited at depths 2n and 2n+1, so covering the last
        # position twice needs 2*max_n + 1 quotients
        cf = CFraction((Fraction(-1),) * 13, (1,) * 13)
        result = dense_transform(cf, 6)
        assert list(result.dense) == [1] * 7
        assert all(pt.multiplicity == 2 for pt in result.profile)

    def test_aerated_multiplicity_one(self):
        cf = CFraction((Fraction(-1),) * 10, (2,) * 10)
        result = dense_transform(cf, 9)
        assert list(result.dense) == [1] * 10
        assert all(pt.multiplicity == 1 for pt in result.profile)

    def test_repeated_positions_agree(self):
        # whenever a ladder exponent vanishes, consecutive depths share a
        # position and their values must coincide
        rng = random.Random(61)
        for _ in range(25):
            cf = rand_valid_cfraction(rng)
            qtilde = [1, *cf.q]
            p = p_sequence(qtilde)
            for m in range(len(cf)):
                if p[m + 1] == 0:
                    assert closed_form_value(cf.a, qtilde, m) == closed_form_value(
                        cf.a, qtilde, m + 1
                    )

    @given(
        ladder_cfractions(RATIONALS | GAMMA_POLYS),
        st.integers(0, 12),
        st.sampled_from(list(Convention)),
    )
    def test_one_pass_equals_each_depth_value(self, cf, max_n, convention):
        # the prefix-product pass against the per-depth monomial
        qtilde = [1, *cf.q]
        p = p_sequence(qtilde)
        result = dense_transform(cf, max_n, convention)
        profile = {pt.n: pt for pt in result.profile}
        depths = {}
        for m in range(len(cf) + 1):
            position = sum(p[1 : m + 1])
            if position > max_n:
                break
            assert profile[position].value == closed_form_value(cf.a, qtilde, m, convention)
            depths[position] = depths.get(position, 0) + 1
        assert {n: pt.multiplicity for n, pt in profile.items()} == depths
        assert all(v == 0 for n, v in enumerate(result.dense) if n not in depths)

    @given(ladder_cfractions(RATIONALS | GAMMA_POLYS), st.integers(0, 12))
    def test_as_printed_is_the_global_negation(self, cf, max_n):
        # the fact the catalog's arbitration rests on: one sign-corrected
        # transform gives either convention's by its global sign
        corrected = dense_transform(cf, max_n, Convention.SIGN_CORRECTED)
        printed = dense_transform(cf, max_n, Convention.AS_PRINTED)
        assert printed.dense == tuple(-v for v in corrected.dense)
        assert printed.profile == tuple(pt._replace(value=-pt.value)
                                        for pt in corrected.profile)

    def test_negative_exponent_propagates(self):
        with pytest.raises(NegativePExponent):
            dense_transform(CFraction((1, 1), (3, 1)), 5)

    def test_negative_exponent_past_the_window_is_not_read(self):
        # p = 1, 0, 1, 0, 3, -2: depth 4 lands at 4, so max_n <= 3 stops
        # before p_5, while max_n = 4 reaches it
        cf = CFraction((Fraction(-1),) * 5, (1, 1, 1, 3, 1))
        for max_n in (1, 3):
            oracle = hankel_transform(evaluate(cf, 2 * max_n).coeffs, max_n)
            assert list(dense_transform(cf, max_n).dense) == oracle
        with pytest.raises(NegativePExponent, match="p_5 = -2"):
            dense_transform(cf, 4)

    def test_json_shape(self):
        blob = dense_to_json(dense_transform(fibonacci_cfraction(4), 4))
        assert blob["convention"] == "sign-corrected"
        assert blob["dense"][0] == "1"
        assert {"n", "value", "multiplicity"} == set(blob["profile"][0])

    def test_symbolic_dense(self):
        cf = CFraction((GAMMA,) * 5, (1, 2, 3, 4, 5))
        result = dense_transform(cf, 6)
        assert result.dense[0] == 1
        assert result.dense[2] == -(GAMMA**4)
        assert result.dense[3] == GAMMA**7
        assert result.dense[1] == 0 and result.dense[4] == 0 and result.dense[5] == 0
        assert result.profile[0].multiplicity == 2


class TestTruncationWindow:
    # extracted from the Catalan series through x^8: eight terms -1 x, reliable order 8
    CF = correspond(series([1, 1, 2, 5, 14, 42, 132, 429, 1430]))
    # through x^7: at an odd order the window is (N - 1) / 2, not (N + 1) / 2
    ODD_CF = correspond(series([1, 1, 2, 5, 14, 42, 132, 429]))

    def test_window_is_half_the_reliable_order(self):
        for cf, order in ((self.CF, 8), (self.ODD_CF, 7)):
            window = order // 2
            assert cf.reliable_order == order
            assert list(dense_transform(cf, window).dense) == [1] * (window + 1)
            with pytest.raises(OutsideTruncationWindow, match=rf"order {order} .* n <= {window}"):
                dense_transform(cf, window + 1)

    @pytest.mark.parametrize("max_n", [5, 6, 1000])
    def test_past_the_window_is_refused(self, max_n):
        # h_5 = h_6 = 1, but eight terms once gave 0 for both
        with pytest.raises(OutsideTruncationWindow, match=r"order 8 .* n <= 4"):
            dense_transform(self.CF, max_n)

    def test_multiplicity_at_the_window_edge_is_undetermined(self):
        # h_4 = 1, but the series through x^8 starts fractions with two
        # depths at n = 4 (the Catalan fraction) and with one (a ninth
        # term -1 x^2 lands depth 9 at n = 5), so n = 4 reads None
        assert dense_transform(self.CF, 4).profile[-1] == (4, 1, None)
        full = catalog_cfraction("catalan", terms=40)
        assert dense_transform(full, 4).profile[-1] == (4, 1, 2)
        one = CFraction((*self.CF.a, Fraction(-1)), (*self.CF.q, 2))
        assert evaluate(one, 8) == evaluate(full, 8)
        assert dense_transform(one, 4).profile[-1] == (4, 1, 1)
        # at the odd order 7 both depths at n = 3 sum their exponents to at
        # most 7, so the edge is fixed
        assert dense_transform(self.ODD_CF, 3).profile[-1] == (3, 1, 2)

    def test_a_term_past_the_reliable_order_is_not_counted(self):
        # a ninth term -1 x: q_1 + ... + q_9 = 9 > 8, so it cannot reach the
        # series through x^8; depth 9 lands at n = 4 again, where the
        # multiplicity is undetermined either way
        plus = CFraction((*self.CF.a, Fraction(-1)), (*self.CF.q, 1), 8)
        assert evaluate(plus, 8) == evaluate(self.CF, 8)
        assert dense_transform(plus, 4) == dense_transform(self.CF, 4)
        assert dense_transform(plus, 4).profile[-1] == (4, 1, None)

    @given(ladder_cfractions(), st.integers(0, 16), st.integers(0, 8))
    @example(catalog_cfraction("catalan", terms=12), 7, 3)
    def test_only_the_even_window_edge_is_undetermined(self, source, order, max_n):
        # the series of a fraction through x^N, extracted again: each
        # point equals the full fraction's but n = N / 2 at an even N,
        # whose multiplicity is None
        max_n = min(max_n, order // 2)
        cut = correspond(evaluate(source, order))
        assert cut.reliable_order == order
        full, result = dense_transform(source, max_n), dense_transform(cut, max_n)
        assert result.dense == full.dense
        edge = [order // 2] if order % 2 == 0 and full.profile[-1].n == order // 2 else []
        assert [pt.n for pt in result.profile if pt.multiplicity is None] == edge
        assert result.profile == tuple(pt._replace(multiplicity=None) if pt.n in edge else pt
                                       for pt in full.profile)

    @given(ladder_cfractions(RATIONALS | GAMMA_POLYS), st.none() | st.integers(0, 24),
           st.integers(0, 12))
    def test_every_multiplicity_is_one_two_or_undetermined(self, cf, order, max_n):
        # a p = 0 step is followed by p >= 1, so no three depths share a point
        cf = CFraction(cf.a, cf.q, order)
        max_n = max_n if order is None else min(max_n, order // 2)
        assert {pt.multiplicity for pt in dense_transform(cf, max_n).profile} <= {1, 2, None}

    @given(ladder_cfractions(), st.integers(0, 16),
           st.lists(st.tuples(RATIONALS, st.integers(1, 4)), min_size=1, max_size=4),
           st.integers(0, 8))
    def test_terms_past_the_reliable_order_change_nothing(self, source, order, extra, max_n):
        # terms appended to the trusted ones, the first with its exponent
        # sum past N, leave every result in the window as it was, even
        # where their ladder exponents would go negative
        max_n = min(max_n, order // 2)
        cut = correspond(evaluate(source, order))
        q = [q for _, q in extra]
        q[0] += order - sum(cut.q)
        longer = CFraction((*cut.a, *(a for a, _ in extra)), (*cut.q, *q), order)
        assert dense_transform(longer, max_n) == dense_transform(cut, max_n)

    def test_terminated_fraction_has_no_window(self):
        cf = CFraction(self.CF.a, self.CF.q)
        assert list(dense_transform(cf, 6).dense) == [1] * 5 + [0, 0]


# coefficient kinds of the series drawn below; every kind also draws zeros
SERIES_COEFFICIENTS = {
    "integers": st.integers(-3, 3),
    "rationals": st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    # a unit constant term and up to two gamma terms; a fraction with
    # rational a_k expands to a rational series, so any non-constant
    # coefficient stops the extraction
    "gamma-polynomials": st.builds(
        lambda unit, rest: ParamPoly((unit, *rest)),
        st.sampled_from([1, -1, 2, Fraction(-1, 2)]),
        st.lists(st.integers(-2, 2), max_size=2),
    ),
}


@st.composite
def series_of_even_order(draw, coefficient):
    """(N, a series 1 + c_1 x + ... + c_2N x^2N) with N <= 6."""
    n = draw(st.integers(0, 6))
    tail = draw(st.lists(st.just(0) | coefficient, min_size=2 * n, max_size=2 * n))
    return n, series([1, *tail])


class TestAnySeries:
    """Every power series has a C-fraction, so the closed form of the
    extracted fraction gives the Hankel transform the oracle computes from
    the coefficients.  Two refusals are the only other outcome: a negative
    ladder exponent in the closed form, and a non-constant leading
    coefficient in the extraction."""

    @pytest.mark.parametrize("kind", sorted(SERIES_COEFFICIENTS))
    @given(data=st.data())
    def test_closed_form_matches_the_oracle_or_refuses(self, kind, data):
        n, f = data.draw(series_of_even_order(SERIES_COEFFICIENTS[kind]))
        try:
            cf = correspond(f)
        except NonInvertibleLeadingScalar:
            return
        assert cf.reliable_order == 2 * n
        try:
            dense = dense_transform(cf, n).dense
        except NegativePExponent:
            return
        assert list(dense) == hankel_transform(f.coeffs, n)

    def test_smallest_refusal(self):
        # 1/(1 - x^3/(1 - x)): h_2 = -1 needs p_2 = -1
        f = evaluate(CFraction((Fraction(-1),) * 2, (3, 1)), 12)
        assert hankel_transform(f.coeffs, 6) == [1, 0, -1, 0, 0, 0, 0]
        cf = correspond(f)
        assert (cf.a, cf.q) == ((Fraction(-1),) * 2, (3, 1))
        # depth 1 lands at p_1 = 2, past max_n = 1, so p_2 is never read
        assert list(dense_transform(cf, 1).dense) == [1, 0]
        with pytest.raises(NegativePExponent, match="p_2 = -1"):
            dense_transform(cf, 6)


class TestPFractionValidation:
    def test_zero_coefficient(self):
        with pytest.raises(ZeroCoefficient):
            PFraction((Fraction(0),), (1, 0))

    def test_negative_exponent(self):
        with pytest.raises(NegativePExponent):
            PFraction((Fraction(1),), (1, -1))
