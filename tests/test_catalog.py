import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cfhankel import catalog, hankel_oracle
from cfhankel.catalog import (
    CATALOG_NAMES,
    Claim,
    catalan_numbers,
    catalog_cfraction,
    expand_rational_gf,
    fibonacci_numbers,
    report_to_json,
    select_convention,
    verify_claims,
    _runs,
)
from cfhankel.cfrac import evaluate
from cfhankel.closedform import Convention, DEFAULT_CONVENTION
from cfhankel.exact import (
    GAMMA,
    NonInvertibleScalar,
    ParamPoly,
    ZeroConstantTerm,
    scalar_eval_gamma,
    scalar_to_json,
    series,
)
from crosscheck import catalog_round_trip, catalog_series, series_mul, terms_for_order

RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=4)
COEFFS = st.one_of(RATIONALS, st.lists(RATIONALS, max_size=3).map(ParamPoly))


class TestHelpers:
    def test_fibonacci_numbers(self):
        assert fibonacci_numbers(10) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]

    def test_catalan_numbers(self):
        got = catalan_numbers(8)
        assert got == [1, 1, 2, 5, 14, 42, 132, 429]
        assert all(c.denominator == 1 for c in got)


class TestConstructors:
    def test_names_are_the_entries_in_order(self):
        assert CATALOG_NAMES == ("catalan", "aerated-catalan", "fibonacci-cf", "rogers-ramanujan")

    def test_fibonacci_entry(self):
        cf = catalog_cfraction("fibonacci-cf", terms=5)
        assert cf.a == (1, 1, 2, 3, 5)
        assert cf.q == (1, 1, 2, 3, 5)

    def test_catalan_entry(self):
        cf = catalog_cfraction("catalan", terms=4)
        assert cf.a == (-1, -1, -1, -1)
        assert cf.q == (1, 1, 1, 1)

    def test_aerated_catalan_entry(self):
        cf = catalog_cfraction("aerated-catalan", terms=4)
        assert cf.a == (-1, -1, -1, -1)
        assert cf.q == (2, 2, 2, 2)

    def test_rogers_ramanujan_symbolic(self):
        cf = catalog_cfraction("rogers-ramanujan", terms=4)
        assert cf.a == (GAMMA,) * 4
        assert cf.q == (1, 2, 3, 4)

    def test_refusal_order(self):
        # --terms 0 first, then a stray --gamma, then an unknown name
        with pytest.raises(ValueError, match="at least one partial quotient"):
            catalog_cfraction("motzkin", gamma=2, terms=0)
        with pytest.raises(ValueError, match="motzkin takes no gamma parameter"):
            catalog_cfraction("motzkin", gamma=2, terms=1)
        with pytest.raises(ValueError, match="no catalog entry named 'motzkin'"):
            catalog_cfraction("motzkin", terms=1)

    def test_rogers_ramanujan_numeric(self):
        cf = catalog_cfraction("rogers-ramanujan", gamma=Fraction(1, 2), terms=3)
        assert cf.a == (Fraction(1, 2),) * 3

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="no catalog entry named 'motzkin'"):
            catalog_cfraction("motzkin")

    def test_zero_gamma_rejected(self):
        with pytest.raises(ValueError, match="rogers-ramanujan needs a nonzero gamma"):
            catalog_cfraction("rogers-ramanujan", gamma=0)

    def test_extraneous_gamma_rejected(self):
        with pytest.raises(ValueError):
            catalog_cfraction("catalan", gamma=2)

    def test_catalan_series_matches_catalan_numbers(self):
        assert list(catalog_series("catalan", 8).coeffs) == catalan_numbers(9)

    def test_terms_for_order(self):
        for name in CATALOG_NAMES:
            gamma = Fraction(1) if name == "rogers-ramanujan" else None
            terms = terms_for_order(name, 10)
            cf = catalog_cfraction(name, gamma=gamma, terms=terms)
            longer = catalog_cfraction(name, gamma=gamma, terms=terms + 3)
            assert evaluate(cf, 10) == evaluate(longer, 10)

    def test_terms_for_order_matches_the_exponent_loop(self):
        # the per-entry exponent table terms_for_order used to keep
        def loop(name, order):
            fib = fibonacci_numbers(order + 3)
            q = {
                "catalan": lambda k: 1,
                "aerated-catalan": lambda k: 2,
                "fibonacci-cf": lambda k: fib[k],
                "rogers-ramanujan": lambda k: k,
            }[name]
            terms, agree = 0, 0
            while agree <= order:
                terms += 1
                agree += q(terms)
            return max(terms, 1)

        for name in CATALOG_NAMES:
            for order in range(-2, 120):
                assert terms_for_order(name, order) == loop(name, order), (name, order)
        with pytest.raises(ValueError, match="no catalog entry"):
            terms_for_order("motzkin", 3)

    def test_round_trips(self):
        assert catalog_round_trip("catalan")
        assert catalog_round_trip("aerated-catalan")
        assert catalog_round_trip("fibonacci-cf")
        assert catalog_round_trip("rogers-ramanujan", gamma=Fraction(1))
        assert catalog_round_trip("rogers-ramanujan", gamma=Fraction(2))


class TestExpandRationalGf:
    def test_geometric(self):
        assert expand_rational_gf([1], [1, -1], 5) == [1, 1, 1, 1, 1]

    def test_catalan_index_gf(self):
        # (1 + x/(1-x))/(1-x^2) = 1/((1-x)(1-x^2))
        denom = [1, -1, -1, 1]  # (1 - x)(1 - x^2)
        assert expand_rational_gf([1], denom, 6) == [1, 1, 2, 2, 3, 3]

    def test_zero_constant_denominator(self):
        with pytest.raises(ZeroConstantTerm):
            expand_rational_gf([1], [0, 1], 3)
        with pytest.raises(ZeroConstantTerm):
            expand_rational_gf([1], [], 3)

    def test_at_least_one_coefficient(self):
        with pytest.raises(ValueError, match="order must be non-negative"):
            expand_rational_gf([1], [1, -1], 0)

    def test_non_unit_constant_denominator(self):
        with pytest.raises(NonInvertibleScalar):
            expand_rational_gf([1], [GAMMA, 1], 3)

    @given(st.lists(COEFFS, min_size=1, max_size=8),
           st.sampled_from([1, -1, 2, Fraction(-1, 3)]),
           st.lists(COEFFS, max_size=8), st.integers(1, 12))
    def test_quotient_times_denominator(self, numer, d0, tail, count):
        denom = [d0, *tail]
        quotient = series(expand_rational_gf(numer, denom, count))
        assert series_mul(series(denom, count - 1), quotient) == series(numer, count - 1)

    def test_quoted_exponent_gf_true_expansion(self):
        # hand long division: the quoted closed form expands to
        # 0, 0, 6, 12, 30, 50, 88 (the quoted sequence would need 2x^2(x^2+3))
        numer = [0, 0, 6, 0, 0, 2]
        denom = [1, -2, -1, 4, -1, -2, 1]  # (1 + x)^2 (1 - x)^4
        assert expand_rational_gf(numer, denom, 7) == [0, 0, 6, 12, 30, 50, 88]
        corrected = [0, 0, 6, 0, 2]
        assert expand_rational_gf(corrected, denom, 7) == [0, 0, 6, 12, 32, 52, 94]


class TestArbitration:
    def test_single_surviving_convention(self):
        convention, consistent = select_convention(_runs(12))
        assert consistent
        assert convention is Convention.SIGN_CORRECTED
        assert convention is DEFAULT_CONVENTION


class TestOneOraclePass:
    def test_each_entry_is_run_through_the_oracle_once(self, monkeypatch):
        names = ("hankel_transform", "matrix_det")
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(hankel_oracle, name)

            def spy(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(hankel_oracle, name, spy)
        verify_claims(12)
        assert calls == {"hankel_transform": 4, "matrix_det": 0}

    def test_each_entry_is_read_by_the_closed_form_once(self, monkeypatch):
        calls = []
        original = catalog.dense_transform

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(catalog, "dense_transform", spy)
        verify_claims(12)
        assert len(calls) == 4
        assert {args[2] for args in calls} == {Convention.SIGN_CORRECTED}

    def test_the_symbolic_pass_equals_the_routes_it_replaces(self):
        oracle = _runs(12)["rogers-ramanujan"].oracle
        assert oracle[2] == -(GAMMA**4)
        # h_2 and h_3 were symbolic determinants of the 5-term series
        five = evaluate(catalog_cfraction("rogers-ramanujan", terms=5), 6).coeffs
        assert oracle[2:4] == hankel_oracle.hankel_transform(five, 3)[2:]
        # the gamma = 2 figures were the oracle of the 7-term gamma = 2 series
        seven = evaluate(catalog_cfraction("rogers-ramanujan", gamma=2, terms=7), 16)
        at_two = hankel_oracle.hankel_transform(seven.coeffs, 8)
        assert [scalar_eval_gamma(v, 2) for v in oracle] == at_two


@pytest.fixture(scope="module")
def report():
    return verify_claims(12)


class TestVerifyClaims:
    def test_requires_enough_depth(self):
        with pytest.raises(ValueError):
            verify_claims(6)

    def test_every_claim_has_one_verdict(self, report):
        assert all(c.verdict in {"confirmed", "refuted"} for c in report.claims)
        assert len({c.id for c in report.claims}) == len(report.claims)

    def test_convention_recorded(self, report):
        assert report.convention is Convention.SIGN_CORRECTED
        assert report.convention_consistent

    def test_confirmed_claims(self, report):
        verdicts = {c.id: c.verdict for c in report.claims}
        for cid in (
            "ex1-dense-transform",
            "ex1-nonzero-values",
            "ex1-multiplicity",
            "ex1-index-sequence",
            "ex2-hankel-all-ones",
            "ex2-series-is-catalan",
            "ex2-index-multiset",
            "ex2-multiplicity",
            "ex3-hankel-all-ones",
            "ex3-series-is-aerated-catalan",
            "ex3-index-set",
            "ex3-multiplicity",
            "ex4-p-sequence",
            "ex4-index-partial-sums",
        ):
            assert verdicts[cid] == "confirmed", cid

    def test_refuted_depth_2_value(self, report):
        claim = next(c for c in report.claims if c.id == "ex4-value-depth-2")
        assert claim.verdict == "refuted"
        # the oracle's monomial is -gamma^4, not the quoted -gamma^6
        assert claim.computed == {"coeffs": ["0", "0", "0", "0", "-1"]}
        assert "gamma=2" in claim.note

    def test_refuted_exponent_gf_pair(self, report):
        claim = next(c for c in report.claims if c.id == "ex4-exponent-gf-pair")
        assert claim.verdict == "refuted"
        assert claim.computed == [0, 0, 6, 12, 30, 50, 88]

    def test_tail_values_are_the_symbolic_oracle(self, report):
        # depths 4 and 5 land at positions 6 and 8 (m_j - 1)
        claims = {c.id: c for c in report.claims}
        assert claims["ex4-value-depth-4"].computed == scalar_to_json(-(GAMMA**19))
        assert claims["ex4-value-depth-5"].computed == scalar_to_json(GAMMA**29)
        assert claims["ex4-value-depth-4"].expected == scalar_to_json(GAMMA**32)
        assert claims["ex4-value-depth-5"].note.startswith("position 8;")
        oracle = _runs(12)["rogers-ramanujan"].oracle
        assert claims["ex4-exponent-sequence"].computed == [0, 0, 4, 7, 19, 29]
        assert claims["ex4-exponent-sequence"].computed[2:] == [
            oracle[n].degree for n in (2, 3, 6, 8)]

    def test_value_claims_do_not_read_the_closed_form(self, report, monkeypatch):
        original = catalog.dense_transform

        def scaled(*args):
            result = original(*args)
            return result._replace(
                dense=tuple(v * GAMMA for v in result.dense),
                profile=tuple(pt._replace(value=pt.value * GAMMA)
                              for pt in result.profile),
            )

        monkeypatch.setattr(catalog, "dense_transform", scaled)
        value_claims = (
            "ex1-dense-transform", "ex1-nonzero-values",
            "ex2-hankel-all-ones", "ex3-hankel-all-ones",
            "ex2-series-is-catalan", "ex3-series-is-aerated-catalan",
            "ex4-value-depth-2", "ex4-value-depth-3", "ex4-value-depth-4",
            "ex4-value-depth-5", "ex4-exponent-sequence",
        )
        before = {c.id: c.computed for c in report.claims}
        after = {c.id: c.computed for c in verify_claims(12).claims}
        assert {cid: after[cid] for cid in value_claims} == {
            cid: before[cid] for cid in value_claims}

    def test_refuted_tail_values(self, report):
        verdicts = {c.id: c.verdict for c in report.claims}
        assert verdicts["ex4-value-depth-3"] == "refuted"
        assert verdicts["ex4-value-depth-4"] == "refuted"
        assert verdicts["ex4-value-depth-5"] == "refuted"
        assert verdicts["ex4-exponent-sequence"] == "refuted"

    def test_report_is_deterministic(self, report):
        again = verify_claims(12)
        assert json.dumps(report_to_json(report), sort_keys=True) == json.dumps(
            report_to_json(again), sort_keys=True
        )

    def test_claims_sorted_by_id(self, report):
        ids = [c.id for c in report.claims]
        assert ids == sorted(ids)

    def test_json_shape(self, report):
        blob = report_to_json(report)
        assert blob["convention"] == "sign-corrected"
        assert blob["convention_consistent"] is True
        assert all({"id", "location", "expected", "computed", "verdict"} <= set(c)
                   for c in blob["claims"])
