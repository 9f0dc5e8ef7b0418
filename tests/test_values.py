"""Value semantics of the immutable types: equal values hash alike, fields
cannot be assigned, construction validates, copies and pickles rebuild."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfhankel.catalog import Claim
from cfhankel.cfrac import CFraction
from cfhankel.closedform import NegativePExponent
from cfhankel.exact import ParamPoly, Series
from crosscheck import PFraction, ZeroCoefficient

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
nonzero = rationals.filter(lambda v: v != 0)


@given(st.lists(rationals, min_size=1, max_size=6), st.integers(0, 3))
def test_equal_polynomials_and_series_hash_alike(values, zeros):
    padded = values + [Fraction(0)] * zeros
    poly = [*values, Fraction(1)]  # degree >= 1, so a ParamPoly and not its constant
    for a, b in [
        (ParamPoly(poly), ParamPoly(tuple(poly + [Fraction(0)] * zeros))),
        (Series(tuple(padded)), Series(tuple(padded))),
    ]:
        assert a is not b and a == b and hash(a) == hash(b)
        assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


@given(st.lists(nonzero, min_size=1, max_size=5), st.integers(1, 3), st.integers(0, 8))
def test_equal_fractions_hash_alike(a, q, order):
    first = CFraction(tuple(a), (q,) * len(a), order)
    second = CFraction(list(a), [q] * len(a), order)
    assert first == second and hash(first) == hash(second)
    assert first != CFraction(tuple(a), (q,) * len(a))
    assert pickle.loads(pickle.dumps(first)) == first


@given(st.lists(rationals, min_size=1, max_size=4))
def test_fields_cannot_be_assigned_or_deleted(values):
    for value, field in [
        (Series(tuple(values)), "coeffs"),
        (ParamPoly([*values, 1]), "coeffs"),
        (CFraction((Fraction(1),), (1,)), "a"),
        (CFraction((Fraction(1),), (1,), 2), "reliable_order"),
        (PFraction((Fraction(1),), (1, 0)), "b"),
    ]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1


def test_status_values():
    # a fraction's status is its reliable order, None when it terminated
    def fraction(order=None):
        return CFraction((Fraction(1),), (1,), order)

    assert fraction() == fraction(None) and hash(fraction()) == hash(fraction(None))
    assert fraction(2) != fraction(3) and fraction(2) == fraction(2)
    assert fraction(2) != fraction() and fraction(0) != fraction()
    assert repr(fraction(2)) == "CFraction(a=(Fraction(1, 1),), q=(1,), reliable_order=2)"
    assert repr(Series((Fraction(1),))) == "Series(coeffs=(Fraction(1, 1),))"
    assert Series((Fraction(1),)) != ((Fraction(1),),)


def test_claim_note_defaults_to_empty():
    claim = Claim("id", "example 1", [1], [1], "confirmed")
    assert claim.note == "" and claim.verdict == "confirmed"


def test_construction_still_validates():
    with pytest.raises(ValueError):
        Series(())
    with pytest.raises(ValueError):
        CFraction((Fraction(1),), (1, 2))
    with pytest.raises(ValueError):
        CFraction((Fraction(0),), (1,))
    with pytest.raises(ValueError):
        CFraction((Fraction(1),), (0,))
    with pytest.raises(ValueError):
        CFraction((Fraction(1),), (True,))
    with pytest.raises(ValueError):
        CFraction((Fraction(1),), (1,), "terminated")
    with pytest.raises(ValueError):
        CFraction((Fraction(1),), (1,), -1)
    with pytest.raises(ValueError):
        CFraction((Fraction(1),), (1,), True)
    # the ladder refuses its data with the closed form's own domain errors
    with pytest.raises(ZeroCoefficient):
        PFraction((Fraction(0),), (1, 1))
    with pytest.raises(NegativePExponent):
        PFraction((Fraction(1),), (1, -1))


def test_properties_run_under_the_cfhankel_profile():
    # crosscheck loads it on import, so a --noconftest run keeps it too: the
    # same 60 examples on every run, and no example database written
    assert settings.default.derandomize
    assert settings.default.database is None
    assert settings.default.max_examples == 60
