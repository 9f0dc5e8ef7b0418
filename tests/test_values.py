"""Value semantics of the immutable types: equal values hash alike, fields
cannot be assigned, construction validates, copies and pickles rebuild."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cfhankel.catalog import Claim
from cfhankel.cfrac import CFraction, Terminated, Truncated
from cfhankel.closedform import NegativePExponent, PFraction, ZeroCoefficient
from cfhankel.exact import ParamPoly, Poly, PolyFrac, Series

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
nonzero = rationals.filter(lambda v: v != 0)


@given(st.lists(rationals, min_size=1, max_size=6), st.integers(0, 3))
def test_equal_polynomials_and_series_hash_alike(values, zeros):
    padded = values + [Fraction(0)] * zeros
    order = len(padded) - 1
    for a, b in [
        (ParamPoly(values), ParamPoly(tuple(padded))),
        (Poly(values), Poly(padded)),
        (Series(tuple(padded), order), Series(tuple(padded), order)),
    ]:
        assert a is not b and a == b and hash(a) == hash(b)
        assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


@given(st.lists(nonzero, min_size=1, max_size=5), st.integers(1, 3), st.integers(0, 8))
def test_equal_fractions_hash_alike(a, q, order):
    first = CFraction(tuple(a), (q,) * len(a), Truncated(order))
    second = CFraction(list(a), [q] * len(a), Truncated(order))
    assert first == second and hash(first) == hash(second)
    assert first != CFraction(tuple(a), (q,) * len(a), Terminated())
    assert pickle.loads(pickle.dumps(first)) == first


@given(st.lists(rationals, min_size=1, max_size=4))
def test_fields_cannot_be_assigned_or_deleted(values):
    for value, field in [
        (Series(tuple(values), len(values) - 1), "order"),
        (ParamPoly(values), "coeffs"),
        (PolyFrac(ParamPoly((0, 1)), ParamPoly((1, 1))), "num"),
        (Poly(values), "coeffs"),
        (CFraction((Fraction(1),), (1,), Terminated()), "a"),
        (Truncated(2), "reliable_order"),
        (PFraction((Fraction(1),), (1, 0)), "b"),
    ]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1


def test_status_values():
    assert Terminated() == Terminated() and hash(Terminated()) == hash(Terminated())
    assert Truncated(2) != Truncated(3) and Truncated(2) == Truncated(2)
    assert Truncated(2) != Terminated()
    assert repr(Truncated(2)) == "Truncated(reliable_order=2)"
    assert repr(Series((Fraction(1),), 0)) == "Series(coeffs=(Fraction(1, 1),), order=0)"
    assert Series((Fraction(1),), 0) != ((Fraction(1),), 0)


def test_claim_note_defaults_to_empty():
    claim = Claim("id", "example 1", [1], [1], "confirmed")
    assert claim.note == "" and claim.verdict == "confirmed"


def test_construction_still_validates():
    with pytest.raises(ValueError):
        Series((Fraction(1), Fraction(2)), 3)
    with pytest.raises(ValueError):
        Series((), -1)
    with pytest.raises(ValueError):
        CFraction((Fraction(1),), (1, 2), Terminated())
    with pytest.raises(ValueError):
        CFraction((Fraction(0),), (1,), Terminated())
    with pytest.raises(ValueError):
        CFraction((Fraction(1),), (0,), Terminated())
    with pytest.raises(ValueError):
        CFraction((Fraction(1),), (1,), "terminated")
    with pytest.raises(ValueError):
        Truncated(-1)
    with pytest.raises(ValueError):
        Truncated(True)
    # the ladder refuses its data with the closed form's own domain errors
    with pytest.raises(ZeroCoefficient):
        PFraction((Fraction(0),), (1, 1))
    with pytest.raises(NegativePExponent):
        PFraction((Fraction(1),), (1, -1))
