"""Value semantics of the immutable types, every one an ``exact.Value``:
equal values hash alike, fields cannot be assigned, construction validates,
copies and pickles rebuild."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfhankel.catalog import Claim, VerificationReport, catalog_cfraction
from cfhankel.cfrac import CFraction
from cfhankel.cli import Option, size
from cfhankel.closedform import Convention, NegativePExponent, ProfilePoint, dense_transform
from cfhankel.exact import ParamPoly, Series, series_reciprocal
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


def records() -> list:
    """One of each record the pipeline passes on, from the other tests' inputs."""
    claim = Claim("id", "example 1", "1", "1", "confirmed")
    return [
        ProfilePoint(4, Fraction(1), None),
        dense_transform(catalog_cfraction("catalan", terms=2), 1),
        claim,
        VerificationReport(Convention.SIGN_CORRECTED, True, (claim,)),
        Option("--max-n", size, required=True),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda record: type(record).__name__)
def test_records_are_immutable_values(record):
    for field in record.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    twin = type(record)(*record._fields())
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert copy.copy(record) == record and copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    # a record is not a tuple, so it no longer equals one
    assert record != record._fields()
    assert list(record._asdict()) == list(record.__slots__)
    assert record._replace() == record


def test_record_reprs_are_unchanged():
    claim = Claim("id", "example 1", [1], [1], "confirmed")
    assert repr(claim) == ("Claim(id='id', location='example 1', expected=[1], computed=[1], "
                           "verdict='confirmed', note='')")
    assert repr(VerificationReport(Convention.SIGN_CORRECTED, True, (claim,))) == (
        "VerificationReport(convention=<Convention.SIGN_CORRECTED: 'sign-corrected'>, "
        f"convention_consistent=True, claims=({claim!r},))")
    assert repr(dense_transform(catalog_cfraction("catalan", terms=2), 1)) == (
        "DenseTransform(dense=(Fraction(1, 1), Fraction(1, 1)), "
        "profile=(ProfilePoint(n=0, value=Fraction(1, 1), multiplicity=2), "
        "ProfilePoint(n=1, value=Fraction(1, 1), multiplicity=1)), "
        "convention=<Convention.SIGN_CORRECTED: 'sign-corrected'>)")
    assert repr(Option("--series", required=True, help="series JSON file, or -")) == (
        "Option(name='--series', convert=<class 'str'>, required=True, default=None, "
        "help='series JSON file, or -')")


def test_a_wrong_field_count_is_refused():
    for values in [(4, Fraction(1)), (4, Fraction(1), None, 0)]:
        with pytest.raises(TypeError, match=r"ProfilePoint\('n', 'value', 'multiplicity'\)"):
            ProfilePoint(*values)
    with pytest.raises(TypeError):
        Claim("id", "example 1", [1], [1], "confirmed", "", "extra")


def test_a_polynomial_stores_its_normal_form():
    # __new__ sets the field, and the constructor must not then store the
    # raw argument over it
    poly = ParamPoly([0, 1, 0])
    assert type(poly.coeffs) is tuple and poly.coeffs == (0, 1)
    assert all(type(c) is Fraction for c in poly.coeffs)


def test_a_series_holds_exact_scalars():
    # a Series built from ints holds Fractions, so its reciprocal stays exact
    inverse = series_reciprocal(Series((2, 1, 0)))
    assert inverse == Series((Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8)))
    assert all(type(c) is Fraction for c in inverse.coeffs)
    for coeffs in [(0.5, True), (1, 0.5), (True,), (Fraction(1), None)]:
        with pytest.raises(TypeError):
            Series(coeffs)


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
