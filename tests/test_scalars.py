"""Laurent scalar arithmetic: ring laws, units, evaluation, text format."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import phi_alpha_symbolic, rational_gallery, reference_parse_scalar
from hombrax.quantum import bql, phi
from hombrax.scalars import (
    DenominatorDivisibleByP,
    MissingParameter,
    NotAMonomial,
    Scalar,
    ScalarParseError,
    ZeroAtNegativeExponent,
    parse_scalar,
    reduce_mod_p,
)

Q = Scalar.param("q")
L = Scalar.param("l")


def test_difference_of_squares():
    assert (Q - Q ** -1) * (Q + Q ** -1) == Q ** 2 - Q ** -2


def test_additive_inverse_is_structurally_zero():
    x = Q * L - 3 * Q ** -2 + Scalar.rational(Fraction(5, 7))
    assert (x + (-x)).is_zero()
    assert (x + (-x)).terms == ()


def test_rational_keeps_a_fraction_as_it_is():
    f = Fraction(2 ** 600 + 1, 3 ** 300)
    assert Scalar.rational(f).terms == (((), f),)
    assert Scalar.rational(f).terms[0][1] is f
    assert Scalar.rational(Fraction(0)) is Scalar.zero()
    assert Scalar.rational(-4).terms == (((), Fraction(-4)),)


def test_exponent_cancellation():
    assert Q ** -1 * (Q * L) == L


def test_monomial_inverse():
    assert (Q * L ** 2).inverse() == Q ** -1 * L ** -2
    assert (Scalar.rational(Fraction(3, 2)) * Q).inverse() == \
        Scalar.rational(Fraction(2, 3)) * Q ** -1
    with pytest.raises(NotAMonomial):
        (Q + 1).inverse()


def test_eval_examples():
    assert (Q - Q ** -1).evaluate({"q": 2}) == Fraction(3, 2)
    assert (Q * L).evaluate({"q": 2, "l": Fraction(1, 2)}) == 1
    with pytest.raises(ZeroAtNegativeExponent):
        (Q ** -1).evaluate({"q": 0})
    with pytest.raises(MissingParameter):
        (Q * L).evaluate({"q": 2})


def test_reduce_mod_p():
    assert reduce_mod_p(Fraction(1, 2), 5) == 3
    assert reduce_mod_p(-1, 5) == 4
    assert reduce_mod_p(Fraction(-3, 7), 11) == 9
    assert type(reduce_mod_p(Fraction(1, 2), 5)) is int
    with pytest.raises(DenominatorDivisibleByP):
        reduce_mod_p(Fraction(1, 5), 5)


def test_modulus_must_be_odd_prime():
    for bad in (2, 4, 9, 1):
        with pytest.raises(ValueError):
            reduce_mod_p(1, bad)


def test_text_format_examples():
    assert str(Q ** -1 - Q) == "1*q^-1 + -1*q"
    assert str(Scalar.zero()) == "0"
    assert str(L) == "1*l"
    assert parse_scalar("1*q^-1 + -1*q^1") == Q ** -1 - Q
    assert parse_scalar("3/2*q") == Scalar.rational(Fraction(3, 2)) * Q
    assert parse_scalar("a") == Scalar.param("a")
    assert parse_scalar("0").is_zero()


@pytest.mark.parametrize("text", ["q^", "1*q^", "q^ + 1", "2*q*l^"])
def test_parse_rejects_empty_exponent(text):
    with pytest.raises(ScalarParseError):
        parse_scalar(text)


def test_constant_results_are_canonical():
    half = Scalar.rational(Fraction(1, 2))
    assert Scalar.rational(0) is Scalar.zero()
    assert (half - half) is Scalar.zero()
    assert (half * 0) is Scalar.zero()
    assert (half * 2).terms == Scalar.one().terms
    assert (-half).terms == (((), Fraction(-1, 2)),)


# -- randomized properties ---------------------------------------------------

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
names = st.sampled_from(["q", "l", "a"])
terms = st.tuples(
    st.dictionaries(names, st.integers(min_value=-3, max_value=3), max_size=3),
    fractions)
scalars = st.lists(terms, max_size=4).map(
    lambda ts: sum((Scalar.monomial(c, exps.items()) for exps, c in ts if c),
                   Scalar.zero()))


@settings(deadline=None)
@given(scalars, scalars, scalars)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + Scalar.zero() == x
    assert x * Scalar.one() == x
    assert (x * Scalar.zero()).is_zero()


@settings(deadline=None)
@given(scalars, scalars,
       st.fractions(min_value=1, max_value=9, max_denominator=5),
       st.fractions(min_value=1, max_value=9, max_denominator=5),
       fractions)
def test_eval_is_ring_homomorphism(x, y, qv, lv, av):
    point = {"q": qv, "l": lv, "a": av}
    try:
        ex, ey = x.evaluate(point), y.evaluate(point)
    except ZeroAtNegativeExponent:
        return
    assert (x * y).evaluate(point) == ex * ey
    assert (x + y).evaluate(point) == ex + ey


@settings(deadline=None)
@given(fractions.filter(lambda f: f != 0),
       st.dictionaries(names, st.integers(min_value=-4, max_value=4), max_size=3))
def test_monomial_inverse_property(coef, exps):
    m = Scalar.monomial(coef, exps.items())
    assert (m * m.inverse()).is_one()


@settings(deadline=None)
@given(scalars)
def test_text_round_trip(x):
    assert parse_scalar(str(x)) == x


# The general term-map path: every result goes through Scalar(term_map).
def _term_map_mul(x, y):
    out = {}
    for e1, c1 in x.terms:
        for e2, c2 in y.terms:
            e = Scalar.monomial(1, e1 + e2).terms[0][0]
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return Scalar(out)


def _term_map_add(x, y):
    out = dict(x.terms)
    for e, c in y.terms:
        out[e] = out.get(e, Fraction(0)) + c
    return Scalar(out)


def _term_map_neg(x):
    return Scalar({e: -c for e, c in x.terms})


constants = fractions.map(Scalar.rational)
mixed = st.one_of(constants, scalars)


def _same_terms(got, want):
    assert got.terms == want.terms
    assert all(type(c) is Fraction for _, c in got.terms)


@settings(deadline=None)
@given(mixed, mixed)
def test_fast_path_matches_term_map_path(x, y):
    _same_terms(x * y, _term_map_mul(x, y))
    _same_terms(x + y, _term_map_add(x, y))
    _same_terms(x - y, _term_map_add(x, _term_map_neg(y)))
    _same_terms(-x, _term_map_neg(x))


# -- the parser against its reference copy -------------------------------------

def _parses_as_reference(text) -> None:
    """parse_scalar gives the reference parser's Scalar, with Fraction
    coefficients, or raises its exception type with its message."""
    try:
        want = reference_parse_scalar(text)
    except Exception as exc:  # noqa: BLE001 - the reference's own exception
        with pytest.raises(type(exc)) as info:
            parse_scalar(text)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return
    got = parse_scalar(text)
    assert got == want
    _same_terms(got, want)


def _gallery_texts() -> list:
    ops = list(rational_gallery().values()) + [phi(), bql(3), phi_alpha_symbolic()[0]]
    return sorted({str(s) for op in ops for col in op.columns for _, s in col})


def test_parser_matches_reference_on_gallery_entries():
    texts = _gallery_texts()
    assert len(texts) > 50 and any("/" in t for t in texts) and any("^-" in t for t in texts)
    for text in texts:
        _parses_as_reference(text)


# The texts of the rejection tests, and of the hostile JSON and CLI inputs.
_REJECTED = ["q^", "1*q^", "q^ + 1", "2*q*l^", "1/0", "", "  ", "1 +", "+ q", "q + + l",
             "3x", "-q", "q*-", "2*q^1.5", "q^^2", "1//2", "2*1/0", "x y", "1*q^ab"]


@pytest.mark.parametrize("text", ["q + q", "2*3/4*q", "1/2 + -1/2", " 2 ", "-0", "1.5",
                                  "1e2", "1_000", "q*2", "q^-1 + -1*q^-1", "0*q + 0",
                                  "1*q^99999999999999999999", "+3/6*l^2*q", "2.5E-1*a*a^-1"]
                         + _REJECTED)
def test_parser_matches_reference_on_listed_texts(text):
    _parses_as_reference(text)


@pytest.mark.parametrize("value", [None, 5, 1.5, ["1"]])
def test_parser_matches_reference_on_non_strings(value):
    _parses_as_reference(value)


_TOKENS = st.sampled_from(["0", "1", "-1", "+2", "3/6", "-2/3", "1/0", "0/5", "1.5", "-.5",
                           "1e2", "2E-1", "1_0", "q", "l", "a", "q^-1", "l^2", "q^0", "x1",
                           "q^", "^2", "", "1 / 2", "1e", "nan", "1x"])


@settings(deadline=None, max_examples=300)
@given(st.lists(st.lists(st.tuples(st.sampled_from(["", " "]), _TOKENS), min_size=1,
                         max_size=4), min_size=1, max_size=4),
       st.sampled_from(["+", " + "]))
def test_parser_matches_reference_on_sums_of_products(terms, plus):
    _parses_as_reference(plus.join("*".join(pad + tok for pad, tok in factors)
                                   for factors in terms))


# -- the digit limit of a number -----------------------------------------------

@pytest.mark.parametrize("text", ["1e4300", "1e-4300", "-1E4300", "1.5e4300", "10e4299",
                                  ".1e-4299", "2*1e-4300*q", "q*1e4300", "1 + 1e4300"])
def test_parse_refuses_a_number_past_the_digit_limit(text):
    with pytest.raises(ScalarParseError, match="more than 4300 digits"):
        parse_scalar(text)


def test_parse_reads_a_number_at_the_digit_limit():
    assert parse_scalar("1e4299") == Scalar.rational(10 ** 4299)
    assert parse_scalar("-1e-4299*q") == Scalar.monomial(Fraction(-1, 10 ** 4299), [("q", 1)])
    assert parse_scalar("1.5e4299") == Scalar.rational(15 * 10 ** 4298)
    assert parse_scalar("1e2") == Scalar.rational(100)
    assert parse_scalar("1.5") == Scalar.rational(Fraction(3, 2))
