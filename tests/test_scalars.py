"""Laurent scalar arithmetic: ring laws, units, evaluation, text format."""

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    _canonical_exps,
    phi_alpha_symbolic,
    rational_gallery,
    ref_add,
    ref_evaluate,
    ref_inverse,
    ref_mul,
    ref_neg,
    ref_pow,
    ref_str,
    ref_terms,
    reference_parse_scalar,
)
from hombrax.homlie import heisenberg_morphism, sl2_morphism
from hombrax.quantum import CompatibleAlpha, SupportPattern, bql, phi
from hombrax.scalars import (
    DenominatorDivisibleByP,
    MissingParameter,
    NotAMonomial,
    Scalar,
    ScalarParseError,
    ZeroAtNegativeExponent,
    as_scalar,
    parse_scalar,
    reduce_mod_p,
)
from hombrax.tensor import BasedSpace, LinearMap, as_op

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
    assert type(Scalar.rational(f).terms[0][1]) is Fraction
    assert Scalar.rational(Fraction(0)) is Scalar.zero()
    assert Scalar.rational(-4).terms == (((), Fraction(-4)),)


def test_rational_of_an_int_stores_what_its_fraction_stores():
    fields = ("_params", "_den", "_v", "_emax")
    for n in (0, 1, -1, 2 ** 70, -2 ** 70, True, np.int64(-3)):
        got, want = Scalar.rational(n), Scalar.rational(Fraction(int(n)))
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
        assert type(got._v) is int and (got is Scalar.zero()) == (n == 0)


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
    # Terms follow their exponent vectors from the first parameter on, which
    # is not the integer order of the packed keys (q is the lowest digit).
    assert str(L * Q ** -1 + Q * L ** -1) == "1*q^-1*l + 1*q*l^-1"
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


# -- Scalar against the reference term-tuple arithmetic of tests/helpers.py ----
#
# The operands are plain {exponent pairs: Fraction} dicts: Scalar(term_map)
# packs them, and each result is compared term by term, and as text, with the
# reference, which shares no code with the packed form.

term_maps = st.lists(terms, max_size=4).map(lambda ts: functools.reduce(
    ref_add, ({_canonical_exps(exps.items()): c} for exps, c in ts), {}))
points = st.dictionaries(names, st.sampled_from((0, 2, Fraction(-1, 3), Fraction(5, 2))))


def _same_terms(got, want):
    assert got.terms == want.terms
    assert all(type(c) is Fraction for _, c in got.terms)


def _matches(got: Scalar, want: dict) -> None:
    assert got.terms == ref_terms(want) and str(got) == ref_str(want)
    assert all(type(c) is Fraction for _, c in got.terms)
    # A parameter whose terms all cancelled is gone from the stored entry too.
    assert got.parameters() == {n for exps, c in want.items() if c for n, _ in exps}
    assert got == Scalar(want) and hash(got) == hash(Scalar(want))


def _same_outcome(got, want, check) -> None:
    """got() and want() return alike (compared by check) or raise the same
    exception type with the same message."""
    try:
        expected = want()
    except ValueError as exc:
        with pytest.raises(type(exc)) as info:
            got()
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return
    check(got(), expected)


@settings(deadline=None)
@given(term_maps, term_maps)
# The sum and the difference each lose a parameter to cancellation.
@example({(("q", 1),): Fraction(1), (): Fraction(1)}, {(("q", 1),): Fraction(-1)})
def test_fast_path_matches_term_map_path(x, y):
    sx, sy = Scalar(x), Scalar(y)
    _matches(sx, x)
    _matches(sx * sy, ref_mul(x, y))
    _matches(sx + sy, ref_add(x, y))
    _matches(sx - sy, ref_add(x, ref_neg(y)))
    _matches(-sx, ref_neg(x))
    assert (sx == sy) == (ref_terms(x) == ref_terms(y))


@settings(deadline=None)
@given(term_maps, st.integers(-3, 3), points)
# Stored in the other order, the terms must still be refused in text order.
@example({(("l", -1),): Fraction(1), (("q", -1),): Fraction(1)}, 1, {"q": 0, "l": 0})
def test_powers_inverses_and_values_match_the_reference(x, n, point):
    sx = Scalar(x)
    _same_outcome(lambda: sx ** n, lambda: ref_pow(x, n), _matches)
    _same_outcome(sx.inverse, lambda: ref_inverse(x), _matches)
    _same_outcome(lambda: sx.evaluate(point), lambda: ref_evaluate(x, point), _same_value)


def _same_value(got, want) -> None:
    assert got == want and type(got) is Fraction


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


# -- the one rational coercion -------------------------------------------------

def test_rational_coercion_refuses_floats_and_keeps_numpy_integers():
    # A float is not the rational it was written as (0.1 would be stored as
    # 3602879701896397/36028797018963968), so every entry point refuses it.
    V = BasedSpace.of_dim(2)
    calls = [lambda: LinearMap(V, [[0.1, 0], [0, 1]]),
             lambda: LinearMap.diagonal(V, [1, 0.5]),
             lambda: as_op([[0.5, 0], [0, 1]], (V,), (V,)),
             lambda: CompatibleAlpha(SupportPattern(2, {1: 1}), {1: 0.5}),
             lambda: heisenberg_morphism(1, 0, 0.5, 0, 0, 1),
             lambda: sl2_morphism(1, a=0.5),
             lambda: as_scalar("1"), lambda: Scalar.rational(0.1),
             lambda: Scalar.monomial(0.5, [("q", 1)]), lambda: Scalar({(("q", 1),): 0.5})]
    for call in calls:
        with pytest.raises(TypeError, match="rational number"):
            call()
    rows = np.array([[1, 0], [-2, 3]])
    assert LinearMap(V, rows) == LinearMap(V, [[1, 0], [-2, 3]])
    assert as_scalar(np.int64(-4)) == Scalar.rational(-4)
    assert as_scalar(Fraction(1, 3)) == Scalar.rational(Fraction(1, 3))
    assert as_scalar(Q) is Q


@pytest.mark.parametrize("bad", [0.1, "1/2"])
def test_evaluation_points_and_residues_refuse_floats_and_strings(bad):
    q = Scalar.param("q")
    calls = [lambda: q.evaluate({"q": bad}), lambda: phi().instantiate({"q": 2, "l": bad}),
             lambda: reduce_mod_p(bad, 7)]
    for call in calls:
        with pytest.raises(TypeError, match="rational number"):
            call()
    with pytest.raises(ValueError, match="not an odd prime"):
        reduce_mod_p(bad, 4)  # the modulus is checked first
    for good in (Fraction(1, 2), 3, np.int64(3)):
        x = Fraction(good)
        assert q.evaluate({"q": good}) == x
        assert phi().instantiate({"q": 2, "l": good}) == phi().instantiate({"q": 2, "l": x})
        assert reduce_mod_p(good, 7) == x.numerator * pow(x.denominator, -1, 7) % 7


def test_products_are_exact_or_refused_at_the_packing_limit():
    # Per parameter, a product's exponents are the sums of its factors'
    # extremes: exact below 2^15, refused at it, never wrapped into the next
    # parameter's digit.
    X = Scalar.param("x1")
    assert str(Q ** 30000 * X ** -30000) == "1*q^30000*x1^-30000"
    assert Q ** 20000 * Q ** -20000 == 1 and (Q ** 32767).terms == (((("q", 32767),), 1),)
    for call in (lambda: Q ** 20000 * Q ** 20000, lambda: Q ** 32768, lambda: Q ** -32768,
                 lambda: (Q ** 16384 + L) * (Q ** 16384 + 1), lambda: Q ** 10 ** 20,
                 lambda: Scalar.param("q", 32768), lambda: parse_scalar("q^-40000*l")):
        with pytest.raises(ValueError, match="outside the range of an operator entry"):
            call()


# -- the one check of a constructor's terms -----------------------------------

@pytest.mark.parametrize("call", [
    lambda: Scalar.monomial(1, [("q^2", 1)]),
    lambda: Scalar({(("a b", 1),): 1}),
    lambda: Scalar.param("x y"),
    lambda: Scalar.monomial(1, [("q", 1), ("1a", 0)]),  # a zero exponent is no excuse
    lambda: Scalar.monomial(0, [("q*l", 1)]),
    lambda: Scalar({((3, 1),): 1}),
], ids=["monomial", "term map", "param", "zero exponent", "zero coefficient", "not a str"])
def test_constructors_refuse_names_that_are_not_identifiers(call):
    # "q^2" would be stored as a parameter of that name, printed as q^2 and
    # read back from its text as q squared.
    with pytest.raises(ScalarParseError, match="bad parameter name"):
        call()


def test_exponents_are_read_as_integers():
    # A numpy exponent is read as an int: packed as an int64, the fifth
    # parameter's digit (shifted by 64 bits) would vanish.
    a, b, c, d, x = map(Scalar.param, "abcdx")
    s = Scalar.monomial(1, [(n, np.int64(1)) for n in "abcdx"])
    assert s == a * b * c * d * x and str(s) == "1*a*b*c*d*x"
    assert Scalar.param("q", np.int32(-2)) == Q ** -2
    assert Scalar({(("q", np.int64(3)),): 2}) == 2 * Q ** 3
    assert all(e.__class__ is int for exps, _ in s.terms for _, e in exps)
    for call in (lambda: Scalar.monomial(1, [("q", 1.0)]), lambda: Scalar.param("q", 0.0),
                 lambda: Scalar({(("q", 2.5),): 1}), lambda: Scalar.param("q", "2")):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("tok", ["1.25", "-1.25", ".5", "1_0.2_5e-1_0", "3E2", "-7e-3",
                                 "0.000", "1.", "12e0", "-0.5e1"])
def test_decimal_and_exponent_tokens_read_as_fraction_reads_them(tok):
    assert parse_scalar(tok) == Scalar.rational(Fraction(tok))
    assert parse_scalar(f"{tok}*q") == Scalar.monomial(Fraction(tok), [("q", 1)])


def test_numpy_integer_values_are_read_as_ints():
    # Fraction(np.int64(x)) keeps numpy ints as its parts, whose products
    # wrap at 2^63: q^3 at 2^40 would not be 2^120.
    big = np.int64(2 ** 40)
    assert (Q ** 3).evaluate({"q": big}) == 2 ** 120
    assert phi().instantiate({"q": big, "l": 1}) == phi().instantiate({"q": 2 ** 40, "l": 1})
    assert Scalar.monomial(big, [("q", 1)]) * big == Scalar.monomial(2 ** 80, [("q", 1)])
    assert all(x.__class__ is int for x in (Scalar.rational(big)._v, Scalar.rational(big)._den))
