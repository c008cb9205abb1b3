"""Exact coefficient arithmetic: multivariate Laurent polynomials over Q.

Every coefficient, of a ``Scalar`` or of an operator entry, is held in one
form: ``(params, den, v)``, the polynomial v / den.  params is the parameter
order, the names that occur, sorted as ``param_order`` sorts them; v is an
``int`` when params is empty and otherwise a ``Laurent``, {packed exponent
key: int numerator}, its exponent vectors over params packed in balanced
base-2^16 digits, so multiplying two monomials adds two ints.  The form is
canonical (den > 0, the gcd of den and every numerator is 1, no zero
coefficient), which makes equality structural and zero-testing exact: an
identity holds when its residual has no terms at all, with no tolerance
anywhere.  Exponents may be negative, so monomials are units; every one has
|e| < 2^15 (``EXP_LIMIT``), and building a wider one raises ValueError.

A ``Scalar`` is one such entry; a ``hombrax.tensor`` operator keeps all of
its entries over one order and one denominator.  Scalar ``+``, ``-``, ``*``,
``**`` and ``inverse`` repack both operands over the union of their orders
and use ``Laurent``'s one product and one sum, which the kernels use too;
``Scalar.evaluate`` and ``TensorOp.instantiate`` share ``_evaluate``.

The text format writes a scalar as a sum of terms ``coef*name^exp*...``,
``coef`` as ``num`` or ``num/den``, in the order of ``.terms`` (exponent
vectors compared from the first parameter), for example ``1*q^-1 + -1*q``.
``parse_scalar`` round-trips the output of ``str()``.
"""

from __future__ import annotations

import math
import numbers
from fractions import _RATIONAL_FORMAT, Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

RationalLike = Union[int, Fraction]

# Canonical parameter order: the conventional names first, anything else
# alphabetically after them.
_PARAM_RANK = {"q": 0, "l": 1, "a": 2, "b": 3, "c": 4, "d": 5}


def _param_key(name: str) -> tuple[int, str]:
    return (_PARAM_RANK.get(name, len(_PARAM_RANK)), name)


def param_order(names: Iterable[str]) -> tuple[str, ...]:
    """Parameter names in the canonical order of exponent vectors."""
    return tuple(sorted(set(names), key=_param_key))


class NotAMonomial(ValueError):
    """Inversion requested for a scalar that is not a single term."""


class MissingParameter(ValueError):
    """Evaluation assignment does not cover a parameter of the scalar."""


class ZeroAtNegativeExponent(ValueError):
    """Evaluation would divide by zero at a negatively-exponented parameter."""


class DenominatorDivisibleByP(ValueError):
    """Rational cannot be reduced mod p: denominator divisible by p."""


class ScalarParseError(ValueError):
    """Text is not in the scalar term format."""


# An exponent vector (e_0, ..., e_{P-1}) over a parameter order is packed
# into the one int key sum(e_i * 2^(EXP_BITS * i)): balanced base-2^EXP_BITS
# digits, each |e_i| < EXP_LIMIT.  Within that range the packing is
# one-to-one and adding keys adds exponent vectors.
EXP_BITS = 16
EXP_LIMIT = 1 << (EXP_BITS - 1)
_DIGIT_MASK = (1 << EXP_BITS) - 1


def key_digits(key: int, count: int) -> list[int]:
    """The count signed exponents packed in key, lowest parameter first."""
    out = []
    for _ in range(count):
        d = key & _DIGIT_MASK
        if d >= EXP_LIMIT:
            d -= 1 << EXP_BITS
        out.append(d)
        key = (key - d) >> EXP_BITS
    return out


def _range_error(name: str, e: int) -> ValueError:
    return ValueError(f"exponent {e} of {name} is outside the range of an operator entry, "
                      f"|exponent| < {EXP_LIMIT}")


class Laurent(dict):
    """A Laurent polynomial entry: {packed exponent key: int numerator}, over
    a parameter order and a denominator kept beside it.  No zero coefficient
    is kept and it is treated as immutable; a constant is a plain int
    instead.  ``*`` and ``+`` take another Laurent or an int, on either side.
    """

    __slots__ = ()

    def __mul__(self, other):
        if other.__class__ is int:
            if other == 1:
                return self
            return Laurent({k: c * other for k, c in self.items()}) if other else 0
        out = Laurent()
        for k1, c1 in self.items():
            for k2, c2 in other.items():
                k = k1 + k2
                if k in out:
                    c = out[k] + c1 * c2
                    if c:
                        out[k] = c
                    else:
                        del out[k]
                else:
                    out[k] = c1 * c2
        return out

    __rmul__ = __mul__

    def __add__(self, other):
        if other.__class__ is int:
            if not other:
                return self
            other = {0: other}
        out = Laurent(self)
        for k, c in other.items():
            if k in out:
                c += out[k]
                if not c:
                    del out[k]
                    continue
            out[k] = c
        return out

    __radd__ = __add__

    def __neg__(self):
        return Laurent({k: -c for k, c in self.items()})

    def __hash__(self):
        return hash(frozenset(self.items()))


def _remap(old: tuple[str, ...], new: tuple[str, ...], keys) -> dict[int, int]:
    """Keys over the parameter order old, repacked over the order new, which
    holds every parameter that occurs in them."""
    shift = {n: EXP_BITS * i for i, n in enumerate(new)}
    shifts = [shift.get(n, 0) for n in old]
    if shifts == list(range(shifts[0], shifts[0] + EXP_BITS * len(old), EXP_BITS)):
        return {k: k << shifts[0] for k in keys}  # a block of new: every digit moves alike
    return {k: sum(d << s for d, s in zip(key_digits(k, len(old)), shifts)) for k in keys}


def _union(orders: set[tuple[str, ...]]) -> tuple[str, ...]:
    """The parameter order of an operation on operands with these orders."""
    return orders.pop() if len(orders) == 1 else param_order(n for o in orders for n in o)


def _repacked(v, old: tuple[str, ...], new: tuple[str, ...]):
    """An entry packed over old, repacked over new, a superset of old."""
    if v.__class__ is int or old == new[:len(old)]:  # a prefix packs every key alike
        return v
    remap = _remap(old, new, v)
    return Laurent({remap[k]: c for k, c in v.items()})


def _occurring(params: tuple[str, ...], keys) -> tuple[tuple[str, ...], dict | None, int]:
    """For keys packed over params: the parameters that occur in them, the
    map repacking the keys over those (None if every one occurs) and the
    largest |exponent|."""
    digits = [key_digits(key, len(params)) for key in keys]
    used = [max(map(abs, col)) for col in zip(*digits)] or [0] * len(params)
    kept = tuple(n for n, e in zip(params, used) if e)
    return kept, None if kept == params else _remap(params, kept, keys), max(used, default=0)


def _entry(v, g: int, remap: dict | None):
    """An entry divided by g, its keys renamed by remap; a constant as an int."""
    if v.__class__ is int:
        return v // g
    if remap is not None:
        v = {remap[k]: c for k, c in v.items()}
    if len(v) == 1 and 0 in v:
        return v[0] // g
    return Laurent({k: c // g for k, c in v.items()})


def _check_product(params: tuple[str, ...], a: Laurent, b: Laurent) -> None:
    """Refuse a product of a and b, packed over params, with an exponent
    outside the packing.  Per parameter, the exponents of a product reach
    exactly the sums of the factors' extremes: the extreme terms of a
    product of polynomials cannot cancel."""
    bounds = [[(min(col), max(col)) for col in zip(*(key_digits(k, len(params)) for k in v))]
              for v in (a, b)]
    for n, (lo1, hi1), (lo2, hi2) in zip(params, *bounds):
        for e in (lo1 + lo2, hi1 + hi2):
            if not -EXP_LIMIT < e < EXP_LIMIT:
                raise _range_error(n, e)


# A term's exponent vector in .terms: ((name, exp), ...), nonzero exps, in order.
Exps = tuple[tuple[str, int], ...]


class Scalar:
    """Immutable multivariate Laurent polynomial over Q, one stored entry
    (params, den, v) with its largest |exponent|.

    ``Scalar(term_map)`` builds one from {exponent pairs: coefficient}."""

    __slots__ = ("_params", "_den", "_v", "_emax")

    def __new__(cls, term_map: Mapping[Exps, RationalLike] | None = None):
        return _from_terms(term_map.items() if term_map else ())

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    @staticmethod
    def rational(value: RationalLike) -> "Scalar":
        if value.__class__ is int:  # bool and numpy integers go through _rational
            return _make((), 1, value, 0) if value else _ZERO
        c = _rational(value)
        return _make((), int(c.denominator), int(c.numerator), 0) if c else _ZERO

    @staticmethod
    def param(name: str, exp: int = 1) -> "Scalar":
        if not name.isidentifier():
            raise ScalarParseError(f"bad parameter name {name!r}")
        return _from_terms([(((name, exp),), 1)])

    @staticmethod
    def monomial(coef: RationalLike, pairs: Iterable[tuple[str, int]]) -> "Scalar":
        return _from_terms([(pairs, coef)])

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Exps, Fraction], ...]:
        """(exponent pairs, coefficient) per term, built from the stored entry."""
        params, den, v = self._params, self._den, self._v
        if v.__class__ is int:
            return (((), Fraction(v, den)),) if v else ()
        return tuple((tuple((n, d) for n, d in zip(params, digits) if d), Fraction(c, den))
                     for digits, c in _in_order(params, v))

    def is_zero(self) -> bool:
        return not self._v

    def is_one(self) -> bool:
        return self._v == 1 and self._den == 1

    def is_monomial(self) -> bool:
        v = self._v
        return v != 0 if v.__class__ is int else len(v) == 1

    def is_rational(self) -> bool:
        return not self._params

    def constant_value(self) -> Fraction:
        if self._params:
            raise ValueError(f"scalar {self} is not a plain rational")
        return Fraction(self._v, self._den)

    def parameters(self) -> set[str]:
        return set(self._params)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._v:
            return self
        if not self._v:
            return other
        params = _union({self._params, other._params})
        da, db = self._den, other._den
        den = da * db // math.gcd(da, db)
        a = _repacked(self._v, self._params, params) * (den // da)
        b = _repacked(other._v, other._params, params) * (den // db)
        v = a + b
        # A key that cancelled is a key of both operands.  If none did, every
        # parameter of either operand still occurs and no exponent was lost.
        kept = v.__class__ is not int and v.keys() >= (b if a.__class__ is int else a).keys()
        return _view(params, den, v, max(self._emax, other._emax) if kept else None)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _make(self._params, self._den, -self._v, self._emax)

    def __sub__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Scalar":
        return _coerce(other) - self

    def __mul__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        params = _union({self._params, other._params})
        a = _repacked(self._v, self._params, params)
        b = _repacked(other._v, other._params, params)
        if self._emax + other._emax >= EXP_LIMIT:
            _check_product(params, a, b)
        return _view(params, self._den * other._den, a * b)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out, base = _ONE, self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def inverse(self) -> "Scalar":
        """Monomial inverse: only single-term scalars are units."""
        v = self._v
        if not self.is_monomial():
            raise NotAMonomial(f"{self} has {len(v) if v else 0} terms, cannot invert")
        if v.__class__ is int:
            return _view((), v, self._den)
        (k, c), = v.items()
        return _view(self._params, c, Laurent({-k: self._den}))

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, assignment: Mapping[str, RationalLike]) -> Fraction:
        """Exact rational value at a point covering every parameter."""
        values = {n: _rational(v) for n, v in assignment.items()}
        v = self._v
        if v.__class__ is not int:
            v = _evaluate(self._params, v, values, {})
        return Fraction(v, self._den)

    def substitute(self, mapping: Mapping[str, "Scalar"]) -> "Scalar":
        """Replace parameters by scalars (Laurent: negative powers need monomials)."""
        out = _ZERO
        for exps, coef in self.terms:
            term = Scalar.rational(coef)
            for n, e in exps:
                base = mapping.get(n)
                if base is None:
                    base = Scalar.param(n)
                term = term * base ** e
            out = out + term
        return out

    # -- text format ---------------------------------------------------------

    def __str__(self) -> str:
        return _text(self._params, self._den, self._v)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self._v, self._den, self._params) == (other._v, other._den, other._params)

    def __hash__(self) -> int:
        return hash((self._params, self._den, self._v))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _make(params: tuple[str, ...], den: int, v, emax: int) -> Scalar:
    """The one place a Scalar object is made: the canonical entry (params,
    den, v) with its largest |exponent| emax, stored as given."""
    s = object.__new__(Scalar)
    _set_params(s, params)
    _set_den(s, den)
    _set_v(s, v)
    _set_emax(s, emax)
    return s


# The slot setters, which Scalar.__setattr__ refuses to stand in for.
_set_params, _set_den, _set_v, _set_emax = (getattr(Scalar, n).__set__ for n in Scalar.__slots__)


def _view(params: tuple[str, ...], den: int, v, emax: int | None = None) -> Scalar:
    """The Scalar v / den (den != 0) of an entry v, an int or a Laurent over
    a nonempty params, made canonical.  A caller that passes emax vouches
    that every parameter of params occurs in v and that emax is its largest
    |exponent|.  ``.columns``, ``entry`` and ``dense()`` wrap an operator's
    stored entries with it."""
    if not v:
        return _ZERO
    if v.__class__ is int:
        params, remap, emax, g = (), None, 0, math.gcd(v, den)
    else:
        remap = None
        if emax is None:
            params, remap, emax = _occurring(params, v)
        g = math.gcd(den, *v.values())
    if den < 0:
        g = -g
    if g != 1 or remap is not None:
        v = _entry(v, g, remap)
    return _make(params, den // g, v, emax)


_ZERO = _make((), 1, 0, 0)
_ONE = _make((), 1, 1, 0)


def _rational(x) -> Fraction:
    """x as a Fraction, for a rational number (a numpy integer too).
    TypeError for anything else, a float included: a float is not the
    rational it was written as."""
    if x.__class__ is Fraction:
        return x
    if isinstance(x, (int, numbers.Rational)):  # int first: the ABC check is slow
        return Fraction(x)
    raise TypeError(f"a scalar must be a Scalar or a rational number, not {x!r}")


def _coerce(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.rational(x)
    return NotImplemented


def as_scalar(x) -> Scalar:
    """x as a Scalar: a Scalar as it is, a rational number exactly."""
    return x if isinstance(x, Scalar) else Scalar.rational(x)


def _from_terms(items: Iterable[tuple[Iterable[tuple[str, int]], RationalLike]]) -> Scalar:
    """The Scalar of (exponent pairs, coefficient) terms: repeated names and
    repeated exponent vectors add up.  ValueError for an exponent outside
    the packing, the first in the order of .terms and then of parameters."""
    total: dict[frozenset, Fraction] = {}
    for pairs, c in items:
        exps: dict[str, int] = {}
        for n, e in pairs:
            exps[n] = exps.get(n, 0) + e
        key = frozenset((n, e) for n, e in exps.items() if e)
        c = _rational(c)
        total[key] = total[key] + c if key in total else c
    terms = [(dict(key), c) for key, c in total.items() if c]
    names = {n for exps, _ in terms for n in exps}
    if not names:  # a rational: one term or none
        return Scalar.rational(terms[0][1] if terms else 0)
    params = param_order(names)
    bad = [([exps.get(m, 0) for m in params], _param_key(n), n, e)
           for exps, _ in terms for n, e in exps.items() if not -EXP_LIMIT < e < EXP_LIMIT]
    if bad:
        raise _range_error(*min(bad)[2:])
    shift = {n: EXP_BITS * i for i, n in enumerate(params)}
    den = math.lcm(*[int(c.denominator) for _, c in terms])
    v = Laurent({sum(e << shift[n] for n, e in exps.items()):
                 int(c.numerator) * (den // int(c.denominator)) for exps, c in terms})
    # The keys are distinct and every parameter occurs: _view need not decode them.
    return _view(params, den, v, max(abs(e) for exps, _ in terms for e in exps.values()))


def _in_order(params: tuple[str, ...], v: Laurent) -> list[tuple[list[int], int]]:
    """(exponent digits, numerator) per term of v, sorted by exponent vector
    with the first parameter most significant: the order of .terms and
    str.  Integer order of the keys is not that order."""
    return sorted((key_digits(k, len(params)), c) for k, c in v.items())


def _text(params: tuple[str, ...], den: int, v) -> str:
    """The scalar text of the entry v / den over params: for an int, the
    text of str(Fraction(v, den)), from one gcd and two divisions."""
    if v.__class__ is int:
        g = math.gcd(v, den)
        return str(v // g) if g == den else f"{v // g}/{den // g}"
    parts = []
    for digits, c in _in_order(params, v):
        g = math.gcd(c, den)
        factors = [str(c // g) if g == den else f"{c // g}/{den // g}"]
        for n, e in zip(params, digits):
            if e:
                factors.append(n if e == 1 else f"{n}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def _evaluate(params: tuple[str, ...], v: Laurent, values: Mapping[str, Fraction],
              monomials: dict[int, Fraction]) -> Fraction:
    """The numerator sum of a Laurent entry at a point, each monomial's value
    kept in monomials, a memo shared by the entries of one operator: the one
    evaluator of Scalar.evaluate and TensorOp.instantiate."""
    total = 0
    for k, c in v.items():
        x = monomials.get(k)
        if x is None:
            x = Fraction(1)
            for n, e in zip(params, key_digits(k, len(params))):
                if e:
                    if values.get(n, 0) == 0 and (e < 0 or n not in values):
                        _refuse_evaluation(params, v, values)
                    x *= values[n] ** e
            monomials[k] = x
        total += c * x
    return total


def _refuse_evaluation(params: tuple[str, ...], v: Laurent, values: Mapping[str, Fraction]):
    """Raise for an entry that cannot be evaluated: MissingParameter for every
    missing parameter first, then ZeroAtNegativeExponent at the first term,
    in the order of .terms, with a zero parameter at a negative exponent."""
    terms = [digits for digits, _ in _in_order(params, v)]
    missing = {n for digits in terms for n, d in zip(params, digits) if d} - values.keys()
    if missing:
        raise MissingParameter(f"no value for {sorted(missing)}")
    n, e = next((n, e) for digits in terms for n, e in zip(params, digits)
                if e < 0 and values[n] == 0)
    raise ZeroAtNegativeExponent(f"{n} = 0 with exponent {e}")


# The most decimal digits a number in scalar text may spell out, the limit
# int() puts on a plain literal: "1e4299" is read, "1e4300" and "1e-4300"
# are refused before 10**4300 is formed.
_MAX_DIGITS = 4300


def _number(tok: str) -> Fraction:
    """The rational a coefficient token denotes, in the grammar of
    ``Fraction(tok)`` (matched with its own pattern): ValueError if tok is
    not a number, ZeroDivisionError for a zero denominator, and
    ScalarParseError for a number whose numerator or denominator, written
    out in full (the digits of the mantissa, then the power of ten),
    exceeds _MAX_DIGITS."""
    m = _RATIONAL_FORMAT.match(tok)
    if m is None:
        raise ValueError(f"not a number: {tok!r}")
    sign, num, denom, decimal, exp = m.group("sign", "num", "denom", "decimal", "exp")
    n, d = int(num or "0"), 1
    if denom:
        d = int(denom)
    elif decimal or exp:
        decimal = (decimal or "").replace("_", "")
        n = n * 10 ** len(decimal) + int(decimal or "0")
        shift = (int(exp) if exp else 0) - len(decimal)
        digits = len(num.replace("_", "")) + len(decimal)
        if max(digits + shift, digits, 1 - shift) > _MAX_DIGITS:
            raise ScalarParseError(f"{tok!r} spells out a number of more than "
                                   f"{_MAX_DIGITS} digits")
        if shift >= 0:
            n *= 10 ** shift
        else:
            d = 10 ** -shift
    if sign == "-":
        n = -n
    return Fraction(n) if d == 1 else Fraction(n, d)


def parse_scalar(text: str) -> Scalar:
    """Parse the scalar text format; inverse of ``str(scalar)``.

    A term's first number is its coefficient (any further one multiplies
    it); the terms are packed once, by ``_from_terms``.  Raises
    ScalarParseError for text that is not in the format, and ValueError for
    an exponent outside the packing."""
    if not isinstance(text, str):
        raise ScalarParseError(f"scalar text must be a string, not {text!r}")
    text = text.strip()
    if not text:
        raise ScalarParseError("empty scalar text")
    terms = []
    for part in text.split("+"):
        part = part.strip()
        if not part:
            raise ScalarParseError(f"empty term in {text!r}")
        coef, pairs = None, []
        for i, tok in enumerate(part.split("*")):
            tok = tok.strip()
            # An identifier never spells a number, so a factor is tried as a
            # number only when its name part is not one.
            name, caret, exp = tok.partition("^")
            if name.isidentifier():
                try:
                    e = int(exp) if caret else 1
                except ValueError:
                    raise ScalarParseError(f"bad exponent in {tok!r}") from None
                pairs.append((name, e))
                continue
            try:
                x = _number(tok)
            except ScalarParseError:
                raise
            except ValueError:
                if i == 0 and tok and (tok[0].isdigit() or tok[0] in "+-"):
                    raise ScalarParseError(f"bad coefficient {tok!r}") from None
                raise ScalarParseError(f"bad factor {tok!r} in {text!r}") from None
            except ZeroDivisionError:
                raise ScalarParseError(f"zero denominator in {tok!r}") from None
            coef = x if coef is None else coef * x
        terms.append((pairs, 1 if coef is None else coef))
    return _from_terms(terms)


# ---------------------------------------------------------------------------
# Reduction mod p for the exhaustive finite-field oracles.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def reduce_mod_p(x: RationalLike, p: int) -> int:
    """Reduce an exact rational mod p via the modular inverse of its denominator."""
    # The classified families divide by 2 and 4, so p = 2 is excluded.
    if not is_odd_prime(p):
        raise ValueError(f"modulus {p} is not an odd prime")
    x = _rational(x)
    if x.denominator % p == 0:
        raise DenominatorDivisibleByP(f"{x} has denominator divisible by {p}")
    return x.numerator * pow(x.denominator, -1, p) % p
