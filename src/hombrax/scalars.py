"""Exact coefficient arithmetic: multivariate Laurent polynomials over Q.

A ``Scalar`` is the coefficient every operator entry is read and written
as.  It is a finite sum of terms, each a reduced rational coefficient
attached to an integer exponent vector over named parameters (exponents may
be negative, so monomials are units).  The representation is canonical --
no zero coefficients are stored and terms are kept in a fixed order --
which makes equality structural and zero-testing exact.  That is the whole
point: operator identities are verified by checking that a residual has no
terms at all, with no tolerance anywhere.  A constant is the one-term
scalar with an empty exponent vector.

The gallery constructors and the text format build ``Scalar``s, but the
operator kernels of ``hombrax.tensor`` never multiply them: an operator
keeps its entries over one common denominator, a constant entry as an
``int`` and any other as a ``tensor.Laurent``, {packed exponent key: int
numerator}, the exponent vector packed over the operator's parameter order
(``param_order``, the order of this module's terms), so multiplying two
monomials adds two ints, with no sorting and no ``Fraction``.

The text format used in JSON exports writes a scalar as a sum of terms
``coef*name^exp*...`` with ``coef`` as ``num`` or ``num/den``, for example
``1*q^-1 + -1*q``.  ``parse_scalar`` round-trips the output of ``str()``.
"""

from __future__ import annotations

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


# A term's exponent vector: ((name, exp), ...) with nonzero exps, sorted by
# the canonical parameter order.
Exps = tuple[tuple[str, int], ...]


def _canonical_exps(pairs: Iterable[tuple[str, int]]) -> Exps:
    merged: dict[str, int] = {}
    for name, e in pairs:
        merged[name] = merged.get(name, 0) + e
    return tuple(sorted(((n, e) for n, e in merged.items() if e != 0),
                        key=lambda p: _param_key(p[0])))


def _sorted_terms(term_map: Mapping[Exps, Fraction]) -> tuple[tuple[Exps, Fraction], ...]:
    # Lexicographic on dense exponent vectors over the union of names.
    items = [(exps, coef) for exps, coef in term_map.items() if coef != 0]
    if len(items) <= 1:
        return tuple(items)
    names = param_order(n for exps, _ in items for n, _ in exps)
    pos = {n: i for i, n in enumerate(names)}

    def vec(exps: Exps) -> tuple[int, ...]:
        dense = [0] * len(names)
        for n, e in exps:
            dense[pos[n]] = e
        return tuple(dense)

    return tuple(sorted(items, key=lambda t: vec(t[0])))


class Scalar:
    """Immutable multivariate Laurent polynomial with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, term_map: Mapping[Exps, Fraction] | None = None):
        object.__setattr__(self, "_terms", _sorted_terms(term_map or {}))

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
        c = value if value.__class__ is Fraction else Fraction(value)
        return Scalar({(): c}) if c else _ZERO

    @staticmethod
    def param(name: str, exp: int = 1) -> "Scalar":
        if not name.isidentifier():
            raise ScalarParseError(f"bad parameter name {name!r}")
        return Scalar({_canonical_exps([(name, exp)]): Fraction(1)})

    @staticmethod
    def monomial(coef: RationalLike, pairs: Iterable[tuple[str, int]]) -> "Scalar":
        coef = Fraction(coef)
        if coef == 0:
            return _ZERO
        return Scalar({_canonical_exps(pairs): coef})

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Exps, Fraction], ...]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == _ONE._terms

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def is_rational(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and not self._terms[0][0])

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not a plain rational")
        return self._terms[0][1]

    def parameters(self) -> set[str]:
        return {n for exps, _ in self._terms for n, _ in exps}

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a:
            return other
        if not b:
            return self
        merged = dict(a)
        for exps, coef in b:
            merged[exps] = merged.get(exps, Fraction(0)) + coef
        out = Scalar(merged)
        return out if out._terms else _ZERO  # a sum that cancels is the shared zero

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar({exps: -coef for exps, coef in self._terms})

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
        if self is _ONE:
            return other
        if other is _ONE:
            return self
        a, b = self._terms, other._terms
        if not a or not b:
            return _ZERO
        if self.is_one():
            return other
        if other.is_one():
            return self
        out: dict[Exps, Fraction] = {}
        for e1, c1 in self._terms:
            for e2, c2 in other._terms:
                e = _canonical_exps(e1 + e2)
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Scalar(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = _ONE
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "Scalar":
        """Monomial inverse: only single-term scalars are units."""
        if len(self._terms) != 1:
            raise NotAMonomial(f"{self} has {len(self._terms)} terms, cannot invert")
        exps, coef = self._terms[0]
        return Scalar({tuple((n, -e) for n, e in exps): 1 / coef})

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, assignment: Mapping[str, RationalLike]) -> Fraction:
        """Exact rational value at a point covering every parameter."""
        values = {n: Fraction(v) for n, v in assignment.items()}
        missing = self.parameters() - values.keys()
        if missing:
            raise MissingParameter(f"no value for {sorted(missing)}")
        total = Fraction(0)
        for exps, coef in self._terms:
            term = coef
            for n, e in exps:
                v = values[n]
                if v == 0 and e < 0:
                    raise ZeroAtNegativeExponent(f"{n} = 0 with exponent {e}")
                term *= v ** e
            total += term
        return total

    def substitute(self, mapping: Mapping[str, "Scalar"]) -> "Scalar":
        """Replace parameters by scalars (Laurent: negative powers need monomials)."""
        out = _ZERO
        for exps, coef in self._terms:
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
        if not self._terms:
            return "0"
        parts = []
        for exps, coef in self._terms:
            factors = [str(coef.numerator) if coef.denominator == 1
                       else f"{coef.numerator}/{coef.denominator}"]
            for n, e in exps:
                factors.append(n if e == 1 else f"{n}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    @staticmethod
    def parse(text: str) -> "Scalar":
        return parse_scalar(text)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"Scalar({self})"


_ZERO = Scalar()
_ONE = Scalar({(): Fraction(1)})


def _coerce(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.rational(x)
    return NotImplemented


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
    it), and a term is added into the total only when its exponents repeat
    those of an earlier term, so a coefficient is one ``Fraction`` built
    once.  Raises ScalarParseError for text that is not in the format."""
    if not isinstance(text, str):
        raise ScalarParseError(f"scalar text must be a string, not {text!r}")
    text = text.strip()
    if not text:
        raise ScalarParseError("empty scalar text")
    total: dict[Exps, Fraction] = {}
    for part in text.split("+"):
        part = part.strip()
        if not part:
            raise ScalarParseError(f"empty term in {text!r}")
        coef = None
        pairs: list[tuple[str, int]] = []
        for i, tok in enumerate(part.split("*")):
            tok = tok.strip()
            try:
                x = _number(tok)
            except ScalarParseError:
                raise
            except ValueError:
                pass
            except ZeroDivisionError:
                raise ScalarParseError(f"zero denominator in {tok!r}") from None
            else:
                coef = x if coef is None else coef * x
                continue
            if i == 0 and tok and (tok[0].isdigit() or tok[0] in "+-"):
                raise ScalarParseError(f"bad coefficient {tok!r}")
            name, caret, exp = tok.partition("^")
            if not name.isidentifier():
                raise ScalarParseError(f"bad factor {tok!r} in {text!r}")
            try:
                e = int(exp) if caret else 1
            except ValueError:
                raise ScalarParseError(f"bad exponent in {tok!r}") from None
            pairs.append((name, e))
        if coef is None:
            coef = Fraction(1)
        elif not coef:
            continue
        exps = _canonical_exps(pairs) if pairs else ()
        total[exps] = total[exps] + coef if exps in total else coef
    return Scalar(total)


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
    x = Fraction(x)
    if x.denominator % p == 0:
        raise DenominatorDivisibleByP(f"{x} has denominator divisible by {p}")
    return x.numerator * pow(x.denominator, -1, p) % p
