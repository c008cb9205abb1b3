"""Sparse linear maps between tensor words of based vector spaces.

A *word* is an ordered tuple of ``BasedSpace``s, read as their tensor
product; the empty word is the ground field, of dimension 1.  A ``TensorOp``
maps the word ``dom`` to the word ``cod`` (H (x) V -> V, say, or () -> H (x) H
for an element of H (x) H) and is stored column-by-column: for each basis
multi-index of the domain, the list of (row multi-index, scalar) pairs of
its image.  Operators are total (every basis column is present; zero
columns are empty), so zero-testing and equality are purely structural.
The square case, an operator on V^(tensor m), has ``dom == cod == (V,) * m``
and exposes ``.space`` (V) and ``.arity`` (m).

Multi-indices are encoded 0-based and row-major with the leftmost tensor
factor most significant: index(i_1, ..., i_m) = sum i_k * N^(m-k) over a
power of one space, and the mixed-radix analogue over a word.  This is the
conventional Kronecker-product layout, so a printed matrix maps directly
onto columns.

A linear self-map alpha of V is the case m = 1: an operator with
``dom == cod == (V,)``.  ``LinearMap(space, rows)`` is only its dense-rows
constructor (rows[k][i] is the e_k coefficient of alpha(e_i)); everything
else works on the operator through ``compose``, ``invert``, ``lift``,
``rebase`` and ``dense()``.

Columns are canonical: rows strictly increase, no entry is zero and every
row is in range.  ``TensorOp(space, arity, columns)`` is the one validating
entry for columns of an operator on V^(tensor m) (JSON, user code,
``LinearMap``) and ``as_op`` the one for structure constants given as a
grid.  Everything else (``compose``, ``tensor_product``, sums, scaling,
``lift``, ``invert``, ``rebase``, ``identity_op``, ``swap_op``) builds its
result with ``TensorOp._trusted``, ``_rational`` or ``_packed``: the columns
are canonical and in range by construction or canonicalised there.

An operator is stored in one form, fixed when it is built: ``(params, den,
cols)``, the operator cols / den.  params is the parameter order, the names
that occur in the entries, sorted as ``scalars.param_order`` sorts them; it
is empty exactly when every entry is rational.  A constant entry is an
``int``; any other is a ``Laurent``, {packed exponent key: int
numerator}, its exponent vector over params packed in balanced base-2^16
digits, so multiplying monomials adds keys.  The form is canonical: den > 0,
the gcd of den and every numerator is 1 (the zero operator is ``((), 1,
empty columns)``), and equality and hashing are structural on ``(dom, cod,
params, den, cols)``.  Nothing is written to an operator after it is built.

Every exponent of a stored entry has |e| < 2^15 (``EXP_LIMIT``);
building an operator with a wider one raises ValueError.  A kernel call
raises ValueError before it starts if its factors' largest exponents, summed
along a product, reach 2^15, so keys never wrap.  Those sums stay at 15 or
below in the gallery, the benchmark and the tests (but the tests of this
bound).  ``.columns``, ``dense()`` and the JSON text
build ``Scalar``s from the stored form on each call; ``map_scalars`` maps
them and packs the result again, and ``instantiate`` evaluates the packed
entries.  ``mod_p(p)`` is the one reduction to F_p: the dense matrix of a
rational operator with one inverse of the denominator.

Each kernel loop is written once, over the packed entries of every factor,
the factors' keys first packed over the union of their orders: ``+``, ``*``
and truthiness act alike on ``int`` and ``Laurent`` entries.  One loop,
``_combine_columns``, serves ``compose``, ``+``/``-`` and ``residual``: it
sums chains of factors, pushing each column of a chain's last factor
through the others into one accumulator, so a composite or a residual is
made canonical once, not once per step or side.  ``invert`` eliminates on
the stored form fraction-free, dividing pivot rows by monomial units.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from hombrax.scalars import (MissingParameter, RationalLike, Scalar, ZeroAtNegativeExponent,
                              param_order, parse_scalar, reduce_mod_p)

# The most columns (dim ** arity) an operator read from input or requested
# on the command line may have.  The largest operators the gallery, the tests
# and the benchmark build have 1,024 columns (4-dim bql at n = 5).
_MAX_COLUMNS = 1 << 14


class ArityMismatch(ValueError):
    """Operators act on tensor powers of different arity."""


class SpaceMismatch(ValueError):
    """Operators are based on different spaces."""


class DimMismatch(ValueError):
    """Linear map and operator dimensions are incompatible."""


class Singular(ValueError):
    """Operator has no inverse."""


class SymbolicNotMonomialInvertible(ValueError):
    """Symbolic elimination got stuck: no pivot is a unit of the Laurent ring."""


class _Frozen:
    """Base of the immutable types: setting an attribute raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class BasedSpace(_Frozen):
    """An N-dimensional space with named, ordered basis vectors."""

    __slots__ = ("labels",)

    def __init__(self, labels: Sequence[str]):
        labels = tuple(labels)
        if len(set(labels)) != len(labels) or not labels:
            raise ValueError(f"labels must be distinct and nonempty: {labels}")
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return len(self.labels)

    @staticmethod
    def of_dim(n: int, prefix: str = "e") -> "BasedSpace":
        return BasedSpace(tuple(f"{prefix}{i}" for i in range(1, n + 1)))

    def __eq__(self, other):
        return isinstance(other, BasedSpace) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"BasedSpace({list(self.labels)})"


class _OnSpace(_Frozen):
    """A structure (algebra, module) on the based space in its ``space`` slot."""

    __slots__ = ()

    @property
    def labels(self) -> tuple[str, ...]:
        return self.space.labels

    @property
    def dim(self) -> int:
        return self.space.dim


def product_space(space: BasedSpace, n: int) -> BasedSpace:
    """The space V^(tensor n) with dot-joined basis labels, in index order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = space.labels
    for _ in range(n - 1):
        labels = tuple(f"{a}.{b}" for a in labels for b in space.labels)
    return BasedSpace(labels)


def encode_index(dim: int, multi: Sequence[int]) -> int:
    flat = 0
    for i in multi:
        if not 0 <= i < dim:
            raise IndexError(f"component {i} out of range for dim {dim}")
        flat = flat * dim + i
    return flat


def _check_size(dim: int, arity: int, limit: int = _MAX_COLUMNS) -> None:
    """Refuse an operator on V^(tensor arity) with more than limit columns,
    counting dim as at least 2: a 1-dim operator has one column, but words,
    strands and braid words still grow with its arity.

    base >= 2^(bit_length - 1), so a large arity is refused from the bit
    lengths alone, before base ** arity is formed.
    """
    base = max(dim, 2)
    if arity * (base.bit_length() - 1) >= limit.bit_length() or base ** arity > limit:
        raise ValueError(f"dim {dim} to the power {arity} exceeds the limit of "
                         f"{limit} columns (dim counted as at least 2)")


Column = tuple[tuple[int, Scalar], ...]
Word = tuple[BasedSpace, ...]


def _word(x: BasedSpace | Word, m: int = 1) -> Word:
    """A word as given, or the m-th tensor power of a space."""
    if isinstance(x, tuple):
        return x
    if m < 1:
        raise ValueError("arity must be >= 1")
    return (x,) * m


def _size(word: Word) -> int:
    return math.prod(s.dim for s in word)


def decode_word(word: Word, flat: int) -> tuple[int, ...]:
    """The multi-index of a flat basis index of a word."""
    out = []
    for s in reversed(word):
        flat, i = divmod(flat, s.dim)
        out.append(i)
    return tuple(reversed(out))


def _check_words(a: Word, b: Word) -> None:
    if a != b:
        cls = ArityMismatch if len(a) != len(b) and set(a) == set(b) else SpaceMismatch
        raise cls(f"{list(a)} vs {list(b)}")


def _canonical_column(entries: Iterable[tuple[int, Scalar]]) -> Column:
    entries = tuple(entries)
    if len({r for r, _ in entries}) < len(entries):
        acc: dict[int, Scalar] = {}
        for row, s in entries:
            acc[row] = acc.get(row, Scalar.zero()) + s
        entries = acc.items()
    return tuple(sorted((r, s) for r, s in entries if not s.is_zero()))


# An exponent vector (e_0, ..., e_{P-1}) over an operator's parameter order
# is packed into the one int key sum(e_i * 2^(EXP_BITS * i)): balanced
# base-2^EXP_BITS digits, each |e_i| < EXP_LIMIT.  Within that range the
# packing is one-to-one and adding keys adds exponent vectors.
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


class Laurent(dict):
    """A Laurent polynomial entry of a symbolic operator: {packed exponent
    key: int numerator}, over the operator's parameter order and common
    denominator.  Kernels keep no zero coefficient and treat it as
    immutable; an operator stores a constant entry as a plain int instead.
    ``*`` and ``+`` take another Laurent or an int, on either side.
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


_IntColumn = tuple[tuple[int, int], ...]
_Integer = tuple[int, tuple[_IntColumn, ...]]
# (params, den, cols, emax): the stored form of an operator.
_Stored = tuple[tuple[str, ...], int, tuple, int]


def _reduced(den: int, cols: tuple[_IntColumn, ...]) -> _Integer:
    """The canonical integer form of the operator cols / den (den != 0)."""
    if den != 1:
        g = math.gcd(den, *(v for col in cols for _, v in col))
        if den < 0:
            g = -g
        if g != 1:
            den //= g
            cols = tuple(tuple((r, v // g) for r, v in col) for col in cols)
    return den, cols


def _integer_columns(cols: Iterable[Iterable[tuple[int, Fraction]]]) -> _Integer:
    """The canonical integer form of columns of Fractions (zeros dropped).

    Over the least common denominator a prime dividing it keeps its full
    power in the denominator of some entry, whose scaled numerator it does
    not divide, so the form needs no further reduction."""
    cols = [[(r, x) for r, x in col if x] for col in cols]
    den = math.lcm(*(x.denominator for col in cols for _, x in col))
    return den, tuple(tuple((r, x.numerator * (den // x.denominator)) for r, x in col)
                      for col in cols)


def _form(cols: tuple[Column, ...]) -> _Stored:
    """The stored form of canonical Scalar columns.  Coefficients go over
    the lcm of their denominators (canonical as in _integer_columns), as
    plain ints even where a Fraction holds another integer type;
    ValueError for an exponent outside the packing range."""
    params = param_order(n for col in cols for _, s in col for exps, _ in s.terms
                         for n, _ in exps)
    den = math.lcm(*(c.denominator for col in cols for _, s in col for _, c in s.terms))
    shift = {n: EXP_BITS * i for i, n in enumerate(params)}
    emax = 0
    out = []
    for col in cols:
        packed = []
        for r, s in col:
            terms = s.terms
            if len(terms) == 1 and not terms[0][0]:
                c = terms[0][1]
                packed.append((r, int(c.numerator * (den // c.denominator))))
                continue
            v = Laurent()
            for exps, c in terms:
                key = 0
                for n, e in exps:
                    if not -EXP_LIMIT < e < EXP_LIMIT:
                        raise ValueError(f"exponent {e} of {n} is outside the range of "
                                         f"an operator entry, |exponent| < {EXP_LIMIT}")
                    emax = max(emax, abs(e))
                    key += e << shift[n]
                v[key] = int(c.numerator * (den // c.denominator))
            packed.append((r, v))
        out.append(tuple(packed))
    return params, den, tuple(out), emax


def _canonical(params: tuple[str, ...], den: int, cols: tuple) -> _Stored:
    """The stored form of kernel output cols / den over a nonempty params
    (den > 0): constant entries become ints, parameters that no longer occur
    leave the order (and the keys are repacked), and the content gcd is
    divided out."""
    keys, const = set(), False
    for col in cols:
        for _, v in col:
            if v.__class__ is not int:
                keys.update(v)
                const = const or (len(v) == 1 and 0 in v)
    used = [0] * len(params)
    for key in keys:
        for i, d in enumerate(key_digits(key, len(params))):
            used[i] = max(used[i], abs(d))
    kept = tuple(n for n, e in zip(params, used) if e)
    remap = None if kept == params else _remap(params, kept, keys)
    g = 1 if den == 1 else math.gcd(den, *(c for col in cols for _, v in col
                                           for c in ((v,) if v.__class__ is int else v.values())))
    if g != 1 or const or remap is not None:
        den //= g
        cols = tuple(tuple((r, _entry(v, g, remap)) for r, v in col) for col in cols)
    return kept, den, cols, max(used)


def _entry(v, g: int, remap: dict | None):
    """An entry divided by g, its keys renamed by remap; a constant as an int."""
    if v.__class__ is int:
        return v // g
    if remap is not None:
        v = {remap[k]: c for k, c in v.items()}
    if len(v) == 1 and 0 in v:
        return v[0] // g
    return Laurent({k: c // g for k, c in v.items()})


def _remap(old: tuple[str, ...], new: tuple[str, ...], keys) -> dict[int, int]:
    """Keys over the parameter order old, repacked over the order new, which
    holds every parameter that occurs in them."""
    shift = {n: EXP_BITS * i for i, n in enumerate(new)}
    shifts = [shift.get(n, 0) for n in old]
    if shifts == list(range(shifts[0], shifts[0] + EXP_BITS * len(old), EXP_BITS)):
        return {k: k << shifts[0] for k in keys}  # a block of new: every digit moves alike
    return {k: sum(d << s for d, s in zip(key_digits(k, len(old)), shifts)) for k in keys}


def _scalar(params: tuple[str, ...], den: int, v) -> Scalar:
    """The Scalar of a stored entry."""
    if v.__class__ is int:
        return Scalar.rational(Fraction(v, den))
    return Scalar({tuple((n, d) for n, d in zip(params, key_digits(k, len(params))) if d):
                   Fraction(c, den) for k, c in v.items()})


def _evaluate(params: tuple[str, ...], v: Laurent, values: Mapping[str, Fraction],
              monomials: dict[int, Fraction]) -> Fraction:
    """The numerator sum of a Laurent entry at a point, each monomial's value
    kept in monomials, a memo shared by the entries of one operator."""
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
    """Raise for an entry that cannot be evaluated as Scalar.evaluate does: for
    a missing parameter first, then at the first term, in Scalar order, with a
    zero parameter at a negative exponent."""
    terms = sorted(key_digits(k, len(params)) for k in v)
    missing = {n for digits in terms for n, d in zip(params, digits) if d} - values.keys()
    if missing:
        raise MissingParameter(f"no value for {sorted(missing)}")
    n, e = next((n, e) for digits in terms for n, e in zip(params, digits)
                if e < 0 and values[n] == 0)
    raise ZeroAtNegativeExponent(f"{n} = 0 with exponent {e}")


def _union(orders: set[tuple[str, ...]]) -> tuple[str, ...]:
    """The parameter order of a kernel call on operands with these orders."""
    return orders.pop() if len(orders) == 1 else param_order(n for o in orders for n in o)


def _over(op: "TensorOp", params: tuple[str, ...]) -> tuple:
    """op's stored columns with keys packed over params, a superset of its order."""
    old = op._params
    if old == params[:len(old)]:  # a prefix (or no parameter) packs every key alike
        return op._cols
    remap = _remap(old, params, {k for col in op._cols for _, v in col
                                 if v.__class__ is not int for k in v})
    return tuple(tuple((r, v if v.__class__ is int else
                        Laurent({remap[k]: c for k, c in v.items()})) for r, v in col)
                 for col in op._cols)


def _check_exponents(total: int) -> None:
    """Refuse a kernel call whose factors' largest exponents sum to total,
    so that a product of entries could leave the packing."""
    if total >= EXP_LIMIT:
        raise ValueError(f"exponents summed over the factors of a product reach {total}, "
                         f"outside the range of an operator entry, |exponent| < {EXP_LIMIT}")


class TensorOp(_Frozen):
    """Total sparse map from the word dom to the word cod, columns indexed flat.

    ``TensorOp(space, arity, columns)`` builds an operator on V^(tensor arity).
    """

    # _params: the parameter order of the keys of Laurent entries, empty for
    # a rational map; _cols: int and Laurent entries over the denominator
    # _den; _emax: the largest |exponent| of any entry, 0 for a rational map.
    __slots__ = ("dom", "cod", "_params", "_den", "_cols", "_emax")

    def __init__(self, space: BasedSpace, arity: int,
                 columns: Mapping[int, Iterable[tuple[int, Scalar]]] | Sequence):
        word = _word(space, arity)
        n = space.dim ** arity
        if isinstance(columns, Mapping):
            stray = [j for j in columns if not 0 <= j < n]
            if stray:
                raise IndexError(f"column keys {stray} out of range for {n}")
            cols = tuple(_canonical_column(columns.get(j, ())) for j in range(n))
        else:
            if len(columns) != n:
                raise ValueError(f"expected {n} columns, got {len(columns)}")
            cols = tuple(_canonical_column(c) for c in columns)
        for col in cols:
            for row, _ in col:
                if not 0 <= row < n:
                    raise IndexError(f"row {row} out of range")
        self._set(word, word, *_form(cols))

    def _set(self, dom: Word, cod: Word, params: tuple[str, ...], den: int,
             cols: tuple, emax: int) -> None:
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "_params", params)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_cols", cols)
        object.__setattr__(self, "_emax", emax)

    @classmethod
    def _trusted(cls, dom: Word, cod: Word, cols: tuple[Column, ...]) -> "TensorOp":
        """A map from Scalar columns that are canonical and in range by
        construction."""
        op = object.__new__(cls)
        op._set(dom, cod, *_form(cols))
        return op

    @classmethod
    def _rational(cls, dom: Word, cod: Word, den: int,
                  cols: tuple[_IntColumn, ...]) -> "TensorOp":
        """The map cols / den from integer columns that are canonical and in
        range by construction; the content gcd is divided out here."""
        op = object.__new__(cls)
        op._set(dom, cod, (), *_reduced(den, cols), 0)
        return op

    @classmethod
    def _packed(cls, dom: Word, cod: Word, params: tuple[str, ...], den: int,
                cols: tuple) -> "TensorOp":
        """The map cols / den from kernel output over params: rows increasing,
        no zero entry; made canonical by _canonical."""
        if not params:
            return cls._rational(dom, cod, den, cols)
        op = object.__new__(cls)
        op._set(dom, cod, *_canonical(params, den, cols))
        return op

    # -- the stored form ----------------------------------------------------

    @property
    def columns(self) -> tuple[Column, ...]:
        """The Scalar columns, built anew from the stored form on each call."""
        return tuple(map(self.column, range(len(self._cols))))

    def _integer(self) -> _Integer | None:
        """(den, int columns) of a rational map; None for a symbolic one."""
        return None if self._params else (self._den, self._cols)

    # -- basic queries -----------------------------------------------------

    def _is_power(self) -> bool:
        word = self.dom
        return bool(word) and word == self.cod and word.count(word[0]) == len(word)

    @property
    def space(self) -> BasedSpace:
        """V, for an operator on V^(tensor arity)."""
        if not self._is_power():
            raise SpaceMismatch(f"{self!r} is not an operator on a power of one space")
        return self.dom[0]

    @property
    def arity(self) -> int:
        """m, for an operator on V^(tensor m)."""
        self.space  # raises SpaceMismatch for a map between other words
        return len(self.dom)

    @property
    def total_dim(self) -> int:
        return len(self._cols)

    def column(self, j: int) -> Column:
        params, den = self._params, self._den
        return tuple((r, _scalar(params, den, v)) for r, v in self._cols[j])

    def entry(self, row: int, col: int) -> Scalar:
        for r, s in self.column(col):
            if r == row:
                return s
        return Scalar.zero()

    def is_zero(self) -> bool:
        return not any(self._cols)

    def first_nonzero_column(self) -> tuple[int, Column] | None:
        for j, col in enumerate(self._cols):
            if col:
                return j, self.column(j)
        return None

    def first_nonzero(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """The (column, row) multi-indices of the first nonzero entry in
        column-major order, or None for the zero map."""
        hit = self.first_nonzero_column()
        if hit is None:
            return None
        j, col = hit
        return decode_word(self.dom, j), decode_word(self.cod, col[0][0])

    def _key(self) -> tuple:
        return self.dom, self.cod, self._params, self._den, self._cols

    def __eq__(self, other):
        if not isinstance(other, TensorOp):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        nnz = sum(len(c) for c in self._cols)
        if self._is_power():
            return f"TensorOp(dim={self.dom[0].dim}, arity={len(self.dom)}, nnz={nnz})"
        dims = [[s.dim for s in w] for w in (self.dom, self.cod)]
        return f"TensorOp(dom={dims[0]}, cod={dims[1]}, nnz={nnz})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "TensorOp") -> "TensorOp":
        return _combination(((self,), (other,)), (1, 1))

    def __sub__(self, other: "TensorOp") -> "TensorOp":
        return _combination(((self,), (other,)), (1, -1))

    def __neg__(self) -> "TensorOp":
        return self.scale(-1)

    def scale(self, s: Scalar | RationalLike) -> "TensorOp":
        if isinstance(s, Scalar):
            if not s.is_rational():
                return self.map_scalars(lambda v: s * v)
            s = s.constant_value()
        return _combination(((self,),), (s,))

    def __matmul__(self, other: "TensorOp") -> "TensorOp":
        return compose(self, other)

    def map_scalars(self, fn: Callable[[Scalar], Scalar]) -> "TensorOp":
        return TensorOp._trusted(self.dom, self.cod, tuple(
            _canonical_column((r, fn(s)) for r, s in col) for col in self.columns))

    def instantiate(self, assignment: Mapping[str, RationalLike]) -> "TensorOp":
        """Evaluate every entry at a rational parameter point, raising
        MissingParameter and ZeroAtNegativeExponent as Scalar.evaluate does
        on the entries in column order."""
        values = {n: Fraction(v) for n, v in assignment.items()}
        params, den = self._params, self._den
        if not params:
            return self
        out, monomials = [], {}
        for col in self._cols:
            vals = []
            for r, v in col:
                if v.__class__ is not int:
                    v = _evaluate(params, v, values, monomials)
                vals.append((r, Fraction(v, den)))
            out.append(vals)
        return TensorOp._rational(self.dom, self.cod, *_integer_columns(out))

    def dense(self) -> list[list[Scalar]]:
        rows = [[Scalar.zero()] * self.total_dim for _ in range(_size(self.cod))]
        for j, col in enumerate(self.columns):
            for r, s in col:
                rows[r][j] = s
        return rows

    def mod_p(self, p: int) -> list[list[int]]:
        """The dense matrix of a rational map mod p, rows as in dense(), in
        0..p-1: the integer columns times one inverse of the denominator.

        Raises ValueError for a symbolic map, and DenominatorDivisibleByP
        (or ValueError for a modulus that is not an odd prime) as
        ``reduce_mod_p`` does.
        """
        ints = self._integer()
        if ints is None:
            raise ValueError("a symbolic map has no reduction mod p")
        den, cols = ints
        inv = reduce_mod_p(Fraction(1, den), p)
        rows = [[0] * len(cols) for _ in range(_size(self.cod))]
        for j, col in enumerate(cols):
            for r, v in col:
                rows[r][j] = v * inv % p
        return rows


# The kernel loops.  Each runs on Scalar columns and on integer columns alike.

def _combine_columns(terms: Sequence[tuple[int, Sequence[tuple]]]) -> tuple:
    """The columns of the sum of c * (f_1 after ... after f_k) over the terms
    (c, (f_1, ..., f_k)), each factor given by its columns.

    Term by term, each column of a chain's last factor, times c, is pushed
    through the other factors as one sparse vector (an entry that cancelled
    to zero is not pushed further) and added into the first term's column;
    zeros are dropped and the rows sorted once, at the end.
    """
    out = None
    for c, (*outer, last) in terms:
        outer.reverse()
        vecs = []
        for j, vec in enumerate(last):
            if c != 1:
                vec = [(i, c * s) for i, s in vec]
            for fcols in outer:
                acc = {}
                for i, s in vec:
                    if s:
                        for r, t in fcols[i]:
                            p = s * t
                            acc[r] = acc[r] + p if r in acc else p
                vec = acc.items()
            if out is not None:
                acc = dict(out[j])
                for r, s in vec:
                    acc[r] = acc[r] + s if r in acc else s
                vec = acc.items()
            vecs.append(vec)
        out = vecs
    # Rows are distinct dict keys, so sorting never compares entries.
    return tuple(tuple(sorted(e for e in vec if e[1])) for vec in out)


def _tensor_columns(fcols: tuple, gcols: tuple, ng: int) -> tuple:
    return tuple(tuple((rf * ng + rg, sf * sg) for rf, sf in fcol for rg, sg in gcol)
                 for fcol in fcols for gcol in gcols)


def as_op(data, dom: Word, cod: Word) -> TensorOp:
    """The map dom -> cod given by data: a TensorOp between those words, or a
    nested grid of scalars indexed by the domain's indices, then the
    codomain's (c[i][j][k] is the e_k coefficient of the image of e_i (x) e_j)."""
    if isinstance(data, TensorOp):
        _check_words(data.dom, dom)
        _check_words(data.cod, cod)
        return data
    flat: list[Scalar] = []

    def walk(cell, dims) -> None:
        if not dims:
            flat.append(cell if isinstance(cell, Scalar) else Scalar.rational(cell))
            return
        if len(cell) != dims[0]:
            raise ValueError(f"expected length {dims[0]}, got {len(cell)}")
        for sub in cell:
            walk(sub, dims[1:])

    walk(data, [s.dim for s in dom + cod])
    n = _size(cod)
    return TensorOp._trusted(dom, cod, tuple(
        tuple((r, s) for r, s in enumerate(flat[j:j + n]) if not s.is_zero())
        for j in range(0, len(flat), n)))


def identity_op(space: BasedSpace | Word, m: int = 1) -> TensorOp:
    """The identity of V^(tensor m), or of a word of spaces."""
    word = _word(space, m)
    return TensorOp._rational(word, word, 1, tuple(((j, 1),) for j in range(_size(word))))


def swap_op(A: BasedSpace | Word, B: BasedSpace | Word | None = None) -> TensorOp:
    """The twist A (x) B -> B (x) A, a (x) b -> b (x) a, for spaces or words
    A and B; B defaults to A."""
    A = _word(A)
    B = A if B is None else _word(B)
    na, nb = _size(A), _size(B)
    return TensorOp._rational(A + B, B + A, 1, tuple(((j * na + i, 1),)
                                                     for i in range(na) for j in range(nb)))


def _combination(chains: Sequence[Sequence[TensorOp]],
                 coeffs: Sequence[int | Fraction]) -> TensorOp:
    """The sum of c * (chain[0] after chain[1] after ...) over chains and
    rational coefficients c, in one kernel call; word mismatches raise as
    compose and +/- do.

    The loop runs on the stored columns, every factor's keys packed over
    one parameter order: chain t, with c_t = n_t / m_t, is weighted by
    n_t * den / d_t, d_t the product of m_t and its denominators and den the
    lcm of the d_t, and the result is made canonical once.  ValueError if a
    chain's exponents, summed over its factors, could leave the packing.
    """
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            _check_words(a.dom, b.cod)
    dom, cod = chains[0][-1].dom, chains[0][0].cod
    for chain in chains[1:]:
        _check_words(dom, chain[-1].dom)
        _check_words(cod, chain[0].cod)
    params = _union({op._params for chain in chains for op in chain})
    terms, den = [], 1
    for c, chain in zip(coeffs, chains):
        d, cols = c.denominator, []
        for op in chain:
            d *= op._den
            cols.append(op._cols if op._params == params else _over(op, params))
        if params:
            _check_exponents(sum(op._emax for op in chain))
        terms.append((c.numerator, d, cols))
        den = math.lcm(den, d)
    return TensorOp._packed(dom, cod, params, den, _combine_columns(
        [(n * (den // d), cols) for n, d, cols in terms]))


def compose(f: TensorOp, g: TensorOp, *more: TensorOp) -> TensorOp:
    """f after g (after each of ``more`` in turn), exactly; each factor's dom
    must be the next one's cod.

    The chain is the one-term case of the kernel loop that also computes
    ``+``, ``-`` and ``residual``: each column of the last factor is pushed
    through all the others, and rational factors are reduced once per chain.
    """
    return _combination(((f, g, *more),), (1,))


def residual(lhs: TensorOp | Sequence[TensorOp],
             rhs: TensorOp | Sequence[TensorOp]) -> TensorOp:
    """lhs - rhs, each side a map or a tuple of maps composed in order:
    compose(*lhs) - compose(*rhs), raising as that fold does, in one kernel
    call.  Both sides go into one accumulator over the lcm of their
    denominator products and are reduced once, so a residual whose entries
    all cancel does no big-integer reduction.
    """
    return _combination([(x,) if isinstance(x, TensorOp) else x for x in (lhs, rhs)], (1, -1))


def tensor_product(f: TensorOp, g: TensorOp, *more: TensorOp) -> TensorOp:
    """(f (x) g)(x (x) y) = f(x) (x) g(y), bilinearly extended; then (x) each
    of ``more``.

    Rows rf * ng + rg increase with (rf, rg), and a product of nonzero
    entries is nonzero, so the columns come out with rows in order and no
    zero entry.
    """
    if more:
        return tensor_product(tensor_product(f, g), *more)
    params = _union({f._params, g._params})
    if params:
        _check_exponents(f._emax + g._emax)
    fcols = f._cols if f._params == params else _over(f, params)
    gcols = g._cols if g._params == params else _over(g, params)
    return TensorOp._packed(f.dom + g.dom, f.cod + g.cod, params, f._den * g._den,
                            _tensor_columns(fcols, gcols, _size(g.cod)))


class LinearMap(TensorOp):
    """The dense-rows constructor of a linear self-map of V, the operator
    (V,) -> (V,) whose entry (k, i) is the e_k coefficient of alpha(e_i)."""

    __slots__ = ()

    def __init__(self, space: BasedSpace, rows: Sequence[Sequence[Scalar | RationalLike]]):
        n = space.dim
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DimMismatch(f"need a {n}x{n} matrix")
        super().__init__(space, 1, [[(k, e if isinstance(e, Scalar) else Scalar.rational(e))
                                     for k, e in enumerate(col)] for col in zip(*rows)])

    @staticmethod
    def identity(space: BasedSpace) -> "LinearMap":
        return LinearMap.diagonal(space, [Scalar.one()] * space.dim)

    @staticmethod
    def diagonal(space: BasedSpace, entries: Sequence[Scalar | RationalLike]) -> "LinearMap":
        n = space.dim
        if len(entries) != n:
            raise DimMismatch(f"need {n} diagonal entries")
        return LinearMap(space, [[entries[i] if i == j else Scalar.zero()
                                  for j in range(n)] for i in range(n)])

    # The two names below remain only for perfbench; use dense() and invert().

    @property
    def rows(self) -> list[list[Scalar]]:
        return self.dense()

    def inverse(self) -> TensorOp:
        return invert(self)


def linear_map_from_op(op: TensorOp) -> TensorOp:
    """op itself, once checked to be a self-map of one space (kept for perfbench)."""
    if op.arity != 1:
        raise ArityMismatch(f"need arity 1, got {op.arity}")
    return op


def lift(alpha: TensorOp, m: int) -> TensorOp:
    """alpha^(tensor m) for a self-map alpha of V."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if alpha.arity != 1:
        raise ArityMismatch(f"need arity 1, got {alpha.arity}")
    return functools.reduce(tensor_product, [alpha] * m)


def power(f: TensorOp, k: int) -> TensorOp:
    """f composed with itself k times, as one chain; the identity for k = 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return identity_op(f.dom)
    return f if k == 1 else compose(*(f,) * k)


def invert(f: TensorOp) -> TensorOp:
    """Exact inverse by sparse Gauss-Jordan elimination on the rows of [F | I],
    fraction-free on the stored form F = A / den.

    Column k is cleared by its sparsest unused pivot row.  The pivot must be
    a monomial c x^e (every nonzero entry of a rational map is one), and its
    row is first divided by the unit x^e, so the pivot is the int c.  Every
    other row with an entry a there becomes p * row - a * (pivot row), p and
    a divided by their common content first, then the row by the gcd of its
    coefficients; rows without an entry in column k stay as they are.  At
    the end the pivot row of column k reads d e_k on the left and d times
    row k of A^-1 on the right.  Raises Singular if the operator has no
    inverse, SymbolicNotMonomialInvertible if elimination gets stuck on
    symbolic entries none of which is a monomial, and ValueError if two rows'
    exponents, summed, could leave the packing.
    """
    params, den, cols = f._params, f._den, f._cols
    n = len(cols)
    rows = [{n + i: 1} for i in range(n)]
    for j, col in enumerate(cols):
        for r, v in col:
            rows[r][j] = v
    emax = [f._emax] * n
    unused = set(range(n))
    pivots = []
    for k in range(n):
        hits = [i for i in range(n) if k in rows[i]]
        free = [i for i in hits if i in unused]
        if not free:
            raise Singular(f"column {k} is dependent")
        if params:
            free = [i for i in free if rows[i][k].__class__ is int or len(rows[i][k]) == 1]
            if not free:
                raise SymbolicNotMonomialInvertible(f"no monomial pivot in column {k}")
        pr = min(free, key=lambda i: len(rows[i]))
        unused.discard(pr)
        pivots.append(pr)
        prow = rows[pr]
        pivot = prow[k]
        if pivot.__class__ is not int:
            (e, pivot), = pivot.items()
            if e:
                _check_exponents(2 * emax[pr])
                unit = Laurent({-e: 1})
                prow = rows[pr] = {c: unit * v for c, v in prow.items()}
                emax[pr] = _emax_of(prow.values(), len(params))
            prow[k] = pivot
        for i in hits:
            if i == pr:
                continue
            row = rows[i]
            a = row.pop(k)
            if a.__class__ is int:
                g = math.gcd(pivot, a)
            else:
                _check_exponents(emax[i] + emax[pr])
                g = math.gcd(pivot, *a.values())
            p, a = pivot // g, _entry(a, g, None)
            acc = row if p == 1 else {c: p * v for c, v in row.items()}
            for c, v in prow.items():
                if c != k:
                    t = -(a * v)
                    acc[c] = acc[c] + t if c in acc else t
            acc = {c: v for c, v in acc.items() if v}
            if params:
                g = math.gcd(*(c for v in acc.values()
                               for c in ((v,) if v.__class__ is int else v.values())))
                emax[i] = _emax_of(acc.values(), len(params))
            else:
                g = math.gcd(*acc.values())
            if g > 1:
                acc = {c: _entry(v, g, None) for c, v in acc.items()}
            rows[i] = acc
    ds = [rows[pr][k] for k, pr in enumerate(pivots)]
    lcm = math.lcm(*ds)
    out: list[list] = [[] for _ in range(n)]
    for k, pr in enumerate(pivots):
        m = den * (lcm // ds[k])
        for c, v in rows[pr].items():
            if c >= n:
                out[c - n].append((k, m * v))
    return TensorOp._packed(f.cod, f.dom, params, lcm, tuple(map(tuple, out)))


def _emax_of(entries: Iterable, count: int) -> int:
    """The largest |exponent| in entries packed over count parameters."""
    return max((abs(d) for v in entries if v.__class__ is not int
                for k in v for d in key_digits(k, count)), default=0)


def _on(alpha: TensorOp, space: BasedSpace) -> TensorOp:
    """alpha, a self-map of a space of space's dimension, as a self-map of space."""
    if alpha.dom == alpha.cod == (space,):
        return alpha
    if alpha.arity != 1:
        raise ArityMismatch(f"need a self-map of {space}, got arity {alpha.arity}")
    return rebase(alpha, space, 1)


def rebase(op: TensorOp, space: BasedSpace, arity: int) -> TensorOp:
    """Reinterpret an operator over a regrouped tensor factorization.

    Row-major encoding makes the flat indices of V^(tensor km) and
    (V^(tensor k))^(tensor m) coincide, so regrouping is a relabeling.
    """
    old = op.space
    if arity < 1 or space.dim ** arity != op.total_dim:
        raise DimMismatch(f"cannot regroup dim {old.dim}^{op.arity} as {space.dim}^{arity}")
    out = object.__new__(TensorOp)
    out._set((space,) * arity, (space,) * arity, op._params, op._den, op._cols, op._emax)
    return out


# ---------------------------------------------------------------------------
# JSON operator format.
# ---------------------------------------------------------------------------

def _text_columns(op: TensorOp) -> tuple:
    """The columns with entries as text: str(Fraction(v, den)) for an int
    entry, what str of the constant Scalar prints, else str of the Scalar."""
    params, den = op._params, op._den
    return tuple(tuple((r, str(Fraction(v, den)) if v.__class__ is int
                        else str(_scalar(params, den, v))) for r, v in col)
                 for col in op._cols)


def op_to_json_dict(op: TensorOp) -> dict:
    return {
        "dim": op.space.dim,
        "arity": op.arity,
        "columns": {str(j): [[str(r), text] for r, text in col]
                    for j, col in enumerate(_text_columns(op))},
    }


def _json_int(value, what: str) -> int:
    """A JSON integer, or a string in its one plain spelling str(int(s)):
    "01", "1_0", " 1" and "+1" would alias other indices and sizes."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    if isinstance(value, int):
        return value
    try:
        n = int(value)
    except ValueError:
        raise ValueError(f"{what} must be an integer, not {value!r}") from None
    if str(n) != value:
        raise ValueError(f"{what} {value!r} must be written {n}")
    return n


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """The object_pairs_hook of the JSON readers: a repeated key is refused
    instead of the last one silently winning."""
    out = dict(pairs)
    if len(out) < len(pairs):
        raise ValueError(f"a JSON object repeats a key among {[k for k, _ in pairs]}")
    return out


# The structure-constant formats (Hom-Lie algebras, bialgebras and YD
# modules).  The readers raise ValueError for a wrong JSON type, an index out
# of range (a negative one included) or an oversized dim, before any grid is
# allocated.

def _sparse_json(op: TensorOp) -> dict:
    """The nonzero entries of a map between words as _json_sparse reads them:
    {"i,j": {"k": "<scalar>"}}, column indices outside, row indices inside."""
    def key(word: Word, flat: int) -> str:
        return ",".join(map(str, decode_word(word, flat)))

    return {key(op.dom, j): {key(op.cod, r): text for r, text in col}
            for j, col in enumerate(_text_columns(op)) if col}


def _json_dim(data, arity: int) -> int:
    """data["dim"] of an object whose grids have dim ** arity entries."""
    if not isinstance(data, Mapping):
        raise ValueError(f"expected a JSON object, not {type(data).__name__}")
    dim = _json_int(data["dim"], "dim")
    if dim < 1:
        raise ValueError(f"dim must be positive, not {dim}")
    _check_size(dim, arity)
    return dim


def _json_labels(data: Mapping, dim: int, prefix: str) -> tuple[str, ...]:
    labels = data.get("labels", [f"{prefix}{i}" for i in range(dim)])
    if not (isinstance(labels, list) and len(labels) == dim
            and all(isinstance(x, str) for x in labels)):
        raise ValueError(f"labels must be a list of {dim} strings")
    return tuple(labels)


def _json_dense(data, dims: Sequence[int], what: str):
    """Nested lists of scalars of shape dims, such as the rows of alpha."""
    if not dims:
        return parse_scalar(data)
    if not isinstance(data, list) or len(data) != dims[0]:
        raise ValueError(f"{what} must be a list of length {dims[0]}")
    return [_json_dense(x, dims[1:], what) for x in data]


def _zeros(dims: Sequence[int]):
    return [_zeros(dims[1:]) for _ in range(dims[0])] if dims else Scalar.zero()


def _json_sparse(data, dims: Sequence[int], split: int, what: str) -> list:
    """A dims-shaped grid of scalars, zero except where data sets an entry:
    {"i,j": {"k": "<scalar>"}}, with the first ``split`` indices outside."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    grid = _zeros(dims)
    for key, inner in data.items():
        if not isinstance(inner, Mapping) or key.count(",") != split - 1:
            raise ValueError(f"{what}: {key!r} must be {split} indices mapped to an object")
        for rest, text in inner.items():
            idx = [_json_int(x, f"{what} index") for x in f"{key},{rest}".split(",")]
            if len(idx) != len(dims) or not all(0 <= i < d for i, d in zip(idx, dims)):
                raise ValueError(f"{what} index {key},{rest} is outside the shape {dims}")
            *path, last = idx
            cell = grid
            for i in path:
                cell = cell[i]
            cell[last] = parse_scalar(text)
    return grid


def op_from_json_dict(data: Mapping, space: BasedSpace | None = None) -> TensorOp:
    """Read an operator, refusing wrong JSON types and oversized shapes
    (ValueError) before anything is allocated."""
    if not isinstance(data, Mapping):
        raise ValueError(f"operator must be a JSON object, not {type(data).__name__}")
    dim = _json_int(data["dim"], "dim")
    arity = _json_int(data["arity"], "arity")
    _check_size(dim, arity)
    columns = data["columns"]
    if not isinstance(columns, Mapping):
        raise ValueError(f"columns must be a JSON object, not {type(columns).__name__}")
    if space is None:
        space = BasedSpace.of_dim(dim)
    elif space.dim != dim:
        raise DimMismatch(f"space dim {space.dim} != json dim {dim}")
    total = dim ** arity
    cols: dict[int, list[tuple[int, Scalar]]] = {}
    for key, entries in columns.items():
        j = _json_int(key, "column")
        if not 0 <= j < total:
            raise IndexError(f"column {j} out of range")
        if not isinstance(entries, (list, tuple)) or any(
                not isinstance(e, (list, tuple)) or len(e) != 2 for e in entries):
            raise ValueError(f"column {key}: entries must be [row, scalar] pairs")
        cols[j] = [(_json_int(r, "row"), parse_scalar(text)) for r, text in entries]
        if len({r for r, _ in cols[j]}) < len(cols[j]):
            raise ValueError(f"column {key} repeats a row")
    return TensorOp(space, arity, cols)


def op_dumps(op: TensorOp) -> str:
    return json.dumps(op_to_json_dict(op), sort_keys=True, separators=(",", ":"))


def _json_loads(text: str):
    """The one JSON reader of the input formats: a repeated key is refused,
    and so is a document nested too deeply for the parser (ValueError, not
    RecursionError)."""
    try:
        return json.loads(text, object_pairs_hook=_json_object)
    except RecursionError:
        raise ValueError("the JSON input is nested too deeply") from None


def op_loads(text: str, space: BasedSpace | None = None) -> TensorOp:
    return op_from_json_dict(_json_loads(text), space)
