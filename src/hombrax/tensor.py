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
row is in range.  One routine, ``_built``, builds every map given by its
entries, each in the coefficient form (v, den, params): the slots of a
Scalar or rational number for ``TensorOp(space, arity, columns)``,
``LinearMap``, ``as_op`` grids, ``map_scalars`` and ``lie_algebra``, plain
rational JSON text as (n, d, ()), and ``instantiate``'s values.
Everything else (``compose``, ``tensor_product``, sums, scaling, ``lift``,
``invert``, ``identity_op``, ``swap_op``) builds its result with
``TensorOp._rational`` or ``_packed``, and ``_reduced`` makes every operator
canonical; ``rebase`` keeps its operand's stored form.

An operator stores its entries in the one coefficient form of
``hombrax.scalars`` (an ``int`` or a packed ``Laurent``), over one parameter
order and one denominator for all of them: ``(params, den, cols)``, the
operator cols / den, canonical as a Scalar is (den > 0, content 1, only the
parameters that occur; the zero operator is ``((), 1, empty columns)``).
Equality and hashing are structural on ``(dom, cod, params, den, cols)``,
and nothing is written to an operator after it is built.  ``.columns``,
``entry`` and ``dense()`` wrap stored entries as Scalars and JSON writes
their text, re-sorting nothing.  A kernel call raises ValueError before it
starts if its factors' largest exponents, summed along a product, reach
``EXP_LIMIT``, so keys never wrap.  ``mod_p(p)`` is the one reduction to
F_p: the dense matrix of a rational operator with one inverse of the
denominator.

Each kernel loop is written once, over the packed entries of every factor,
the factors' keys first packed over the union of their orders.  One loop,
``_combine_columns``, serves ``compose``, ``+``/``-`` and ``residual``: it
sums chains of factors, pushing each column of a chain's last factor through
the others into one accumulator, so a composite or a residual is made
canonical once.  Its work follows the stored entries: an empty column is not
pushed, a vector that ends a step empty is pushed no further, and a column
empty on one side of a sum is the other side's vector.  The accumulators go
as they are to ``_reduced``, the one reduction of every kernel, which takes
the content as ``_content`` does (gcd(gcd(den, sum), *numerators), cheap
where the numerators share a wide factor with den) and builds each column
once.  An all-zero result, such as the residual of every identity that
holds, is the canonical zero with no gcd and no division, and so is a
difference of two single operators with equal stored forms, with no kernel
call.  ``invert`` eliminates on the stored form fraction-free, dividing
pivot rows by monomial units and each row by the plain gcd of its
coefficients: its rows share no wide factor, so ``_content`` gains nothing.
"""

from __future__ import annotations

import functools
import json
import math
import re
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from hombrax.scalars import (_MAX_DIGITS, EXP_LIMIT, Laurent, RationalLike, Scalar, _entry,
                              _evaluate, _occurring, _rational, _remap, _repacked, _text, _union,
                              _view, key_digits, parse_scalar, reduce_mod_p)

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


def _content(den: int, nums: Sequence[int]) -> int:
    """gcd(den, *nums), taken as gcd(gcd(den, sum(nums)), *nums): equal, as
    the sum lies in the numerators' ideal.  A kernel's numerators over one
    den share its wide factors, which keep the plain chain gcd(den, n_1,
    ...) wide for many steps; the sum makes the running gcd small at once."""
    g = math.gcd(den, sum(nums))
    return math.gcd(g, *nums) if g != 1 else 1


_IntColumn = tuple[tuple[int, int], ...]
# (params, den, cols, emax): the stored form of an operator.
_Stored = tuple[tuple[str, ...], int, tuple, int]


def _reduced(params: tuple[str, ...], den: int, cols: tuple, raw: bool = False) -> _Stored:
    """The stored form of the operator cols / den over params (den > 0).

    With raw, cols are the accumulators of a kernel or of _built: per
    column, (row, value) pairs with distinct rows in any order, zeros
    allowed; otherwise columns with rows increasing and no zero entry, kept
    as they are when nothing changes.  The content is divided out, parameters
    that no longer occur leave the order and constants become ints, each
    column built once in one comprehension.  The zero operator is ((), 1,
    empty columns, 0).
    """
    kept, remap, const, emax = (), None, False, 0
    if params:
        keys, nums = set(), []
        for col in cols:
            for _, v in col:
                if v.__class__ is int:
                    nums.append(v)
                else:
                    keys.update(v)
                    nums.extend(v.values())
                    const = const or (len(v) == 1 and 0 in v)
        kept, remap, emax = _occurring(params, keys)
    else:
        # Over 1 the content is 1, and the zeros of a zero result go below.
        nums = [v for col in cols for _, v in col] if den != 1 else (1,)
    if not any(nums):
        return (), 1, ((),) * len(cols) if raw else cols, 0
    g = _content(den, nums)
    den //= g
    change = g != 1 or const or remap is not None
    # The rows of a raw column are distinct, so sorting never compares entries.
    if not raw:
        if change:
            cols = tuple([tuple([(r, _entry(v, g, remap)) for r, v in col]) for col in cols])
    elif not change:
        cols = tuple([tuple(sorted([e for e in col if e[1]])) if col else () for col in cols])
    elif params:
        cols = tuple([tuple(sorted([(r, _entry(v, g, remap)) for r, v in col if v]))
                      if col else () for col in cols])
    else:
        cols = tuple([tuple(sorted([(r, v // g) for r, v in col if v])) if col else ()
                      for col in cols])
    return kept, den, cols, emax


def _built(dom: Word, cod: Word, cols: Sequence[Sequence[tuple]],
           op: "TensorOp | None" = None) -> "TensorOp":
    """The map dom -> cod with columns of (row, (v, den, params)) entries,
    each v / den over params (op, if given, is the object filled in).  Every
    row is checked, a zero entry's too; the entries are packed over one
    order and one lcm, one scale per distinct den, those that share a row
    add up, and _reduced makes the accumulators canonical."""
    params = _union({ps for col in cols for _, (_, _, ps) in col})
    dens = {d for col in cols for _, (_, d, _) in col}
    den = math.lcm(*dens)
    scale = {d: den // d for d in dens}
    n, out = _size(cod), []
    for col in cols:
        acc = {}
        for r, (v, d, ps) in col:
            if not 0 <= r < n:
                raise IndexError(f"row {r} out of range")
            v = (v if ps == params else _repacked(v, ps, params)) * scale[d]
            acc[r] = acc[r] + v if r in acc else v
        out.append(acc.items())
    if op is None:
        op = object.__new__(TensorOp)
    op._set(dom, cod, *_reduced(params, den, out, raw=True))
    return op


def _from_entries(dom: Word, cod: Word, columns: Iterable[Iterable[tuple]],
                  op: "TensorOp | None" = None) -> "TensorOp":
    """The map dom -> cod with entries read as ``as_scalar`` reads them: _built on their slots."""
    return _built(dom, cod, [[(r, (s._v, s._den, s._params)) for r, x in col
                              for s in [x if x.__class__ is Scalar else Scalar.rational(x)]]
                             for col in columns], op)


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
                 columns: Mapping[int, Iterable[tuple[int, Scalar | RationalLike]]] | Sequence):
        word = _word(space, arity)
        n = space.dim ** arity
        if isinstance(columns, Mapping):
            stray = [j for j in columns if not 0 <= j < n]
            if stray:
                raise IndexError(f"column keys {stray} out of range for {n}")
            columns = [columns.get(j, ()) for j in range(n)]
        elif len(columns) != n:
            raise ValueError(f"expected {n} columns, got {len(columns)}")
        _from_entries(word, word, columns, self)

    def _set(self, dom: Word, cod: Word, params: tuple[str, ...], den: int,
             cols: tuple, emax: int) -> None:
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "_params", params)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_cols", cols)
        object.__setattr__(self, "_emax", emax)

    @classmethod
    def _rational(cls, dom: Word, cod: Word, den: int,
                  cols: tuple[_IntColumn, ...]) -> "TensorOp":
        """The map cols / den from integer columns that are canonical and in
        range by construction; the content gcd is divided out here."""
        return cls._packed(dom, cod, (), den, cols)

    @classmethod
    def _packed(cls, dom: Word, cod: Word, params: tuple[str, ...], den: int,
                cols: tuple, raw: bool = False) -> "TensorOp":
        """The map cols / den from kernel output over params, made canonical
        by _reduced: columns with rows increasing and no zero entry, or, with
        raw, the kernel loop's accumulators."""
        op = object.__new__(cls)
        op._set(dom, cod, *_reduced(params, den, cols, raw))
        return op

    # -- the stored form ----------------------------------------------------

    @property
    def columns(self) -> tuple[Column, ...]:
        """The columns with each stored entry wrapped as a Scalar, on each call."""
        return tuple(map(self.column, range(len(self._cols))))

    def _integer(self) -> tuple[int, tuple[_IntColumn, ...]] | None:
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
        return tuple((r, _view(params, den, v)) for r, v in self._cols[j])

    def entry(self, row: int, col: int) -> Scalar:
        return _view(self._params, self._den, dict(self._cols[col]).get(row, 0))

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
        return _difference((self,), (other,))

    def __neg__(self) -> "TensorOp":
        return self.scale(-1)

    def scale(self, s: Scalar | RationalLike) -> "TensorOp":
        if isinstance(s, Scalar):
            if not s.is_rational():
                return self.map_scalars(lambda v: s * v)
            s = s.constant_value()
        return _combination(((self,),), (_rational(s),))

    def __matmul__(self, other: "TensorOp") -> "TensorOp":
        return compose(self, other)

    def map_scalars(self, fn: Callable[[Scalar], Scalar]) -> "TensorOp":
        return _from_entries(self.dom, self.cod,
                             [[(r, fn(s)) for r, s in col] for col in self.columns])

    def instantiate(self, assignment: Mapping[str, RationalLike]) -> "TensorOp":
        """Evaluate every entry at a rational parameter point, raising
        MissingParameter and ZeroAtNegativeExponent as Scalar.evaluate does
        on the entries in column order."""
        values = {n: _rational(v) for n, v in assignment.items()}
        params, den = self._params, self._den
        if not params:
            return self
        monomials = {}
        out = [[(r, v if v.__class__ is int else _evaluate(params, v, values, monomials))
                for r, v in col] for col in self._cols]
        # An entry x / den, x a numerator sum, is the coefficient x.n / (den * x.d).
        return _built(self.dom, self.cod, [[(r, (x.numerator, den * x.denominator, ()))
                                            for r, x in col] for col in out])

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


# The kernel loops, on the stored int and Laurent entries.

def _combine_columns(terms: Sequence[tuple[int, Sequence[tuple]]]) -> list:
    """The accumulators of the sum of c * (f_1 after ... after f_k) over the
    terms (c, (f_1, ..., f_k)), each factor given by its columns: per
    column, (row, value) pairs with distinct rows, in no order, zeros kept.

    Term by term, each column of a chain's last factor, times c, is pushed
    through the other factors as one sparse vector (an entry that cancelled
    to zero is not pushed further) and added into the first term's column.
    The accumulators are handed to _reduced as they are, which drops the
    zeros, divides by the content and sorts the rows in one pass.  The work
    follows the stored entries: an empty column is not pushed, a vector
    that ends a step empty is pushed no further, a column that is empty on
    one side of a sum is the other side's vector, and only columns with
    entries on both sides are merged.
    """
    out = None
    for c, (*outer, last) in terms:
        outer.reverse()
        vecs = []
        for j, vec in enumerate(last):
            if vec:
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
                    if not acc:
                        break
            if out is not None:
                prev = out[j]
                if not vec:
                    vec = prev
                elif prev:
                    acc = dict(prev)
                    for r, s in vec:
                        acc[r] = acc[r] + s if r in acc else s
                    vec = acc.items()
            vecs.append(vec)
        out = vecs
    return out


def _tensor_columns(fcols: tuple, gcols: tuple, ng: int) -> tuple:
    return tuple([tuple([(rf * ng + rg, sf * sg) for rf, sf in fcol for rg, sg in gcol])
                  for fcol in fcols for gcol in gcols])


def as_op(data, dom: Word, cod: Word) -> TensorOp:
    """The map dom -> cod given by data: a TensorOp between those words, or a
    nested grid of scalars indexed by the domain's indices, then the
    codomain's (c[i][j][k] is the e_k coefficient of the image of e_i (x) e_j)."""
    if isinstance(data, TensorOp):
        _check_words(data.dom, dom)
        _check_words(data.cod, cod)
        return data
    flat: list = []

    def walk(cell, dims) -> None:
        if not dims:
            flat.append(cell)
            return
        if len(cell) != dims[0]:
            raise ValueError(f"expected length {dims[0]}, got {len(cell)}")
        for sub in cell:
            walk(sub, dims[1:])

    walk(data, [s.dim for s in dom + cod])
    n = _size(cod)
    return _from_entries(dom, cod, [enumerate(flat[j:j + n]) for j in range(0, len(flat), n)])


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
        [(n * (den // d), cols) for n, d, cols in terms]), raw=True)


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
    all cancel does no big-integer reduction.  When each side is a single
    map and their stored forms are equal, the result is the canonical zero
    with no kernel call at all: the stored form is canonical, so equal forms
    are equal maps.
    """
    return _difference(*[(x,) if isinstance(x, TensorOp) else x for x in (lhs, rhs)])


def _difference(lhs: Sequence[TensorOp], rhs: Sequence[TensorOp]) -> TensorOp:
    """compose(*lhs) - compose(*rhs); the canonical zero, without entering the
    kernel loop, for two single maps with equal stored forms."""
    if len(lhs) == 1 == len(rhs) and lhs[0]._key() == rhs[0]._key():
        return _zero(lhs[0].dom, lhs[0].cod)
    return _combination((lhs, rhs), (1, -1))


def _zero(dom: Word, cod: Word) -> TensorOp:
    """The canonical zero map dom -> cod."""
    return TensorOp._rational(dom, cod, 1, ((),) * _size(dom))


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
        super().__init__(space, 1, [enumerate(col) for col in zip(*rows)])

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


def _one_plus(space: BasedSpace, a: TensorOp) -> LinearMap:
    """1 (+) a on space, for a self-map a of the span of all but space's
    first basis vector: a's stored columns moved down one row."""
    cols = (((0, a._den),),) + tuple(tuple((r + 1, v) for r, v in col) for col in a._cols)
    return LinearMap._packed((space,), (space,), a._params, a._den, cols)


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
            nums = list(acc.values())
            if params:
                nums = [c for v in nums for c in ((v,) if v.__class__ is int else v.values())]
                emax[i] = _emax_of(acc.values(), len(params))
            g = math.gcd(*nums)
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
    """The columns with each stored entry as the text str of its Scalar prints."""
    params, den = op._params, op._den
    return tuple(tuple((r, _text(params, den, v)) for r, v in col) for col in op._cols)


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
# of range (a negative one included) or an oversized dim, and read only the
# entries a document sets: nothing is allocated per zero entry.

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


# A plain rational text, the one form _text writes for a rational entry:
# an optional minus and ASCII digits, then optionally a slash and more
# digits, each number at most _MAX_DIGITS digits long, the most int() reads
# by default.
_PLAIN = re.compile(rf"(-?[0-9]{{1,{_MAX_DIGITS}}})(?:/([0-9]{{1,{_MAX_DIGITS}}}))?")


def _json_entry(text) -> tuple:
    """An entry text of a JSON document as the coefficient (v, den, params):
    plain rational text as (n, d, ()), read with no Fraction, no gcd and no
    Scalar; any other text (a symbolic term, "+3", "1e3", "3/0", a
    non-string) as parse_scalar reads it, or raises."""
    m = _PLAIN.fullmatch(text) if text.__class__ is str else None
    if m is not None:
        num, den = m.groups()
        d = int(den) if den else 1
        if d:
            return int(num), d, ()
    s = parse_scalar(text)
    return s._v, s._den, s._params


def _json_sparse(data, dom: Word, cod: Word, what: str) -> TensorOp:
    """The map dom -> cod that is zero except where data sets an entry:
    {"i,j": {"k": "<scalar>"}}, one index per factor of dom outside and one
    per factor of cod inside."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    split, dims, n = len(dom), tuple(s.dim for s in dom + cod), _size(cod)
    cols = [[] for _ in range(_size(dom))]
    for key, inner in data.items():
        if not isinstance(inner, Mapping) or key.count(",") != split - 1:
            raise ValueError(f"{what}: {key!r} must be {split} indices mapped to an object")
        for rest, text in inner.items():
            idx = [_json_int(x, f"{what} index") for x in f"{key},{rest}".split(",")]
            if len(idx) != len(dims) or not all(0 <= i < d for i, d in zip(idx, dims)):
                raise ValueError(f"{what} index {key},{rest} is outside the shape {dims}")
            flat = 0
            for i, d in zip(idx, dims):
                flat = flat * d + i
            j, r = divmod(flat, n)
            cols[j].append((r, _json_entry(text)))
    return _built(dom, cod, cols)


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
    cols: dict[int, list[tuple[int, tuple]]] = {}
    for key, entries in columns.items():
        j = _json_int(key, "column")
        if not 0 <= j < total:
            raise IndexError(f"column {j} out of range")
        if not isinstance(entries, (list, tuple)) or any(
                not isinstance(e, (list, tuple)) or len(e) != 2 for e in entries):
            raise ValueError(f"column {key}: entries must be [row, scalar] pairs")
        cols[j] = [(_json_int(r, "row"), _json_entry(text)) for r, text in entries]
        if len({r for r, _ in cols[j]}) < len(cols[j]):
            raise ValueError(f"column {key} repeats a row")
    word = _word(space, arity)
    return _built(word, word, [cols.get(j, ()) for j in range(total)])


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
