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
result with ``TensorOp._trusted`` or ``TensorOp._rational``: the columns are
canonical and in range by construction or canonicalised in place.

An operator is stored in one of two forms with the same rows and the same
sparsity.  The ``Scalar`` form holds Laurent-polynomial columns and is the
only form of a symbolic operator.  The integer form of a rational operator
holds ``(den, int columns)`` for the operator int columns / den, canonical
when den > 0 and the gcd of den and all entries is 1 (the zero operator is
``(1, empty columns)``), so equality stays structural.  ``instantiate``,
``identity_op``, ``swap_op`` and every kernel whose operands are both
rational build the integer form, dividing the content gcd out of each
result once; ``invert`` eliminates on it fraction-free, in integers.  An
operator built from ``Scalar`` columns derives its integer form on first use
and keeps it, and ``.columns`` builds the ``Scalar`` columns of an integer
operator on first use, so callers read either form through ``.columns``.
``mod_p(p)`` is the one reduction to F_p: the dense matrix of a rational
operator, read from the integer form with one inverse of the denominator.
Each kernel loop is written once: ``+``, ``*`` and truthiness act alike on
``int`` and ``Scalar`` entries, and only the denominators differ.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from hombrax.scalars import RationalLike, Scalar, parse_scalar, reduce_mod_p

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
    """Refuse an operator on V^(tensor arity) with more than limit columns.

    dim >= 2^(bit_length - 1), so a large arity is refused from the bit
    lengths alone, before dim ** arity is formed.
    """
    if dim > 1 and (arity * (dim.bit_length() - 1) >= limit.bit_length()
                    or dim ** arity > limit):
        raise ValueError(f"dim {dim} to the power {arity} exceeds the limit of "
                         f"{limit} columns")


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


_IntColumn = tuple[tuple[int, int], ...]
_Integer = tuple[int, tuple[_IntColumn, ...]]


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


def _scalar_column(den: int, col: _IntColumn) -> Column:
    return tuple((r, Scalar.rational(Fraction(v, den))) for r, v in col)


class TensorOp(_Frozen):
    """Total sparse map from the word dom to the word cod, columns indexed flat.

    ``TensorOp(space, arity, columns)`` builds an operator on V^(tensor arity).
    """

    # _cols: Scalar columns, or None until built from _ints.  _ints: the
    # integer form, None until derived from _cols, False for a symbolic map.
    __slots__ = ("dom", "cod", "_cols", "_ints")

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
        self._set(word, word, cols, None)

    def _set(self, dom: Word, cod: Word, cols, ints) -> None:
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "_cols", cols)
        object.__setattr__(self, "_ints", ints)

    @classmethod
    def _trusted(cls, dom: Word, cod: Word, cols: tuple[Column, ...]) -> "TensorOp":
        """A map from Scalar columns that are canonical and in range by construction."""
        op = object.__new__(cls)
        op._set(dom, cod, cols, None)
        return op

    @classmethod
    def _rational(cls, dom: Word, cod: Word, den: int,
                  cols: tuple[_IntColumn, ...]) -> "TensorOp":
        """The map cols / den from integer columns that are canonical and in
        range by construction; the content gcd is divided out here."""
        op = object.__new__(cls)
        op._set(dom, cod, None, _reduced(den, cols))
        return op

    # -- the two storage forms ---------------------------------------------

    @property
    def columns(self) -> tuple[Column, ...]:
        """The Scalar columns, built from the integer form on first use."""
        cols = self._cols
        if cols is None:
            den, icols = self._ints
            cols = tuple(_scalar_column(den, col) for col in icols)
            object.__setattr__(self, "_cols", cols)
        return cols

    def _integer(self) -> _Integer | None:
        """(den, int columns) of a rational map, derived on first use; None
        for a symbolic one."""
        ints = self._ints
        if ints is None:
            cols = self._cols
            ints = (all(s.is_rational() for col in cols for _, s in col)
                    and _integer_columns([(r, s.constant_value()) for r, s in col]
                                         for col in cols))
            object.__setattr__(self, "_ints", ints)
        return ints or None

    def _stored(self) -> tuple:
        """The columns of either built form: the sparsity is the same."""
        return self._ints[1] if self._cols is None else self._cols

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
        return len(self._stored())

    def column(self, j: int) -> Column:
        if self._cols is None:
            return _scalar_column(self._ints[0], self._ints[1][j])
        return self._cols[j]

    def entry(self, row: int, col: int) -> Scalar:
        for r, s in self.column(col):
            if r == row:
                return s
        return Scalar.zero()

    def is_zero(self) -> bool:
        return not any(self._stored())

    def first_nonzero_column(self) -> tuple[int, Column] | None:
        for j, col in enumerate(self._stored()):
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

    def __eq__(self, other):
        if not isinstance(other, TensorOp):
            return NotImplemented
        if self.dom != other.dom or self.cod != other.cod:
            return False
        a, b = self._integer(), other._integer()
        if a or b:  # a rational map never equals a symbolic one
            return a == b
        return self.columns == other.columns

    def __hash__(self):
        return hash((self.dom, self.cod, self._integer() or self.columns))

    def __repr__(self):
        nnz = sum(len(c) for c in self._stored())
        if self._is_power():
            return f"TensorOp(dim={self.dom[0].dim}, arity={len(self.dom)}, nnz={nnz})"
        dims = [[s.dim for s in w] for w in (self.dom, self.cod)]
        return f"TensorOp(dom={dims[0]}, cod={dims[1]}, nnz={nnz})"

    # -- arithmetic ---------------------------------------------------------

    def _plus(self, other: "TensorOp", sign: int) -> "TensorOp":
        _check_words(self.dom, other.dom)
        _check_words(self.cod, other.cod)
        a, b = self._integer(), other._integer()
        if a and b:
            den = math.lcm(a[0], b[0])
            return TensorOp._rational(self.dom, self.cod, den, _sum_columns(
                _scaled(a[1], den // a[0]), _scaled(b[1], sign * (den // b[0]))))
        bcols = other.columns
        if sign < 0:
            bcols = tuple(tuple((r, -s) for r, s in col) for col in bcols)
        return TensorOp._trusted(self.dom, self.cod, _sum_columns(self.columns, bcols))

    def __add__(self, other: "TensorOp") -> "TensorOp":
        return self._plus(other, 1)

    def __sub__(self, other: "TensorOp") -> "TensorOp":
        return self._plus(other, -1)

    def __neg__(self) -> "TensorOp":
        return self.scale(Scalar.rational(-1))

    def scale(self, s: Scalar | RationalLike) -> "TensorOp":
        s = s if isinstance(s, Scalar) else Scalar.rational(s)
        return self.map_scalars(lambda v: s * v)

    def __matmul__(self, other: "TensorOp") -> "TensorOp":
        return compose(self, other)

    def map_scalars(self, fn: Callable[[Scalar], Scalar]) -> "TensorOp":
        return TensorOp._trusted(self.dom, self.cod, tuple(
            _canonical_column((r, fn(s)) for r, s in col) for col in self.columns))

    def instantiate(self, assignment: Mapping[str, RationalLike]) -> "TensorOp":
        """Evaluate every entry at a rational parameter point."""
        return TensorOp._rational(self.dom, self.cod, *_integer_columns(
            [(r, s.evaluate(assignment)) for r, s in col] for col in self.columns))

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

def _scaled(cols: tuple, k: int) -> tuple:
    return cols if k == 1 else tuple(tuple((r, k * v) for r, v in col) for col in cols)


def _sum_columns(acols: tuple, bcols: tuple) -> tuple:
    cols = []
    for acol, bcol in zip(acols, bcols):
        acc = dict(acol)
        for r, s in bcol:
            acc[r] = acc[r] + s if r in acc else s
        # Rows are distinct dict keys, so sorting never compares entries.
        cols.append(tuple(sorted(e for e in acc.items() if e[1])))
    return tuple(cols)


def _compose_columns(fcols: tuple, gcols: tuple) -> tuple:
    cols = []
    for gcol in gcols:
        acc = {}
        for i, s in gcol:
            for r, t in fcols[i]:
                p = s * t
                acc[r] = acc[r] + p if r in acc else p
        cols.append(tuple(sorted(e for e in acc.items() if e[1])))
    return tuple(cols)


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


def compose(f: TensorOp, g: TensorOp, *more: TensorOp) -> TensorOp:
    """f after g (after each of ``more`` in turn), exactly; f.dom must be g.cod."""
    if more:
        g = compose(g, *more)
    _check_words(f.dom, g.cod)
    a, b = f._integer(), g._integer()
    if a and b:
        return TensorOp._rational(g.dom, f.cod, a[0] * b[0], _compose_columns(a[1], b[1]))
    return TensorOp._trusted(g.dom, f.cod, _compose_columns(f.columns, g.columns))


def tensor_product(f: TensorOp, g: TensorOp, *more: TensorOp) -> TensorOp:
    """(f (x) g)(x (x) y) = f(x) (x) g(y), bilinearly extended; then (x) each
    of ``more``.

    Rows rf * ng + rg increase with (rf, rg), and a product of nonzero
    entries is nonzero, so the columns come out canonical.
    """
    if more:
        return tensor_product(tensor_product(f, g), *more)
    ng = _size(g.cod)
    dom, cod = f.dom + g.dom, f.cod + g.cod
    a, b = f._integer(), g._integer()
    if a and b:
        return TensorOp._rational(dom, cod, a[0] * b[0], _tensor_columns(a[1], b[1], ng))
    return TensorOp._trusted(dom, cod, _tensor_columns(f.columns, g.columns, ng))


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
    if k < 0:
        raise ValueError("k must be >= 0")
    out = identity_op(f.dom)
    for _ in range(k):
        out = compose(f, out)
    return out


def invert(f: TensorOp) -> TensorOp:
    """Exact inverse by sparse Gauss-Jordan elimination on the rows of [F | I].

    Column k is cleared by its sparsest unused pivot row: every other row
    with an entry a there becomes p * row - a * (pivot row), p the pivot.
    In integer form (F = A / den) that stays in integers: the changed row is
    divided by the gcd of its entries, rows without an entry in column k
    stay as they are, and at the end the pivot row of column k reads d e_k
    on the left and d times row k of A^-1 on the right.  On Scalar entries
    the pivot must be a unit of the Laurent ring (a monomial) and its row is
    scaled to p = 1.  Raises Singular if the operator has no inverse and
    SymbolicNotMonomialInvertible if elimination gets stuck on symbolic
    entries none of which is a monomial.
    """
    ints = f._integer()
    den, cols = ints or (1, f.columns)
    n = len(cols)
    rows = [{n + i: 1 if ints else Scalar.one()} for i in range(n)]
    for j, col in enumerate(cols):
        for r, v in col:
            rows[r][j] = v
    unused = set(range(n))
    pivots = []
    for k in range(n):
        hits = [i for i in range(n) if k in rows[i]]
        free = [i for i in hits if i in unused]
        if not free:
            raise Singular(f"column {k} is dependent")
        if not ints:
            free = [i for i in free if rows[i][k].is_monomial()]
            if not free:
                raise SymbolicNotMonomialInvertible(f"no monomial pivot in column {k}")
        pr = min(free, key=lambda i: len(rows[i]))
        unused.discard(pr)
        pivots.append(pr)
        prow = rows[pr]
        if not ints:
            inv = prow[k].inverse()
            prow = rows[pr] = {c: inv * v for c, v in prow.items()}
        for i in hits:
            if i == pr:
                continue
            row = rows[i]
            p, a = prow[k], row.pop(k)
            if ints:
                g = math.gcd(p, a)
                p, a = p // g, a // g
            acc = row if p == 1 else {c: p * v for c, v in row.items()}
            for c, v in prow.items():
                if c != k:
                    t = -(a * v)
                    acc[c] = acc[c] + t if c in acc else t
            acc = {c: v for c, v in acc.items() if v}
            if ints:
                g = math.gcd(*acc.values())
                if g > 1:
                    acc = {c: v // g for c, v in acc.items()}
            rows[i] = acc
    out: list[list] = [[] for _ in range(n)]
    for k, pr in enumerate(pivots):
        d = rows[pr][k]
        for c, v in rows[pr].items():
            if c >= n:
                out[c - n].append((k, Fraction(den * v, d) if ints else v))
    if ints:
        return TensorOp._rational(f.cod, f.dom, *_integer_columns(out))
    return TensorOp._trusted(f.cod, f.dom, tuple(map(tuple, out)))


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
    out._set((space,) * arity, (space,) * arity, op._cols, op._ints)  # both forms, as built
    return out


# ---------------------------------------------------------------------------
# JSON operator format.
# ---------------------------------------------------------------------------

def op_to_json_dict(op: TensorOp) -> dict:
    return {
        "dim": op.space.dim,
        "arity": op.arity,
        "columns": {str(j): [[str(r), str(s)] for r, s in col]
                    for j, col in enumerate(op.columns)},
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

    return {key(op.dom, j): {key(op.cod, r): str(s) for r, s in col}
            for j, col in enumerate(op.columns) if col}


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
    labels = data.get("labels") or [f"{prefix}{i}" for i in range(dim)]
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


def op_loads(text: str, space: BasedSpace | None = None) -> TensorOp:
    return op_from_json_dict(json.loads(text, object_pairs_hook=_json_object), space)
