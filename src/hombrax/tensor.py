"""Sparse linear operators on tensor powers of a based vector space.

A ``TensorOp`` acts on V^(tensor m) for a based space V of dimension N and
is stored column-by-column: for each basis multi-index of the domain, the
list of (row multi-index, scalar) pairs of its image.  Operators are total
(every basis column is present; zero columns are empty), so zero-testing
and equality are purely structural.

Multi-indices are encoded 0-based and row-major with the leftmost tensor
factor most significant: index(i_1, ..., i_m) = sum i_k * N^(m-k).  This is
the conventional Kronecker-product layout, so a printed matrix maps
directly onto columns.

Columns are canonical: rows strictly increase, no entry is zero and every
row is in range.  ``TensorOp(...)`` is the one validating entry: it
canonicalises and range-checks whatever columns it is given (JSON, user
code, sums, scaling, ``map_scalars``).  The kernels below whose output is
canonical by construction (``compose``, ``tensor_product``, ``lift``,
``invert``, ``rebase``, ``with_space``, ``identity_op``, ``swap_op``) build
their result with ``TensorOp._trusted`` and skip that pass.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Mapping, Sequence

from hombrax.scalars import RationalLike, Scalar, parse_scalar

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


class BasedSpace:
    """An N-dimensional space with named, ordered basis vectors."""

    __slots__ = ("labels",)

    def __init__(self, labels: Sequence[str]):
        labels = tuple(labels)
        if len(set(labels)) != len(labels) or not labels:
            raise ValueError(f"labels must be distinct and nonempty: {labels}")
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("BasedSpace is immutable")

    @property
    def dim(self) -> int:
        return len(self.labels)

    @staticmethod
    def of_dim(n: int, prefix: str = "e", start: int = 1) -> "BasedSpace":
        return BasedSpace(tuple(f"{prefix}{i}" for i in range(start, start + n)))

    def __eq__(self, other):
        return isinstance(other, BasedSpace) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"BasedSpace({list(self.labels)})"


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


def decode_index(dim: int, arity: int, flat: int) -> tuple[int, ...]:
    out = [0] * arity
    for k in range(arity - 1, -1, -1):
        flat, out[k] = divmod(flat, dim)
    if flat:
        raise IndexError("flat index out of range")
    return tuple(out)


def _check_size(dim: int, arity: int) -> None:
    """Refuse an operator on V^(tensor arity) with more than _MAX_COLUMNS columns.

    dim >= 2^(bit_length - 1), so a large arity is refused from the bit
    lengths alone, before dim ** arity is formed.
    """
    if dim > 1 and (arity * (dim.bit_length() - 1) >= _MAX_COLUMNS.bit_length()
                    or dim ** arity > _MAX_COLUMNS):
        raise ValueError(f"dim {dim} to the power {arity} exceeds the limit of "
                         f"{_MAX_COLUMNS} columns")


Column = tuple[tuple[int, Scalar], ...]


def _canonical_column(entries: Iterable[tuple[int, Scalar]]) -> Column:
    entries = tuple(entries)
    if len({r for r, _ in entries}) < len(entries):
        acc: dict[int, Scalar] = {}
        for row, s in entries:
            acc[row] = acc.get(row, Scalar.zero()) + s
        entries = acc.items()
    return tuple(sorted((r, s) for r, s in entries if not s.is_zero()))


class TensorOp:
    """Total sparse operator on V^(tensor arity), columns indexed flat."""

    __slots__ = ("space", "arity", "columns")

    def __init__(self, space: BasedSpace, arity: int,
                 columns: Mapping[int, Iterable[tuple[int, Scalar]]] | Sequence):
        if arity < 1:
            raise ValueError("arity must be >= 1")
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
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "columns", cols)

    @classmethod
    def _trusted(cls, space: BasedSpace, arity: int, cols: tuple[Column, ...]) -> "TensorOp":
        """An operator from columns that are canonical and in range by construction."""
        op = object.__new__(cls)
        object.__setattr__(op, "space", space)
        object.__setattr__(op, "arity", arity)
        object.__setattr__(op, "columns", cols)
        return op

    def __setattr__(self, name, value):
        raise AttributeError("TensorOp is immutable")

    # -- basic queries -----------------------------------------------------

    @property
    def total_dim(self) -> int:
        return self.space.dim ** self.arity

    def column(self, j: int) -> Column:
        return self.columns[j]

    def entry(self, row: int, col: int) -> Scalar:
        for r, s in self.columns[col]:
            if r == row:
                return s
        return Scalar.zero()

    def is_zero(self) -> bool:
        return all(not col for col in self.columns)

    def first_nonzero_column(self) -> tuple[int, Column] | None:
        for j, col in enumerate(self.columns):
            if col:
                return j, col
        return None

    def __eq__(self, other):
        if not isinstance(other, TensorOp):
            return NotImplemented
        return (self.space == other.space and self.arity == other.arity
                and self.columns == other.columns)

    def __hash__(self):
        return hash((self.space, self.arity, self.columns))

    def __repr__(self):
        nnz = sum(len(c) for c in self.columns)
        return f"TensorOp(dim={self.space.dim}, arity={self.arity}, nnz={nnz})"

    # -- arithmetic ---------------------------------------------------------

    def _check_same_shape(self, other: "TensorOp") -> None:
        if self.space != other.space:
            raise SpaceMismatch(f"{self.space} vs {other.space}")
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def __add__(self, other: "TensorOp") -> "TensorOp":
        self._check_same_shape(other)
        return TensorOp(self.space, self.arity,
                        [a + b for a, b in zip(self.columns, other.columns)])

    def __sub__(self, other: "TensorOp") -> "TensorOp":
        self._check_same_shape(other)
        return TensorOp(self.space, self.arity,
                        [a + tuple((r, -s) for r, s in b)
                         for a, b in zip(self.columns, other.columns)])

    def __neg__(self) -> "TensorOp":
        return self.scale(Scalar.rational(-1))

    def scale(self, s: Scalar | RationalLike) -> "TensorOp":
        s = s if isinstance(s, Scalar) else Scalar.rational(s)
        return TensorOp(self.space, self.arity,
                        [tuple((r, s * v) for r, v in col) for col in self.columns])

    def __matmul__(self, other: "TensorOp") -> "TensorOp":
        return compose(self, other)

    def map_scalars(self, fn: Callable[[Scalar], Scalar]) -> "TensorOp":
        return TensorOp(self.space, self.arity,
                        [tuple((r, fn(s)) for r, s in col) for col in self.columns])

    def instantiate(self, assignment: Mapping[str, RationalLike]) -> "TensorOp":
        """Evaluate every entry at a rational parameter point."""
        return self.map_scalars(lambda s: Scalar.rational(s.evaluate(assignment)))

    def dense(self) -> list[list[Scalar]]:
        n = self.total_dim
        rows = [[Scalar.zero()] * n for _ in range(n)]
        for j, col in enumerate(self.columns):
            for r, s in col:
                rows[r][j] = s
        return rows

    def with_space(self, space: BasedSpace) -> "TensorOp":
        """Relabel the underlying space (same dimension)."""
        if space.dim != self.space.dim:
            raise DimMismatch(f"dim {space.dim} vs {self.space.dim}")
        return TensorOp._trusted(space, self.arity, self.columns)


def identity_op(space: BasedSpace, m: int) -> TensorOp:
    if m < 1:
        raise ValueError("arity must be >= 1")
    one = Scalar.one()
    return TensorOp._trusted(space, m, tuple(((j, one),) for j in range(space.dim ** m)))


def swap_op(space: BasedSpace) -> TensorOp:
    """The twist isomorphism on V tensor V: e_i (x) e_j -> e_j (x) e_i."""
    n = space.dim
    one = Scalar.one()
    return TensorOp._trusted(space, 2, tuple(((j * n + i, one),)
                                             for i in range(n) for j in range(n)))


def compose(f: TensorOp, g: TensorOp) -> TensorOp:
    """f after g, exactly."""
    f._check_same_shape(g)
    fcols = f.columns
    cols = []
    for gcol in g.columns:
        acc: dict[int, Scalar] = {}
        for i, s in gcol:
            for r, t in fcols[i]:
                p = s * t
                acc[r] = acc[r] + p if r in acc else p
        # Rows are distinct dict keys, so sorting never compares scalars.
        cols.append(tuple(sorted(e for e in acc.items() if not e[1].is_zero())))
    return TensorOp._trusted(f.space, f.arity, tuple(cols))


def tensor_product(f: TensorOp, g: TensorOp) -> TensorOp:
    """(f (x) g)(x (x) y) = f(x) (x) g(y), bilinearly extended.

    Rows rf * ng + rg increase with (rf, rg), and a product of nonzero
    entries is nonzero, so the columns come out canonical.
    """
    if f.space != g.space:
        raise SpaceMismatch(f"{f.space} vs {g.space}")
    ng = g.space.dim ** g.arity
    cols = tuple(tuple((rf * ng + rg, sf * sg) for rf, sf in fcol for rg, sg in gcol)
                 for fcol in f.columns for gcol in g.columns)
    return TensorOp._trusted(f.space, f.arity + g.arity, cols)


class LinearMap:
    """A linear self-map of V; entry (k, i) is the e_k coefficient of alpha(e_i)."""

    __slots__ = ("space", "rows")

    def __init__(self, space: BasedSpace, rows: Sequence[Sequence[Scalar | RationalLike]]):
        n = space.dim
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DimMismatch(f"need a {n}x{n} matrix")
        coerced = tuple(tuple(e if isinstance(e, Scalar) else Scalar.rational(e)
                              for e in row) for row in rows)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "rows", coerced)

    def __setattr__(self, name, value):
        raise AttributeError("LinearMap is immutable")

    @property
    def dim(self) -> int:
        return self.space.dim

    @staticmethod
    def identity(space: BasedSpace) -> "LinearMap":
        n = space.dim
        return LinearMap(space, [[Scalar.one() if i == j else Scalar.zero()
                                  for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(space: BasedSpace, entries: Sequence[Scalar | RationalLike]) -> "LinearMap":
        n = space.dim
        if len(entries) != n:
            raise DimMismatch(f"need {n} diagonal entries")
        return LinearMap(space, [[entries[i] if i == j else Scalar.zero()
                                  for j in range(n)] for i in range(n)])

    def entry(self, k: int, i: int) -> Scalar:
        return self.rows[k][i]

    def column(self, i: int) -> tuple[Scalar, ...]:
        return tuple(row[i] for row in self.rows)

    def apply(self, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        return tuple(sum((row[i] * vec[i] for i in range(self.dim)), Scalar.zero())
                     for row in self.rows)

    def to_op(self) -> TensorOp:
        cols = []
        for i in range(self.dim):
            cols.append(tuple((k, self.rows[k][i]) for k in range(self.dim)
                              if not self.rows[k][i].is_zero()))
        return TensorOp(self.space, 1, cols)

    def compose(self, other: "LinearMap") -> "LinearMap":
        if self.space != other.space:
            raise SpaceMismatch(f"{self.space} vs {other.space}")
        n = self.dim
        return LinearMap(self.space,
                         [[sum((self.rows[k][m] * other.rows[m][i] for m in range(n)),
                               Scalar.zero()) for i in range(n)] for k in range(n)])

    def inverse(self) -> "LinearMap":
        return linear_map_from_op(invert(self.to_op()))

    def map_scalars(self, fn: Callable[[Scalar], Scalar]) -> "LinearMap":
        return LinearMap(self.space, [[fn(e) for e in row] for row in self.rows])

    def instantiate(self, assignment: Mapping[str, RationalLike]) -> "LinearMap":
        return self.map_scalars(lambda s: Scalar.rational(s.evaluate(assignment)))

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self.space == other.space and self.rows == other.rows

    def __hash__(self):
        return hash((self.space, self.rows))

    def __repr__(self):
        return f"LinearMap({[[str(e) for e in row] for row in self.rows]})"


def linear_map_from_op(op: TensorOp) -> LinearMap:
    if op.arity != 1:
        raise ArityMismatch(f"need arity 1, got {op.arity}")
    n = op.space.dim
    rows = [[Scalar.zero()] * n for _ in range(n)]
    for j, col in enumerate(op.columns):
        for r, s in col:
            rows[r][j] = s
    return LinearMap(op.space, rows)


def lift(alpha: LinearMap, m: int) -> TensorOp:
    """alpha^(tensor m), built directly from alpha's columns (canonical, as in
    ``tensor_product``)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = alpha.dim
    sparse_cols = [tuple((k, alpha.rows[k][i]) for k in range(n)
                         if not alpha.rows[k][i].is_zero()) for i in range(n)]
    cols: list[list[tuple[int, Scalar]]] = [[(0, Scalar.one())]]
    for _ in range(m):
        nxt = []
        for partial in cols:
            for i in range(n):
                nxt.append([(r * n + k, s * t) for r, s in partial
                            for k, t in sparse_cols[i]])
        cols = nxt
    return TensorOp._trusted(alpha.space, m, tuple(tuple(c) for c in cols))


def power(f: TensorOp, k: int) -> TensorOp:
    if k < 0:
        raise ValueError("k must be >= 0")
    out = identity_op(f.space, f.arity)
    for _ in range(k):
        out = compose(f, out)
    return out


def invert(f: TensorOp) -> TensorOp:
    """Exact inverse by Gauss-Jordan elimination.

    Pivots must be units of the Laurent ring (monomials); for fully
    instantiated operators every nonzero entry qualifies, so this is plain
    exact elimination.  Raises Singular if the operator has no inverse and
    SymbolicNotMonomialInvertible if elimination gets stuck on symbolic
    entries none of which is a monomial.
    """
    n = f.total_dim
    m = f.dense()
    aug = [[Scalar.one() if i == j else Scalar.zero() for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = None
        stuck = False
        for r in range(col, n):
            if m[r][col].is_zero():
                continue
            if m[r][col].is_monomial():
                pivot = r
                break
            stuck = True
        if pivot is None:
            if stuck:
                raise SymbolicNotMonomialInvertible(
                    f"no monomial pivot in column {col}")
            raise Singular(f"column {col} is dependent")
        m[col], m[pivot] = m[pivot], m[col]
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = m[col][col].inverse()
        m[col] = [inv * e for e in m[col]]
        aug[col] = [inv * e for e in aug[col]]
        for r in range(n):
            if r == col or m[r][col].is_zero():
                continue
            factor = m[r][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
            aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    cols = tuple(tuple((r, aug[r][j]) for r in range(n) if not aug[r][j].is_zero())
                 for j in range(n))
    return TensorOp._trusted(f.space, f.arity, cols)


def rebase(op: TensorOp, space: BasedSpace, arity: int) -> TensorOp:
    """Reinterpret an operator over a regrouped tensor factorization.

    Row-major encoding makes the flat indices of V^(tensor km) and
    (V^(tensor k))^(tensor m) coincide, so regrouping is a relabeling.
    """
    if arity < 1 or space.dim ** arity != op.total_dim:
        raise DimMismatch(
            f"cannot regroup dim {op.space.dim}^{op.arity} as {space.dim}^{arity}")
    return TensorOp._trusted(space, arity, op.columns)


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
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return int(value)


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
        j = int(key)
        if not 0 <= j < total:
            raise IndexError(f"column {j} out of range")
        if not isinstance(entries, (list, tuple)) or any(
                not isinstance(e, (list, tuple)) or len(e) != 2 for e in entries):
            raise ValueError(f"column {key}: entries must be [row, scalar] pairs")
        cols[j] = [(_json_int(r, "row"), parse_scalar(text)) for r, text in entries]
    return TensorOp(space, arity, cols)


def op_dumps(op: TensorOp) -> str:
    return json.dumps(op_to_json_dict(op), sort_keys=True, separators=(",", ":"))


def op_loads(text: str, space: BasedSpace | None = None) -> TensorOp:
    return op_from_json_dict(json.loads(text), space)
