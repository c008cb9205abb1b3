"""Quantum-group R-matrices and their compatible twisting maps.

Two families live here.  On the two-dimensional space with basis v0, v1
there is the one-parameter deformation of the flip (``phi``); on the
N-dimensional space with basis e1..eN there is its higher-dimensional
version (``bql``), the operator behind the Jimbo construction.  Both are
Laurent-polynomial in the formal parameters q and l, and both satisfy the
Yang-Baxter identity symbolically.

The maps alpha for which alpha (x) alpha commutes with bql(N) are exactly
those whose matrix has at most one nonzero entry per column, with row
indices increasing along the support.  ``SupportPattern`` is that
combinatorial object; ``enumerate_patterns`` lists all of them, and
``induced_solution`` realizes the closed form of the twisted braiding a
pattern induces.  ``brute_force_compatible_field`` is the independent
finite-field oracle: it scans every matrix over F_p and keeps those whose
compatibility residual vanishes, with no reference to the pattern
conditions.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Mapping

# map_chunks stays bound here by name: perfbench/spans.py wraps every binding.
from hombrax.runtime import map_chunks, scan_matrices, scan_size  # noqa: F401
from hombrax.scalars import Scalar, as_scalar
from hombrax.tensor import (ArityMismatch, BasedSpace, LinearMap, TensorOp, _Frozen, _json_int,
                            compose, lift, rebase)

if TYPE_CHECKING:
    import numpy as np

Q = Scalar.param("q")
L = Scalar.param("l")

PHI_SPACE = BasedSpace(("v0", "v1"))


class BadDimension(ValueError):
    """Dimension below 2 for the N-dimensional R-matrix."""


class InvalidPattern(ValueError):
    """Support data violates the column or ordering condition."""


def phi() -> TensorOp:
    """The 4x4 deformed flip on v0, v1, scaled by q*l."""
    ql = Q * L
    cols = {
        0: [(0, ql * Q ** -1)],
        1: [(1, ql * (Q ** -1 - Q)), (2, ql)],
        2: [(1, ql)],
        3: [(3, ql * Q ** -1)],
    }
    return TensorOp(PHI_SPACE, 2, cols)


def bql(N: int) -> TensorOp:
    """The N-dimensional R-matrix: diagonal q-scaling, flip, and q-q^-1 tail.

    e_i (x) e_i -> l*q e_i (x) e_i
    e_i (x) e_j -> l e_j (x) e_i                       (i < j)
    e_i (x) e_j -> l e_j (x) e_i + l(q - q^-1) e_i (x) e_j   (i > j)
    """
    if N < 2:
        raise BadDimension(f"need N >= 2, got {N}")
    space = BasedSpace.of_dim(N)
    beta = L * (Q - Q ** -1)
    cols = {}
    for i in range(N):
        for j in range(N):
            col = i * N + j
            if i == j:
                cols[col] = [(col, L * Q)]
            elif i < j:
                cols[col] = [(j * N + i, L)]
            else:
                cols[col] = [(j * N + i, L), (col, beta)]
    return TensorOp(space, 2, cols)


def phi_equals_bql_swapped() -> bool:
    """Check phi against bql(2) with q -> q^-1, l -> q*l and the basis swapped."""
    b = bql(2).map_scalars(lambda s: s.substitute({"q": Q ** -1, "l": Q * L}))
    swap = LinearMap(PHI_SPACE, [[0, 1], [1, 0]])
    conj = compose(lift(swap, 2), rebase(b, PHI_SPACE, 2), lift(swap, 2))
    return conj == phi()


# ---------------------------------------------------------------------------
# Support patterns and the compatible twisting maps.
# ---------------------------------------------------------------------------

class SupportPattern(_Frozen):
    """Columns 1..N each carrying at most one row, rows increasing on the support."""

    __slots__ = ("N", "column_rows")

    def __init__(self, N: int, column_rows: Mapping[int, int]):
        items = tuple(sorted(column_rows.items()))
        for col, row in items:
            if not (1 <= col <= N and 1 <= row <= N):
                raise InvalidPattern(f"entry ({row}, {col}) outside 1..{N}")
        for (c1, r1), (c2, r2) in zip(items, items[1:]):
            if r1 >= r2:
                raise InvalidPattern(
                    f"rows must increase along the support: k({c1}) = {r1}, k({c2}) = {r2}")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "column_rows", items)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.column_rows)

    def row(self, col: int) -> int | None:
        for c, r in self.column_rows:
            if c == col:
                return r
        return None

    def contains(self, other: "SupportPattern") -> bool:
        mine = dict(self.column_rows)
        return (self.N == other.N
                and all(mine.get(c) == r for c, r in other.column_rows))

    def __eq__(self, other):
        return (isinstance(other, SupportPattern) and self.N == other.N
                and self.column_rows == other.column_rows)

    def __hash__(self):
        return hash((self.N, self.column_rows))

    def __repr__(self):
        rows = {c: r for c, r in self.column_rows}
        return f"SupportPattern(N={self.N}, k={rows})"

    def to_json_dict(self) -> dict:
        return {"N": self.N, "k": {str(c): r for c, r in self.column_rows}}

    @staticmethod
    def from_json_dict(data: Mapping) -> "SupportPattern":
        N, k = _json_int(data["N"], "N"), data["k"]
        if not isinstance(k, Mapping):
            raise ValueError(f"k must be a JSON object, not {type(k).__name__}")
        return SupportPattern(N, {_json_int(c, "column"): _json_int(r, "row")
                                  for c, r in k.items()})


# The most patterns, C(2N, N), a dimension may have: N <= 8.
_MAX_PATTERNS = 1 << 14


def pattern_count(N: int) -> int:
    """C(2N, N), the number of patterns of dimension N; ValueError above
    _MAX_PATTERNS.  C(2N, N) >= 2^N, so a large N is refused before the
    binomial is formed."""
    if N < 1:
        raise BadDimension(f"need N >= 1, got {N}")
    count = math.comb(2 * N, N) if N < _MAX_PATTERNS.bit_length() else _MAX_PATTERNS + 1
    if count > _MAX_PATTERNS:
        raise ValueError(f"the pattern count C({2 * N}, {N}) of dimension {N} exceeds "
                         f"the limit of {_MAX_PATTERNS}")
    return count


def enumerate_patterns(N: int) -> list[SupportPattern]:
    """All (support, strictly increasing row map) pairs, duplicate-free."""
    pattern_count(N)
    out = []
    for size in range(N + 1):
        for cols in itertools.combinations(range(1, N + 1), size):
            for rows in itertools.combinations(range(1, N + 1), size):
                out.append(SupportPattern(N, dict(zip(cols, rows))))
    return out


def _is_maximal(p: SupportPattern) -> bool:
    """No (column, row) can be added.  Rows increase along the support, so a
    free column between two support entries (or the ends) takes a new row
    exactly when both their columns and their rows leave a gap; and a larger
    pattern would contain such a one-entry extension."""
    edges = ((0, 0),) + p.column_rows + ((p.N + 1, p.N + 1),)
    return all(c2 - c1 == 1 or r2 - r1 == 1
               for (c1, r1), (c2, r2) in zip(edges, edges[1:]))


def maximal_patterns(N: int) -> list[SupportPattern]:
    """Patterns not contained in any larger one: the maximal shape list."""
    return [p for p in enumerate_patterns(N) if _is_maximal(p)]


def group_patterns_by_shape(N: int) -> dict[SupportPattern, list[SupportPattern]]:
    """Assign every pattern to the maximal shapes containing it: a shape's
    members are its restrictions to the subsets of its support, in
    ``enumerate_patterns`` order (by size, then by columns)."""
    return {shape: [SupportPattern(N, dict(sub)) for k in range(len(shape.column_rows) + 1)
                    for sub in itertools.combinations(shape.column_rows, k)]
            for shape in maximal_patterns(N)}


class CompatibleAlpha(_Frozen):
    """A support pattern dressed with its nonzero column entries."""

    __slots__ = ("pattern", "values")

    def __init__(self, pattern: SupportPattern, values: Mapping[int, Scalar]):
        vals = {c: as_scalar(v) for c, v in values.items()}
        if set(vals) != set(pattern.support):
            raise InvalidPattern(
                f"values keyed by {sorted(vals)}, support is {pattern.support}")
        if any(v.is_zero() for v in vals.values()):
            raise InvalidPattern("support entries must be nonzero")
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "values", tuple(sorted(vals.items())))

    @staticmethod
    def symbolic(pattern: SupportPattern) -> "CompatibleAlpha":
        """The pattern with the parameter a<c> in each support column c."""
        return CompatibleAlpha(pattern, {c: Scalar.param(f"a{c}") for c in pattern.support})

    def value(self, col: int) -> Scalar:
        for c, v in self.values:
            if c == col:
                return v
        return Scalar.zero()

    def to_linear_map(self) -> TensorOp:
        """The self-map of e1..eN sending e_c to value(c) e_k(c)."""
        return TensorOp(BasedSpace.of_dim(self.pattern.N), 1,
                        {c - 1: [(self.pattern.row(c) - 1, v)] for c, v in self.values})

    def __repr__(self):
        return f"CompatibleAlpha({self.pattern!r}, {dict((c, str(v)) for c, v in self.values)})"


def pattern_of(alpha: TensorOp) -> SupportPattern | None:
    """The support pattern of a self-map, or None if the conditions fail."""
    if alpha.arity != 1:
        raise ArityMismatch(f"need arity 1, got {alpha.arity}")
    if any(len(col) > 1 for col in alpha.columns):
        return None
    try:
        return SupportPattern(alpha.total_dim, {i + 1: col[0][0] + 1 for i, col
                                                in enumerate(alpha.columns) if col})
    except InvalidPattern:
        return None


def check_compatible(alpha: TensorOp, N: int | None = None) -> bool:
    """Whether alpha's support satisfies the two classification conditions."""
    n = alpha.total_dim
    if N is not None and n != N:
        raise BadDimension(f"alpha is {n}x{n}, expected {N}")
    return pattern_of(alpha) is not None


def induced_solution(alpha: CompatibleAlpha) -> TensorOp:
    """Closed form of the braiding induced by a compatible alpha.

    e_i (x) e_i -> l*q*a_i^2 e_k(i) (x) e_k(i)
    e_i (x) e_j -> l*a_i*a_j e_k(j) (x) e_k(i)                      (i < j)
    e_i (x) e_j -> l*a_i*a_j (e_k(j) (x) e_k(i)
                              + (q - q^-1) e_k(i) (x) e_k(j))       (i > j)

    Columns outside the support are zero.  Structurally equal to
    twist(bql(N), alpha.to_linear_map()).
    """
    N = alpha.pattern.N
    if N < 2:
        raise BadDimension(f"need N >= 2, got {N}")
    space = BasedSpace.of_dim(N)
    beta = Q - Q ** -1
    cols: dict[int, list[tuple[int, Scalar]]] = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            col = (i - 1) * N + (j - 1)
            ai, aj = alpha.value(i), alpha.value(j)
            if ai.is_zero() or aj.is_zero():
                cols[col] = []
                continue
            ki, kj = alpha.pattern.row(i) - 1, alpha.pattern.row(j) - 1
            if i == j:
                cols[col] = [(ki * N + ki, L * Q * ai * ai)]
            elif i < j:
                cols[col] = [(kj * N + ki, L * ai * aj)]
            else:
                cols[col] = [(kj * N + ki, L * ai * aj),
                             (ki * N + kj, L * ai * aj * beta)]
    return TensorOp(space, 2, cols)


# ---------------------------------------------------------------------------
# Finite-field brute force: the accept set of the compatibility residual.
# ---------------------------------------------------------------------------

def brute_force_compatible_field(N: int, p: int, q_res: int = 2,
                                 lam_res: int = 1) -> set[tuple[int, ...]]:
    """All matrices over F_p whose compatibility residual with bql(N) vanishes.

    Works directly from the dense residual, in two stages: candidates are
    first filtered by the residual restricted to the diagonal input columns
    e_i (x) e_i (a necessary condition computed generically from B's dense
    matrix, not from the pattern conditions), then survivors get the full
    p-modular check (A (x) A) B = B (A (x) A) on every column.  Raises
    ValueError before bql(N) is built for a scan the engine refuses, and at
    degenerate residues (q^2 = 1 or l = 0 mod p).
    """
    import numpy as np
    scan_size(N, p)
    if (q_res * q_res - 1) % p == 0 or lam_res % p == 0:
        raise ValueError(f"q = {q_res}, l = {lam_res} is degenerate mod {p}: "
                         "need q^2 != 1 and l != 0")
    B = np.array(bql(N).instantiate({"q": q_res, "l": lam_res}).mod_p(p), dtype=np.int64)
    # M[u, v, i] = B[(u, v), (i, i)]: column (i, i) of B as an N x N matrix.
    M = B[:, [i * N + i for i in range(N)]].reshape(N, N, N)

    def diagonal_columns_vanish(A: np.ndarray) -> np.ndarray:
        # On e_i (x) e_i, (A (x) A) B gives A M_i A^T and B (A (x) A) gives
        # B (a_i (x) a_i), with a_i column i of A.
        X = np.einsum("cui,cvi->cuvi", A, A).reshape(-1, N * N, N)
        AMA = np.einsum("cku,uvi,clv->ckli", A, M, A, optimize=True).reshape(-1, N * N, N)
        return ~((AMA - B @ X) % p).any(axis=(1, 2))

    A = scan_matrices(N, p, diagonal_columns_vanish)
    # Full residual on the survivors.
    K = np.einsum("cki,clj->cklij", A, A).reshape(A.shape[0], N * N, N * N) % p
    R = (K @ B - B @ K) % p
    ok = ~R.any(axis=(1, 2))
    return {tuple(int(x) for x in mat.reshape(-1)) for mat in A[ok]}


def pattern_accept_set_field(N: int, p: int) -> set[tuple[int, ...]]:
    """All F_p matrices generated by the patterns with nonzero entries."""
    out = set()
    for pat in enumerate_patterns(N):
        support = pat.support
        for vals in itertools.product(range(1, p), repeat=len(support)):
            mat = [[0] * N for _ in range(N)]
            for c, v in zip(support, vals):
                mat[pat.row(c) - 1][c - 1] = v
            out.add(tuple(x for row in mat for x in row))
    return out
