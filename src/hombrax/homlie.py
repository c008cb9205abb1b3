"""Hom-Lie algebras by structure constants and their braidings.

A Hom-Lie algebra is a based space L with a skew bracket, held as one
operator L (x) L -> L built from structure constants c[i][j][k] (the x_k
coefficient of [x_i, x_j]), and a twisting self-map alpha that is
multiplicative for the bracket and satisfies the twisted Jacobi identity

    [[x, y], alpha(z)] + [[z, x], alpha(y)] + [[y, z], alpha(x)] = 0.

Each axiom is one operator expression whose residual must vanish
(``skew_residual``, ``multiplicativity_residual``, ``hom_jacobi_residual``).

Three classical 3-dimensional algebras are built in (the Heisenberg
algebra, the dual of sl(2) alias the 1+1 Poincare algebra, and sl(2)),
together with the complete families of their Lie-algebra self-morphisms.
Twisting a classical algebra along such a morphism (``yau_twist``) yields a
Hom-Lie algebra, and every Hom-Lie algebra L gives a braiding on the
one-dimensional extension C (+) L which solves the twisted braid identity.

Each family is stated once, as data (``Family`` in the tables
``HEISENBERG_FAMILIES``, ``SL2_STAR_FAMILIES`` and ``SL2_FAMILIES``): the
same formula builds the map over Q and tests membership over F_p.  One
function, ``classify``, scans every matrix A over F_p for the bracket
residual A[x_i, x_j] - [A x_i, A x_j] and counts the solutions each family
of a table covers; the report names any that none covers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

# map_chunks stays bound here by name: perfbench/spans.py wraps every binding.
from hombrax.runtime import map_chunks, scan_matrices, scan_size  # noqa: F401
from hombrax.scalars import RationalLike, Scalar, as_scalar
from hombrax.tensor import (BasedSpace, DimMismatch, LinearMap, Singular,
                            SymbolicNotMonomialInvertible, TensorOp, _from_entries, _json_dense,
                            _json_dim, _json_labels, _json_sparse, _on, _one_plus, _OnSpace,
                            _sparse_json, as_op, compose, identity_op, invert, residual, swap_op,
                            tensor_product)

if TYPE_CHECKING:
    import numpy as np


class NotAMorphism(ValueError):
    """The map does not preserve the bracket."""


class ConstraintViolated(ValueError):
    """Family parameters violate the stated constraints."""


class UnclassifiedMorphismFound(ValueError):
    """A finite-field morphism fell outside every family."""


class InvariantViolated(ValueError):
    """Structure fails skewness, multiplicativity, or the twisted Jacobi identity."""


class AlphaSingular(ValueError):
    """The twisting map is not invertible."""


class HomLieAlgebra(_OnSpace):
    """Based space + skew bracket L (x) L -> L (a c[i][j][k] grid or operator) + alpha,
    a self-map of a space of the same dimension, held as a self-map of L."""

    # _valid: set once validate() has passed; a failure is never remembered.
    __slots__ = ("space", "bracket", "alpha", "_valid")

    def __init__(self, labels: Sequence[str], brackets, alpha: TensorOp):
        space = BasedSpace(labels)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "bracket", as_op(brackets, (space, space), (space,)))
        object.__setattr__(self, "alpha", _on(alpha, space))
        object.__setattr__(self, "_valid", False)

    def bracket_vec(self, i: int, j: int) -> tuple[Scalar, ...]:
        """[x_i, x_j] as a coordinate vector."""
        return tuple(row[i * self.dim + j] for row in self.bracket.dense())

    def is_skew(self) -> bool:
        return skew_residual(self).is_zero()

    def validate(self) -> None:
        """Raise InvariantViolated unless the algebra is Hom-Lie; checked once
        per object."""
        if self._valid:
            return
        if not self.is_skew():
            raise InvariantViolated("bracket is not skew-symmetric")
        hit = multiplicativity_residual(self).first_nonzero()
        if hit:
            i, j = hit[0]
            raise InvariantViolated(
                f"alpha is not multiplicative at ({self.labels[i]}, {self.labels[j]})")
        hit = hom_jacobi_residual(self).first_nonzero()
        if hit:
            raise InvariantViolated(f"twisted Jacobi fails at {hit[0]}")
        object.__setattr__(self, "_valid", True)

    def __eq__(self, other):
        if not isinstance(other, HomLieAlgebra):
            return NotImplemented
        return (self.space, self.bracket, self.alpha) == (other.space, other.bracket, other.alpha)

    def __repr__(self):
        return f"HomLieAlgebra(labels={self.labels})"


def lie_algebra(labels: Sequence[str],
                bracket_map: Mapping[tuple[int, int], Mapping[int, RationalLike | Scalar]],
                alpha: TensorOp | None = None) -> HomLieAlgebra:
    """Build an algebra from sparse brackets {(i, j): {k: c}}; the skew part
    is filled in, a pair given both ways adds up and an index outside 0..n-1
    raises IndexError."""
    space = BasedSpace(labels)
    n = space.dim
    cols = [[] for _ in range(n * n)]
    for (i, j), vec in bracket_map.items():
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"bracket [x_{i}, x_{j}] out of range for dim {n}")
        if i == j:
            raise InvariantViolated(f"[x_{i}, x_{i}] must be zero")
        for k, coef in vec.items():
            s = as_scalar(coef)
            cols[i * n + j].append((k, s))
            cols[j * n + i].append((k, -s))
    bracket = _from_entries((space, space), (space,), cols)
    return HomLieAlgebra(labels, bracket, alpha or identity_op(space))


def heisenberg() -> HomLieAlgebra:
    """[Y, Z] = X, everything else zero."""
    return lie_algebra(("X", "Y", "Z"), {(1, 2): {0: 1}})


def sl2_star() -> HomLieAlgebra:
    """[Y, Z] = 0, [Y, X] = Y/2, [Z, X] = Z/2 (the 1+1 Poincare algebra)."""
    half = Fraction(1, 2)
    return lie_algebra(("X", "Y", "Z"), {(1, 0): {1: half}, (2, 0): {2: half}})


def sl2() -> HomLieAlgebra:
    """[X, Y] = 2Y, [X, Z] = -2Z, [Y, Z] = X."""
    return lie_algebra(("X", "Y", "Z"),
                       {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})


def skew_residual(L: HomLieAlgebra) -> TensorOp:
    """[x, y] + [y, x] on L (x) L."""
    return L.bracket + compose(L.bracket, swap_op(L.space))


def multiplicativity_residual(L: HomLieAlgebra, alpha: TensorOp | None = None) -> TensorOp:
    """alpha [x, y] - [alpha x, alpha y] on L (x) L."""
    a = _on(alpha or L.alpha, L.space)
    return residual((a, L.bracket), (L.bracket, tensor_product(a, a)))


def hom_jacobi_residual(L: HomLieAlgebra) -> TensorOp:
    """[[x, y], alpha z] + [[z, x], alpha y] + [[y, z], alpha x] on L^(x)3.

    With t = [[x, y], alpha z], the cyclic terms are t after the shifts
    x (x) y (x) z -> z (x) x (x) y and -> y (x) z (x) x, which are swaps of
    the words (L, L) and (L,).
    """
    V = L.space
    t = compose(L.bracket, tensor_product(L.bracket, L.alpha))
    return t + compose(t, swap_op((V, V), V)) + compose(t, swap_op(V, (V, V)))


def twisted_constants(L: HomLieAlgebra, alpha: TensorOp) -> TensorOp:
    """The bracket alpha o [-,-]; no morphism validation."""
    return compose(_on(alpha, L.space), L.bracket)


def yau_twist(g: HomLieAlgebra, alpha: TensorOp) -> HomLieAlgebra:
    """The Hom-Lie algebra (g, alpha o [-,-], alpha) for a morphism alpha."""
    if not multiplicativity_residual(g, alpha).is_zero():
        raise NotAMorphism("alpha does not preserve the bracket")
    return HomLieAlgebra(g.labels, twisted_constants(g, alpha), alpha)


# ---------------------------------------------------------------------------
# The classified morphism families, each stated once for both rings.
# ---------------------------------------------------------------------------

_SPACE3 = BasedSpace(("X", "Y", "Z"))


class Family(NamedTuple):
    """One family of self-maps of a 3-dim algebra, stated once for both rings.

    ``rows(inv, *params)`` is its matrix; each constraint ``(text, f,
    must_vanish)`` says that ``f(*params)`` is zero (nonzero when not
    must_vanish) and keeps every argument of inv nonzero.  Both use only +,
    -, * and inv: ``build`` reads them over Q on Scalars, ``mod_p`` over F_p
    on arrays of residues.  A matrix in the family has its parameters at the
    flat entries ``at`` (row * 3 + column).
    """

    name: str
    params: tuple[str, ...]
    at: tuple[int, ...]
    rows: Callable
    constraints: tuple[tuple[str, Callable, bool], ...] = ()

    def build(self, *values) -> LinearMap:
        """The map at the given parameter values; ConstraintViolated names
        the first constraint they break."""
        values = tuple(map(as_scalar, values))
        for text, f, must_vanish in self.constraints:
            if f(*values).is_zero() != must_vanish:
                raise ConstraintViolated(text)
        return LinearMap(_SPACE3, self.rows(Scalar.inverse, *values))

    def mod_p(self, values: Sequence[np.ndarray], p: int) -> tuple[np.ndarray, np.ndarray]:
        """The nine entries mod p (last axis) and whether every constraint
        holds mod p, at broadcastable arrays of parameter residues."""
        import numpy as np
        table = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
        shape = np.broadcast_shapes(*(np.shape(v) for v in values))
        ok = np.ones(shape, dtype=bool)
        for _, f, must_vanish in self.constraints:
            ok &= (f(*values) % p == 0) == must_vanish
        entries = [np.broadcast_to(e, shape)
                   for row in self.rows(lambda x: table[x % p], *values) for e in row]
        return np.stack(entries, axis=-1) % p, ok


# An algebra with one family keys it by None: it has no kinds.
HEISENBERG_FAMILIES = {None: Family(
    "heisenberg", ("a12", "a13", "a22", "a23", "a32", "a33"), (1, 2, 4, 5, 7, 8),
    lambda inv, a12, a13, a22, a23, a32, a33: [[a22 * a33 - a23 * a32, a12, a13],
                                                [0, a22, a23],
                                                [0, a32, a33]])}

# Kind 1 fixes X up to adding Y, Z components and acts freely on the plane
# span(Y, Z); kind 2 sends the plane to zero and scales X by a11 != 1.
SL2_STAR_FAMILIES = {
    1: Family("kind1", ("a21", "a31", "a22", "a23", "a32", "a33"), (3, 6, 4, 5, 7, 8),
              lambda inv, a21, a31, a22, a23, a32, a33: [[1, 0, 0],
                                                          [a21, a22, a23],
                                                          [a31, a32, a33]]),
    2: Family("kind2", ("a11", "a21", "a31"), (0, 3, 6),
              lambda inv, a11, a21, a31: [[a11, 0, 0], [a21, 0, 0], [a31, 0, 0]],
              (("kind 2 needs a11 != 1", lambda a11, a21, a31: a11 - 1, False),)),
}

# a11 is 1 in kind 1, -1 in kind 2 and c in kind 3; all three nonzero kinds
# have determinant 1.
SL2_FAMILIES = {
    0: Family("zero", (), (), lambda inv: [[0] * 3] * 3),
    1: Family("kind1", ("a", "b", "c"), (2, 4, 1),
              lambda inv, a, b, c: [[1, c, a],
                                    [-2 * a * b, b, -a * a * b],
                                    [-2 * inv(b) * c, -inv(b) * c * c, inv(b)]],
              (("kind 1 needs b != 0", lambda a, b, c: b, False),
               ("kind 1 needs ac = 0", lambda a, b, c: a * c, True))),
    2: Family("kind2", ("a", "b", "c"), (2, 7, 1),
              lambda inv, a, b, c: [[-1, c, a],
                                    [2 * inv(b) * c, -inv(b) * c * c, inv(b)],
                                    [2 * a * b, b, -a * a * b]],
              (("kind 2 needs b != 0", lambda a, b, c: b, False),
               ("kind 2 needs ac = 0", lambda a, b, c: a * c, True))),
    3: Family("kind3", ("a", "b", "c"), (1, 3, 0),
              lambda inv, a, b, c: [
                  [c, a, (1 - c * c) * inv(4 * a)],
                  [b, a * b * inv(c - 1), b * (1 - c) * inv(4 * a)],
                  [(1 - c * c) * inv(b), a * (1 - c) * inv(b),
                   (c - 1) * (c + 1) * (c + 1) * inv(4 * a) * inv(b)]],
              (("kind 3 needs ab != 0", lambda a, b, c: a * b, False),
               ("kind 3 needs c != +-1", lambda a, b, c: (c - 1) * (c + 1), False))),
}


def morphism(families: Mapping, kind, **params) -> LinearMap:
    """The map of one kind of a family table; an omitted parameter is 0, and
    a kind the table lacks or a parameter the kind does not have raises
    ConstraintViolated."""
    if kind not in families:
        raise ConstraintViolated(f"kind must be one of {', '.join(map(str, families))}, "
                                 f"got {kind}")
    family = families[kind]
    extra = [n for n in params if n not in family.params]
    if extra:
        raise ConstraintViolated(f"kind {kind} has no parameter {', '.join(extra)}")
    return family.build(*(params.get(n, 0) for n in family.params))


def heisenberg_morphism(a12, a13, a22, a23, a32, a33) -> LinearMap:
    """The general Heisenberg self-morphism; X scales by the Y,Z-block determinant."""
    return HEISENBERG_FAMILIES[None].build(a12, a13, a22, a23, a32, a33)


def sl2_star_morphism(kind: int, **params) -> LinearMap:
    """Poincare-algebra self-morphisms: ``morphism`` on kinds 1, 2 of ``SL2_STAR_FAMILIES``."""
    return morphism(SL2_STAR_FAMILIES, kind, **params)


def sl2_morphism(kind: int, a=None, b=None, c=None) -> LinearMap:
    """The four families of sl(2) self-morphisms, kinds 0..3 of
    ``SL2_FAMILIES`` (kind 0, the zero map, has no parameters); see
    ``morphism`` for omitted and unknown parameters."""
    return morphism(SL2_FAMILIES, kind,
                    **{n: x for n, x in zip("abc", (a, b, c)) if x is not None})


# ---------------------------------------------------------------------------
# Finite-field classification of morphisms.
# ---------------------------------------------------------------------------

class ClassificationReport(NamedTuple):
    """The outcome of one finite-field classification: how many morphisms
    the scan found, how many each family covers, how many lie in more than
    one family and the ones no family covers."""

    algebra: str
    prime: int
    total_solutions: int
    family_counts: dict[str, int]
    overlap_count: int
    unclassified: list[tuple[int, ...]]

    @property
    def complete(self) -> bool:
        return not self.unclassified

    def lines(self) -> list[str]:
        out = [f"{self.algebra} morphisms over F_{self.prime}: {self.total_solutions}"]
        for name, count in sorted(self.family_counts.items()):
            out.append(f"  family {name}: {count}")
        out.append(f"  overlaps: {self.overlap_count}")
        out.append(f"  unclassified: {len(self.unclassified)}")
        return out


def morphism_matrices_mod_p(L: HomLieAlgebra, p: int) -> np.ndarray:
    """Every A over F_p with A[x_i, x_j] = [A x_i, A x_j]: the brute-force oracle."""
    import numpy as np
    n = L.dim
    scan_size(n, p)
    # c[i, j, k]: the dense bracket has rows k and columns (i, j).
    c = np.array(L.bracket.mod_p(p), dtype=np.int64).T.reshape(n, n, n)
    cc = c.reshape(n * n, n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def preserves_brackets(A: np.ndarray) -> np.ndarray:
        # Each pair is checked only on the candidates (indices into A) that
        # every earlier pair kept.
        alive, B = np.arange(A.shape[0]), A
        for i, j in pairs:
            lhs = np.einsum("crm,m->cr", B, c[i, j])
            rhs = (B[:, :, i, None] * B[:, None, :, j]).reshape(-1, n * n) @ cc
            kept = ~((lhs - rhs) % p).any(axis=1)
            alive, B = alive[kept], B[kept]
        ok = np.zeros(A.shape[0], dtype=bool)
        ok[alive] = True
        return ok

    return scan_matrices(n, p, preserves_brackets)


def classify(algebra: str, L: HomLieAlgebra, families: Mapping, p: int,
             strict: bool = False) -> ClassificationReport:
    """Scan every morphism of L over F_p once and cover the solutions by the
    families of a table.

    Each family reads its parameters off all solutions at once and covers
    those its formula reproduces mod p with every constraint holding mod p
    (over Q on the residues, c != -1 would hold at c = p - 1).  With strict,
    a solution no family covers raises UnclassifiedMorphismFound.
    """
    import numpy as np
    flat = morphism_matrices_mod_p(L, p).reshape(-1, L.dim * L.dim)
    covered = {}
    for family in families.values():
        entries, ok = family.mod_p([flat[:, k] for k in family.at], p)
        covered[family.name] = ok & (entries == flat).all(axis=1)
    hits = sum(covered.values(), np.zeros(len(flat), dtype=np.int64))
    unclassified = [tuple(map(int, row)) for row in flat[hits == 0]]
    report = ClassificationReport(
        algebra, p, len(flat), {k: int(v.sum()) for k, v in covered.items() if v.any()},
        int((hits > 1).sum()), unclassified)
    if strict and unclassified:
        raise UnclassifiedMorphismFound(
            f"{len(unclassified)} {algebra} morphisms over F_{p} fall outside "
            f"every family, e.g. {unclassified[0]}")
    return report


# The entry points below are bound by name in perfbench/spans.py.

def _sl2_equation_solutions_mod_p(p: int) -> np.ndarray:
    return morphism_matrices_mod_p(sl2(), p)


def classify_sl2_finite_field(p: int, strict: bool = False) -> ClassificationReport:
    return classify("sl2", sl2(), SL2_FAMILIES, p, strict)


def classify_heisenberg_finite_field(p: int, strict: bool = False) -> ClassificationReport:
    return classify("heisenberg", heisenberg(), HEISENBERG_FAMILIES, p, strict)


def classify_sl2_star_finite_field(p: int, strict: bool = False) -> ClassificationReport:
    return classify("sl2_star", sl2_star(), SL2_STAR_FAMILIES, p, strict)


# ---------------------------------------------------------------------------
# Braidings on the one-dimensional extension C (+) L.
# ---------------------------------------------------------------------------

def extension_space(L: HomLieAlgebra) -> BasedSpace:
    return BasedSpace(("(1,0)",) + L.labels)


def extended_alpha(L: HomLieAlgebra) -> LinearMap:
    """alpha extended by the identity on the added line: (a, x) -> (a, alpha x)."""
    return _one_plus(extension_space(L), L.alpha)


def _extension_braiding(L: HomLieAlgebra, a: TensorOp, b: TensorOp,
                        bracket_left: bool) -> TensorOp:
    """swap (a' (x) a') plus the bracket term, on E (x) E for E = C (+) L.

    a' is 1 (+) a.  The bracket term inc o b o (proj (x) proj), with the
    inclusion L -> E and the projection E -> L, sits beside the unit () -> E:
    in the right tensor factor, or in the left one when bracket_left.
    """
    E, V, n = extension_space(L), L.space, L.dim
    unit = TensorOp._rational((), (E,), 1, (((0, 1),),))
    inc = TensorOp._rational((V,), (E,), 1, tuple(((k + 1, 1),) for k in range(n)))
    proj = TensorOp._rational((E,), (V,), 1, ((),) + tuple(((k, 1),) for k in range(n)))
    a_ext = _one_plus(E, a)
    term = compose(inc, b, tensor_product(proj, proj))
    term = tensor_product(term, unit) if bracket_left else tensor_product(unit, term)
    return compose(swap_op(E), tensor_product(a_ext, a_ext)) + term


def braiding_on_extension(L: HomLieAlgebra) -> TensorOp:
    """The twisted flip plus bracket correction on (C (+) L) tensor itself:

        (a, x) (x) (b, y) -> (b, alpha y) (x) (a, alpha x) + (1, 0) (x) (0, [x, y])
    """
    L.validate()
    return _extension_braiding(L, L.alpha, L.bracket, False)


def braiding_inverse_on_extension(L: HomLieAlgebra) -> TensorOp:
    """The closed-form inverse braiding:

        (a, x) (x) (b, y) -> (b, inv y) (x) (a, inv x) + (0, inv^2 [x, y]) (x) (1, 0)
    """
    L.validate()
    try:
        inv = invert(L.alpha)
    except (Singular, SymbolicNotMonomialInvertible) as exc:
        raise AlphaSingular("alpha is not invertible") from exc
    return _extension_braiding(L, inv, compose(inv, inv, L.bracket), True)


# ---------------------------------------------------------------------------
# Isomorphism testing and the conjugacy obstruction.
# ---------------------------------------------------------------------------

def is_hom_lie_isomorphism(gamma: TensorOp, L1: HomLieAlgebra,
                           L2: HomLieAlgebra) -> bool:
    """gamma, read as a map L1 -> L2, invertible, intertwining the alphas and
    transporting the bracket."""
    if L1.dim != L2.dim or [s.dim for s in gamma.dom + gamma.cod] != [L1.dim] * 2:
        raise DimMismatch("dimension mismatch")
    g = as_op(list(zip(*gamma.dense())), (L1.space,), (L2.space,))
    try:
        invert(g)
    except (Singular, SymbolicNotMonomialInvertible):
        return False
    return (residual((g, L1.alpha), (L2.alpha, g)).is_zero()
            and residual((g, L1.bracket), (L2.bracket, tensor_product(g, g))).is_zero())


def char_poly(m: TensorOp) -> tuple[Scalar, ...]:
    """Monic characteristic polynomial coefficients, highest degree first.

    Faddeev-LeVerrier: only divisions by integers, so it works symbolically.
    """
    ident = identity_op(m.dom)
    coeffs, M = [Scalar.one()], m
    for k in range(1, m.total_dim + 1):
        if k > 1:
            M = compose(m, M + ident.scale(coeffs[-1]))
        trace = sum((s for j, col in enumerate(M.columns) for r, s in col if r == j),
                    Scalar.zero())
        coeffs.append(trace * Fraction(-1, k))
    return tuple(coeffs)


def conjugacy_obstruction(alpha: TensorOp, beta: TensorOp) -> bool:
    """True when the characteristic polynomials differ: a sound witness that
    alpha and beta are not conjugate, hence the twisted algebras not isomorphic."""
    return char_poly(alpha) != char_poly(beta)


# ---------------------------------------------------------------------------
# JSON algebra format.
# ---------------------------------------------------------------------------

def algebra_to_json_dict(L: HomLieAlgebra) -> dict:
    return {
        "dim": L.dim,
        "labels": list(L.labels),
        "c": _sparse_json(L.bracket),
        "alpha": [[str(e) for e in row] for row in L.alpha.dense()],
    }


def algebra_from_json_dict(data: Mapping) -> HomLieAlgebra:
    n = _json_dim(data, 3)
    V = BasedSpace(_json_labels(data, n, "x"))
    alpha = LinearMap(V, _json_dense(data["alpha"], (n, n), "alpha"))
    return HomLieAlgebra(V.labels, _json_sparse(data["c"], (V, V), (V,), "c"), alpha)
