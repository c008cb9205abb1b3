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

The family lists are backed by exhaustive finite-field oracles
(``classify_*_finite_field``) that scan every matrix A over F_p for the
bracket residual A[x_i, x_j] - [A x_i, A x_j] and confirm that the families
cover all morphism solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

# map_chunks stays bound here by name: perfbench/spans.py wraps every binding.
from hombrax.runtime import map_chunks, scan_matrices, scan_size  # noqa: F401
from hombrax.scalars import RationalLike, Scalar
from hombrax.tensor import (BasedSpace, DimMismatch, LinearMap, Singular,
                            SymbolicNotMonomialInvertible, TensorOp, _json_dense,
                            _json_dim, _json_labels, _json_sparse, _on, _OnSpace, _sparse_json,
                            as_op, compose, identity_op, invert, swap_op, tensor_product)

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


def _coerce_scalar(x) -> Scalar:
    return x if isinstance(x, Scalar) else Scalar.rational(x)


class HomLieAlgebra(_OnSpace):
    """Based space + skew bracket L (x) L -> L (a c[i][j][k] grid or operator) + alpha,
    a self-map of a space of the same dimension, held as a self-map of L."""

    __slots__ = ("space", "bracket", "alpha")

    def __init__(self, labels: Sequence[str], brackets, alpha: TensorOp):
        space = BasedSpace(labels)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "bracket", as_op(brackets, (space, space), (space,)))
        object.__setattr__(self, "alpha", _on(alpha, space))

    def bracket_vec(self, i: int, j: int) -> tuple[Scalar, ...]:
        """[x_i, x_j] as a coordinate vector."""
        return tuple(row[i * self.dim + j] for row in self.bracket.dense())

    def is_skew(self) -> bool:
        return skew_residual(self).is_zero()

    def validate(self) -> None:
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

    def __eq__(self, other):
        if not isinstance(other, HomLieAlgebra):
            return NotImplemented
        return (self.space, self.bracket, self.alpha) == (other.space, other.bracket, other.alpha)

    def __repr__(self):
        return f"HomLieAlgebra(labels={self.labels})"


def lie_algebra(labels: Sequence[str],
                bracket_map: Mapping[tuple[int, int], Mapping[int, RationalLike | Scalar]],
                alpha: TensorOp | None = None) -> HomLieAlgebra:
    """Build an algebra from sparse i<j brackets; skew part is filled in."""
    n = len(labels)
    c = [[[Scalar.zero() for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (i, j), vec in bracket_map.items():
        if i == j:
            raise InvariantViolated(f"[x_{i}, x_{i}] must be zero")
        for k, coef in vec.items():
            s = _coerce_scalar(coef)
            c[i][j][k] = c[i][j][k] + s
            c[j][i][k] = c[j][i][k] - s
    return HomLieAlgebra(labels, c, alpha or identity_op(BasedSpace(labels)))


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
    return compose(a, L.bracket) - compose(L.bracket, tensor_product(a, a))


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
# The classified morphism families.
# ---------------------------------------------------------------------------

_SPACE3 = BasedSpace(("X", "Y", "Z"))


def heisenberg_morphism(a12, a13, a22, a23, a32, a33) -> LinearMap:
    """The general Heisenberg self-morphism; X scales by the Y,Z-block determinant."""
    a12, a13, a22, a23, a32, a33 = map(_coerce_scalar, (a12, a13, a22, a23, a32, a33))
    delta = a22 * a33 - a23 * a32
    zero = Scalar.zero()
    return LinearMap(_SPACE3, [[delta, a12, a13],
                                 [zero, a22, a23],
                                 [zero, a32, a33]])


def sl2_star_morphism(kind: int, **params) -> LinearMap:
    """Self-morphisms of the Poincare algebra.

    kind 1 fixes X up to adding Y, Z components and acts freely on the
    plane span(Y, Z); kind 2 sends the plane to zero and scales X by
    a11 != 1, with Y, Z components of the image of X free.
    """
    zero = Scalar.zero()
    if kind == 1:
        a21, a31, a22, a23, a32, a33 = (_coerce_scalar(params.get(k, 0)) for k in
                                        ("a21", "a31", "a22", "a23", "a32", "a33"))
        return LinearMap(_SPACE3, [[Scalar.one(), zero, zero],
                                     [a21, a22, a23],
                                     [a31, a32, a33]])
    if kind == 2:
        a11, a21, a31 = (_coerce_scalar(params.get(k, 0)) for k in ("a11", "a21", "a31"))
        if (a11 - Scalar.one()).is_zero():
            raise ConstraintViolated("kind 2 needs a11 != 1")
        return LinearMap(_SPACE3, [[a11, zero, zero],
                                     [a21, zero, zero],
                                     [a31, zero, zero]])
    raise ConstraintViolated(f"kind must be 1 or 2, got {kind}")


def sl2_morphism(kind: int, a=0, b=0, c=0) -> LinearMap:
    """The four families of sl(2) self-morphisms.

    kind 0 is the zero map.  Kinds 1 and 2 need b != 0 and ac = 0; kind 3
    needs ab != 0 and c != +-1.  All three nonzero kinds have determinant 1.
    """
    a, b, c = map(_coerce_scalar, (a, b, c))
    zero, one = Scalar.zero(), Scalar.one()
    if kind == 0:
        return LinearMap(_SPACE3, [[zero] * 3] * 3)
    if kind in (1, 2):
        if b.is_zero():
            raise ConstraintViolated(f"kind {kind} needs b != 0")
        if not (a * c).is_zero():
            raise ConstraintViolated(f"kind {kind} needs ac = 0")
        binv = b.inverse()
        if kind == 1:
            return LinearMap(_SPACE3, [
                [one, c, a],
                [-2 * a * b, b, -a * a * b],
                [-2 * binv * c, -binv * c * c, binv],
            ])
        return LinearMap(_SPACE3, [
            [-one, c, a],
            [2 * binv * c, -binv * c * c, binv],
            [2 * a * b, b, -a * a * b],
        ])
    if kind == 3:
        if a.is_zero() or b.is_zero():
            raise ConstraintViolated("kind 3 needs ab != 0")
        if (c - one).is_zero() or (c + one).is_zero():
            raise ConstraintViolated("kind 3 needs c != +-1")
        binv = b.inverse()
        cm1_inv = (c - one).inverse()
        inv4a = (4 * a).inverse()
        one_m_c2 = one - c * c
        return LinearMap(_SPACE3, [
            [c, a, one_m_c2 * inv4a],
            [b, a * b * cm1_inv, b * (one - c) * inv4a],
            [one_m_c2 * binv, a * (one - c) * binv,
             (c - one) * (c + one) ** 2 * inv4a * binv],
        ])
    raise ConstraintViolated(f"kind must be 0..3, got {kind}")


# ---------------------------------------------------------------------------
# Finite-field completeness oracles.
# ---------------------------------------------------------------------------

@dataclass
class ClassificationReport:
    algebra: str
    prime: int
    total_solutions: int
    family_counts: dict[str, int]
    overlap_count: int
    unclassified: list[tuple[int, ...]] = field(default_factory=list)

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


def _sl2_equation_solutions_mod_p(p: int) -> np.ndarray:
    """The sl(2) morphism scan (kept for perfbench)."""
    return morphism_matrices_mod_p(sl2(), p)


def _sl2_family_kinds(flat: tuple[int, ...], p: int) -> list[str]:
    """The families containing a solution over F_p.

    a11 is 1 in kind 1, -1 in kind 2 and c in kind 3, so it picks the one
    nonzero family to try.  That family's parameters are read off the
    entries where ``sl2_morphism`` places them, and the solution is in the
    family when the formula at those integer residues, reduced mod p,
    reproduces it.  Residues lie in 0..p-1, so b != 0, ac = 0, ab != 0 and
    c != 1 hold over Q exactly when they hold mod p; c = -1 mod p is p - 1,
    which goes to kind 2.
    """
    kinds = [] if any(flat) else ["zero"]
    if flat[0] == 1:
        kind, a, b, c = 1, flat[2], flat[4], flat[1]
    elif flat[0] == p - 1:
        kind, a, b, c = 2, flat[2], flat[7], flat[1]
    else:
        kind, a, b, c = 3, flat[1], flat[3], flat[0]
    try:
        alpha = sl2_morphism(kind, a, b, c)
    except ConstraintViolated:
        return kinds
    if tuple(x for row in alpha.mod_p(p) for x in row) == flat:
        kinds.append(f"kind{kind}")
    return kinds


def _make_report(algebra: str, p: int, solutions: np.ndarray,
                 member_fn, strict: bool) -> ClassificationReport:
    counts: dict[str, int] = {}
    overlaps = 0
    unclassified: list[tuple[int, ...]] = []
    for mat in solutions:
        flat = tuple(int(x) for x in mat.reshape(-1))
        kinds = member_fn(flat)
        for k in kinds:
            counts[k] = counts.get(k, 0) + 1
        if len(kinds) > 1:
            overlaps += 1
        if not kinds:
            unclassified.append(flat)
    report = ClassificationReport(algebra, p, int(solutions.shape[0]),
                                  counts, overlaps, unclassified)
    if strict and unclassified:
        raise UnclassifiedMorphismFound(
            f"{len(unclassified)} {algebra} morphisms over F_{p} fall outside "
            f"every family, e.g. {unclassified[0]}")
    return report


def classify_sl2_finite_field(p: int, strict: bool = False) -> ClassificationReport:
    """Brute-force sl(2) morphisms over F_p, then cover every solution by the
    four sl(2) families."""
    solutions = morphism_matrices_mod_p(sl2(), p)
    return _make_report("sl2", p, solutions,
                        lambda flat: _sl2_family_kinds(flat, p), strict)


def classify_heisenberg_finite_field(p: int, strict: bool = False) -> ClassificationReport:
    """Brute-force Heisenberg morphisms over F_p; they all lie in one family."""
    solutions = morphism_matrices_mod_p(heisenberg(), p)

    def member(flat: tuple[int, ...]) -> list[str]:
        a11, a12, a13, a21, a22, a23, a31, a32, a33 = flat
        if a21 == 0 and a31 == 0 and a11 == (a22 * a33 - a23 * a32) % p:
            return ["heisenberg"]
        return []

    return _make_report("heisenberg", p, solutions, member, strict)


def classify_sl2_star_finite_field(p: int, strict: bool = False) -> ClassificationReport:
    """Brute-force Poincare-algebra morphisms over F_p against the two families."""
    solutions = morphism_matrices_mod_p(sl2_star(), p)

    def member(flat: tuple[int, ...]) -> list[str]:
        a11, a12, a13, a21, a22, a23, a31, a32, a33 = flat
        kinds = []
        if a11 == 1 and a12 == 0 and a13 == 0:
            kinds.append("kind1")
        if a11 != 1 and not any((a12, a13, a22, a23, a32, a33)):
            kinds.append("kind2")
        return kinds

    return _make_report("sl2_star", p, solutions, member, strict)


# ---------------------------------------------------------------------------
# Braidings on the one-dimensional extension C (+) L.
# ---------------------------------------------------------------------------

def extension_space(L: HomLieAlgebra) -> BasedSpace:
    return BasedSpace(("(1,0)",) + L.labels)


def extended_alpha(L: HomLieAlgebra) -> LinearMap:
    """alpha extended by the identity on the added line: (a, x) -> (a, alpha x)."""
    n = L.dim
    zero, one = Scalar.zero(), Scalar.one()
    rows = [[one] + [zero] * n] + [[zero] + row for row in L.alpha.dense()]
    return LinearMap(extension_space(L), rows)


def _extension_braiding(L: HomLieAlgebra, a: TensorOp, b: TensorOp,
                        bracket_left: bool) -> TensorOp:
    """swap (a' (x) a') plus the bracket term, on E (x) E for E = C (+) L.

    a' = 1 (+) a is unit o coord + inc o a o proj, built from the unit
    () -> E, its coordinate E -> (), the inclusion L -> E and the projection
    E -> L.  The bracket term inc o b o (proj (x) proj) sits beside the unit:
    in the right tensor factor, or in the left one when bracket_left.
    """
    E, V, n = extension_space(L), L.space, L.dim
    unit = TensorOp._rational((), (E,), 1, (((0, 1),),))
    coord = TensorOp._rational((E,), (), 1, (((0, 1),),) + ((),) * n)
    inc = TensorOp._rational((V,), (E,), 1, tuple(((k + 1, 1),) for k in range(n)))
    proj = TensorOp._rational((E,), (V,), 1, ((),) + tuple(((k, 1),) for k in range(n)))
    a_ext = compose(unit, coord) + compose(inc, a, proj)
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
    if compose(g, L1.alpha) != compose(L2.alpha, g):
        return False
    return (compose(g, L1.bracket) - compose(L2.bracket, tensor_product(g, g))).is_zero()


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
    labels = _json_labels(data, n, "x")
    alpha = LinearMap(BasedSpace(labels), _json_dense(data["alpha"], (n, n), "alpha"))
    return HomLieAlgebra(labels, _json_sparse(data["c"], (n, n, n), 2, "c"), alpha)
