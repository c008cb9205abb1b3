"""Shared test utilities: independent dense oracles and gallery builders.

The dense helpers here deliberately avoid the package's sparse composition
and tensor-product code paths so they can serve as oracles for them.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from hombrax.braid import tensor_power_solution
from hombrax.homlie import (
    HomLieAlgebra,
    braiding_inverse_on_extension,
    braiding_on_extension,
    heisenberg,
    heisenberg_morphism,
    sl2,
    sl2_morphism,
    sl2_star,
    sl2_star_morphism,
    yau_twist,
)
from hombrax.hybe import twist
from hombrax.quantum import (
    PHI_SPACE,
    CompatibleAlpha,
    bql,
    induced_solution,
    maximal_patterns,
    phi,
)
from hombrax.scalars import Scalar
from hombrax.tensor import BasedSpace, LinearMap, TensorOp


def rand_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if not nonzero or f != 0:
            return f


def dense_matmul(a, b):
    """Plain triple-loop Scalar matrix product (oracle for compose)."""
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Scalar.zero())
             for j in range(n)] for i in range(n)]


def dense_kron(a, b):
    """Plain dense Kronecker product (oracle for tensor_product/lift)."""
    na, nb = len(a), len(b)
    out = [[Scalar.zero()] * (na * nb) for _ in range(na * nb)]
    for i in range(na):
        for j in range(na):
            for k in range(nb):
                for l in range(nb):
                    out[i * nb + k][j * nb + l] = a[i][j] * b[k][l]
    return out


def fraction_matrix(op: TensorOp) -> list[list[Fraction]]:
    """Dense Fraction matrix of an operator whose entries are all rational."""
    n = op.total_dim
    out = [[Fraction(0)] * n for _ in range(n)]
    for j, col in enumerate(op.columns):
        for r, s in col:
            out[r][j] = s.constant_value()
    return out


def fraction_matmul(a, b):
    """Plain triple-loop Fraction matrix product (oracle for rational compose)."""
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]


def fraction_grid(op: TensorOp) -> np.ndarray:
    """The entries of a map between words as an object array of Fractions,
    indexed by the domain's indices, then the codomain's.  The multi-indices
    come from numpy's row-major reshape, not from the package's decoding."""
    rows = int(np.prod([s.dim for s in op.cod]))
    dense = np.full((rows, len(op.columns)), Fraction(0), dtype=object)
    for j, col in enumerate(op.columns):
        for r, s in col:
            dense[r, j] = s.constant_value()
    return dense.T.reshape([s.dim for s in op.dom + op.cod])


def random_grid(rng: random.Random, *shape: int, density: float = 0.6) -> np.ndarray:
    """Seeded random rational structure constants of the given shape."""
    out = np.full(shape, Fraction(0), dtype=object)
    for idx in np.ndindex(*shape):
        if rng.random() < density:
            out[idx] = rand_fraction(rng)
    return out


def contract(spec: str, *grids: np.ndarray) -> np.ndarray:
    """Dense exact contraction of Fraction grids: the einsum oracle that every
    structure-map residual is compared with, entry by entry."""
    return np.einsum(spec, *grids)


def dense_equal(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def random_op(rng: random.Random, space: BasedSpace, arity: int,
              density: float = 0.4) -> TensorOp:
    n = space.dim ** arity
    cols = {}
    for j in range(n):
        cols[j] = [(r, Scalar.rational(rand_fraction(rng)))
                   for r in range(n) if rng.random() < density]
    return TensorOp(space, arity, cols)


# -- galleries ---------------------------------------------------------------

GALLERY_POINT = {"q": 2, "l": 1}


def phi_alpha_symbolic() -> tuple[TensorOp, LinearMap]:
    """The twisted braiding for diagonal alpha, fully symbolic."""
    alpha = LinearMap.diagonal(PHI_SPACE, [Scalar.param("a"), Scalar.param("d")])
    return twist(phi(), alpha), alpha


def phi_alpha_rational(a=1, d=3) -> tuple[TensorOp, LinearMap]:
    alpha = LinearMap.diagonal(PHI_SPACE, [a, d])
    return twist(phi(), alpha).instantiate(GALLERY_POINT), alpha


def random_heisenberg_twist(rng: random.Random, invertible: bool = True) -> HomLieAlgebra:
    while True:
        params = [rand_fraction(rng) for _ in range(6)]
        alpha = heisenberg_morphism(*params)
        delta = alpha.entry(0, 0)
        if not invertible or not delta.is_zero():
            return yau_twist(heisenberg(), alpha)


def random_sl2_star_twist(rng: random.Random, invertible: bool = True) -> HomLieAlgebra:
    while True:
        names = ("a21", "a31", "a22", "a23", "a32", "a33")
        params = {n: rand_fraction(rng) for n in names}
        alpha = sl2_star_morphism(1, **params)
        det = params["a22"] * params["a33"] - params["a23"] * params["a32"]
        if not invertible or det != 0:
            return yau_twist(sl2_star(), alpha)


def random_sl2_morphism(rng: random.Random, kind: int | None = None) -> LinearMap:
    kind = kind if kind is not None else rng.choice([1, 2, 3])
    if kind in (1, 2):
        b = rand_fraction(rng, nonzero=True)
        if rng.random() < 0.5:
            return sl2_morphism(kind, 0, b, rand_fraction(rng))
        return sl2_morphism(kind, rand_fraction(rng), b, 0)
    while True:
        a = rand_fraction(rng, nonzero=True)
        b = rand_fraction(rng, nonzero=True)
        c = rand_fraction(rng)
        if c != 1 and c != -1:
            return sl2_morphism(3, a, b, c)


def random_sl2_twist(rng: random.Random) -> HomLieAlgebra:
    return yau_twist(sl2(), random_sl2_morphism(rng))


def extension_instances(rng: random.Random, count: int) -> list[HomLieAlgebra]:
    """Invertible twisted instances cycling through the three algebra families."""
    makers = [random_heisenberg_twist, random_sl2_star_twist, random_sl2_twist]
    return [makers[i % 3](rng) for i in range(count)]


def rational_gallery() -> dict[str, TensorOp]:
    """Every rational family at fixed seeded points, by name.

    phi and bql(3) at GALLERY_POINT, the bql(3) solutions induced by the
    maximal N=3 patterns, three extension braidings with their closed-form
    inverses, and the n=2 tensor-power braiding of phi.
    """
    rng = random.Random(2)
    b, alpha = phi_alpha_rational()
    gallery = {"phi": b, "bql3": bql(3).instantiate(GALLERY_POINT)}
    for k, pattern in enumerate(maximal_patterns(3)):
        values = {c: rand_fraction(rng, nonzero=True) for c in pattern.support}
        gallery[f"induced{k}"] = induced_solution(
            CompatibleAlpha(pattern, values)).instantiate(GALLERY_POINT)
    for k, twisted in enumerate(extension_instances(rng, 3)):
        gallery[f"extension{k}"] = braiding_on_extension(twisted)
        gallery[f"extension{k}_inverse"] = braiding_inverse_on_extension(twisted)
    gallery["phi_power2"] = tensor_power_solution(b, alpha, 2)[0]
    return gallery
