"""Every structure-map residual against a dense Fraction contraction oracle.

The structure constants are seeded random rationals that satisfy none of
the axioms, so each residual is compared entry by entry, index conventions
included, not just for being zero.  The oracles are ``numpy.einsum``
contractions of the constant grids (``helpers.contract``) and never touch
the package's compose, tensor-product or index-decoding code.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import contract, fraction_grid, rand_fraction, random_grid
from hombrax.homlie import (
    HomLieAlgebra,
    hom_jacobi_residual,
    is_hom_lie_isomorphism,
    multiplicativity_residual,
    skew_residual,
    twisted_constants,
)
from hombrax.tensor import BasedSpace, LinearMap, invert
from hombrax.yd import (
    AxiomViolation,
    Bialgebra,
    DualQuasiTriangularStructure,
    QuasiTriangularStructure,
    YDModule,
    colinearity_residual,
    comodule_from_qt,
    dqt_braiding_operator,
    group_bialgebra,
    linearity_residual,
    module_from_dqt,
    tau_r_operator,
    yd_braiding,
    yd_residual,
)

SEEDS = range(6)


def same(op, grid) -> bool:
    return (fraction_grid(op) == grid).all()


def eye(n):
    out = np.full((n, n), Fraction(0), dtype=object)
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


def random_bialgebra(rng, d):
    M, U, D, E = (random_grid(rng, d, d, d), random_grid(rng, d),
                  random_grid(rng, d, d, d), random_grid(rng, d))
    H = Bialgebra([f"h{i}" for i in range(d)], M.tolist(), U.tolist(), D.tolist(),
                  E.tolist())
    return H, M, U, D, E


def random_map(rng, space):
    A = random_grid(rng, space.dim, space.dim)
    return LinearMap(space, A.tolist()), A


# -- Hom-Lie algebras ---------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_hom_lie_residuals_match_contraction(seed):
    rng = random.Random(seed)
    n = 2 + seed % 2
    labels = [f"x{i}" for i in range(n)]
    c = random_grid(rng, n, n, n)
    alpha, A = random_map(rng, BasedSpace(labels))
    L = HomLieAlgebra(labels, c.tolist(), alpha)
    assert same(skew_residual(L), c + contract("jik->ijk", c))
    # A[k, m] is the e_k coefficient of alpha(e_m).
    assert same(multiplicativity_residual(L),
                contract("km,ijm->ijk", A, c) - contract("pi,qj,pqk->ijk", A, A, c))
    t = contract("ijp,qk,pqr->ijkr", c, A, c)
    assert same(hom_jacobi_residual(L),
                t + contract("kijr->ijkr", t) + contract("jkir->ijkr", t))
    assert same(twisted_constants(L, alpha), contract("km,ijm->ijk", A, c))


@pytest.mark.parametrize("seed", SEEDS)
def test_hom_lie_isomorphism_matches_contraction(seed):
    rng = random.Random(seed)
    labels = ["x0", "x1", "x2"]
    c = random_grid(rng, 3, 3, 3)
    gamma, G = random_map(rng, BasedSpace(labels))
    while True:
        try:
            Ginv = fraction_grid(invert(gamma)).T
            break
        except ValueError:
            gamma, G = random_map(rng, BasedSpace(labels))
    ident = LinearMap.identity(BasedSpace(labels))
    L1 = HomLieAlgebra(labels, c.tolist(), ident)
    # gamma transports c to c2 = gamma c (gamma^-1 (x) gamma^-1).
    c2 = contract("km,pqm,pi,qj->ijk", G, c, Ginv, Ginv)
    L2 = HomLieAlgebra(labels, c2.tolist(), ident)
    assert is_hom_lie_isomorphism(gamma, L1, L2)
    c2[0, 1, 2] += 1
    assert not is_hom_lie_isomorphism(gamma, L1, HomLieAlgebra(labels, c2.tolist(), ident))


# -- bialgebras, (co)modules and the YD condition ------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_bialgebra_axiom_residuals_match_contraction(seed):
    rng = random.Random(seed)
    d = 2 + seed % 2
    H, M, U, D, E = random_bialgebra(rng, d)
    I = eye(d)
    want = [
        [contract("ije,ekr->ijkr", M, M) - contract("jke,ier->ijkr", M, M)],
        [contract("e,eir->ir", U, M) - I, contract("e,ier->ir", U, M) - I],
        [contract("iae,ebc->iabc", D, D) - contract("iec,eab->iabc", D, D)],
        [contract("a,iak->ik", E, D) - I, contract("ika,a->ik", D, E) - I],
        [contract("ijk,kab->ijab", M, D)
         - contract("ipq,jrs,pra,qsb->ijab", D, D, M, M)],
        [contract("ijk,k->ij", M, E) - contract("i,j->ij", E, E)],
        [contract("i,iab->ab", U, D) - contract("a,b->ab", U, U)],
        [contract("i,i->", U, E) - 1],
    ]
    axioms = H.axioms()
    assert len(axioms) == len(want)
    for (_, *residuals), grids in zip(axioms, want):
        assert len(residuals) == len(grids)
        assert all(same(r, g) for r, g in zip(residuals, grids))
    with pytest.raises(AxiomViolation):
        H.check_axioms()


@pytest.mark.parametrize("seed", SEEDS)
def test_module_comodule_and_yd_residuals_match_contraction(seed):
    rng = random.Random(seed)
    d, n = 2, 2 + seed % 2
    H = group_bialgebra(d)  # valid host, so yd_residual reaches the condition
    M, U, D, E = (fraction_grid(H.mult), fraction_grid(H.unit), fraction_grid(H.comult),
                  fraction_grid(H.counit))
    A, C = random_grid(rng, d, n, n), random_grid(rng, n, d, n)
    labels = [f"v{i}" for i in range(n)]
    V = YDModule(H, labels, A.tolist(), C.tolist())
    In = eye(n)
    (_, assoc), (_, unit) = V.module_axioms()
    assert same(assoc, contract("abh,hik->abik", M, A) - contract("bij,ajk->abik", A, A))
    assert same(unit, contract("h,hik->ik", U, A) - In)
    (_, coassoc), (_, counit) = V.comodule_axioms()
    assert same(coassoc, contract("ihm,mgk->ihgk", C, C) - contract("iek,ehg->ihgk", C, D))
    assert same(counit, contract("h,ihk->ik", E, C) - In)
    alpha, Al = random_map(rng, V.space)
    assert same(colinearity_residual(alpha, V),
                contract("ui,uhk->ihk", Al, C) - contract("ihw,kw->ihk", C, Al))
    assert same(linearity_residual(alpha, V),
                contract("hiu,ku->hik", A, Al) - contract("wi,hwk->hik", Al, A))
    # The YD condition itself, on modules and comodules that pass their axioms:
    # g1 acts by a random involution and the grading comes from a random
    # projector, so the residual is nonzero in varying places.
    a, b, t = rand_fraction(rng), rand_fraction(rng, nonzero=True), rand_fraction(rng)
    A2 = np.array([[[1, 0], [0, 1]], [[a, (1 - a * a) / b], [b, -a]]], dtype=object)
    P = np.array([[1, t], [0, 0]], dtype=object)
    C2 = np.stack([P.T, eye(2) - P.T], axis=1)  # C2[i, h, k]: g_h (x) v_k in rho(v_i)
    W = YDModule(H, ["v0", "v1"], A2.tolist(), C2.tolist())
    lhs = contract("apq,imw,pmh,qwk->aihk", D, C2, M, A2)
    rhs = contract("apq,piu,ugk,gqh->aihk", D, A2, C2, M)
    assert same(yd_residual(W), lhs - rhs)


@pytest.mark.parametrize("seed", SEEDS)
def test_yd_braiding_matches_contraction(seed):
    # Z/2-graded modules on which g1 preserves the grading: YD, with a
    # non-diagonal action on the odd part.
    rng = random.Random(seed)
    a, b = rand_fraction(rng), rand_fraction(rng, nonzero=True)
    sign = rng.choice([1, -1])
    g1 = np.array([[sign, 0, 0], [0, a, (1 - a * a) / b], [0, b, -a]], dtype=object)
    A = np.stack([eye(3), g1.T])  # A[h, i, k]: v_k coefficient of g_h . v_i
    C = np.full((3, 2, 3), Fraction(0), dtype=object)
    for i, h in enumerate((0, 1, 1)):
        C[i, h, i] = Fraction(1)
    V = YDModule(group_bialgebra(2), ["v0", "v1", "v2"], A.tolist(), C.tolist())
    assert yd_residual(V).is_zero()
    assert same(yd_braiding(V), contract("ihw,hjk->ijkw", C, A))


# -- quasi-triangular and dual quasi-triangular structures ---------------------

# Random structures satisfy no axiom; these subclasses skip the check made on
# construction so the residuals can be compared with the oracle.

class UncheckedQT(QuasiTriangularStructure):
    __slots__ = ()

    def check_axioms(self) -> None:
        pass


class UncheckedDQT(DualQuasiTriangularStructure):
    __slots__ = ()

    def check_axioms(self) -> None:
        pass


# The Z/2 R-matrix R = (1 (x) 1 + 1 (x) g + g (x) 1 - g (x) g) / 2, and the
# bicharacter form (-1)^(ij); both are their own inverses.
HALF = Fraction(1, 2)
Z2_R = [[HALF, HALF], [HALF, -HALF]]
Z2_FORM = [[1, 1], [1, -1]]


@pytest.mark.parametrize("seed", SEEDS)
def test_qt_residuals_match_contraction(seed):
    rng = random.Random(seed)
    H, M, U, D, E = random_bialgebra(rng, 2)
    R, S = random_grid(rng, 2, 2), random_grid(rng, 2, 2)
    qt = UncheckedQT(H, R.tolist(), S.tolist())
    r13 = contract("ik,j->ijk", R, U)
    mult3 = "ijk,lmn,ila,jmb,knc->abc"
    want = [
        [contract("ij,kl,ika,jlb->ab", R, S, M, M) - contract("a,b->ab", U, U),
         contract("ij,kl,ika,jlb->ab", S, R, M, M) - contract("a,b->ab", U, U)],
        [contract("xji,kl,ika,jlb->xab", D, R, M, M)
         - contract("ij,xkl,ika,jlb->xab", R, D, M, M)],
        [contract("ek,eij->ijk", R, D)
         - contract(mult3, r13, contract("i,jk->ijk", U, R), M, M, M)],
        [contract("ie,ejk->ijk", R, D)
         - contract(mult3, r13, contract("ij,k->ijk", R, U), M, M, M)],
    ]
    for (_, *residuals), grids in zip(qt.axioms(), want):
        assert all(same(r, g) for r, g in zip(residuals, grids))
    labels = ["v0", "v1"]
    A = random_grid(rng, 2, 2, 2)
    assert same(tau_r_operator(labels, A.tolist(), qt),
                contract("st,tjl,siw->ijlw", R, A, A))


@pytest.mark.parametrize("seed", SEEDS)
def test_dqt_residuals_match_contraction(seed):
    rng = random.Random(seed)
    H, M, U, D, E = random_bialgebra(rng, 2)
    F, G = random_grid(rng, 2, 2), random_grid(rng, 2, 2)
    dqt = UncheckedDQT(H, F.tolist(), G.tolist())
    want = [
        [contract("apq,brs,pr,qs->ab", D, D, F, G) - contract("a,b->ab", E, E),
         contract("apq,brs,pr,qs->ab", D, D, G, F) - contract("a,b->ab", E, E)],
        [contract("apq,brs,qs,rpk->abk", D, D, F, M)
         - contract("apq,brs,pr,qsk->abk", D, D, F, M)],
        [contract("abk,kc->abc", M, F) - contract("cpq,ap,bq->abc", D, F, F)],
        [contract("bck,ak->abc", M, F) - contract("apq,pc,qb->abc", D, F, F)],
    ]
    for (_, *residuals), grids in zip(dqt.axioms(), want):
        assert all(same(r, g) for r, g in zip(residuals, grids))
    labels = ["v0", "v1"]
    C = random_grid(rng, 2, 2, 2)
    assert same(dqt_braiding_operator(labels, C.tolist(), dqt),
                contract("gh,jgu,ihw->ijuw", F, C, C))


@pytest.mark.parametrize("seed", SEEDS)
def test_induced_coaction_and_action_match_contraction(seed):
    rng = random.Random(seed)
    H = group_bialgebra(2)
    a, b, t = rand_fraction(rng), rand_fraction(rng, nonzero=True), rand_fraction(rng)
    # Any Z/2-module: g1 acts by an involution.
    A = np.array([[[1, 0], [0, 1]], [[a, (1 - a * a) / b], [b, -a]]], dtype=object)
    V = comodule_from_qt(["v0", "v1"], A.tolist(), QuasiTriangularStructure(H, Z2_R, Z2_R))
    assert same(V.coaction, contract("sh,sjk->jhk", np.array(Z2_R, dtype=object), A))
    # Any Z/2-comodule: a grading by the projector P = [[1, t], [0, 0]].
    P = np.array([[1, t], [0, 0]], dtype=object)
    C = np.stack([P.T, eye(2) - P.T], axis=1)
    W = module_from_dqt(["v0", "v1"], C.tolist(), DualQuasiTriangularStructure(H, Z2_FORM,
                                                                             Z2_FORM))
    assert same(W.action, contract("ihk,ha->aik", C, np.array(Z2_FORM, dtype=object)))
