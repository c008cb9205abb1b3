"""The verification core: compatibility, YBE/HYBE residuals, twisting, braids."""

import random

import pytest

from helpers import (
    dense_matmul,
    dense_kron,
    dense_equal,
    phi_alpha_rational,
    phi_alpha_symbolic,
    random_heisenberg_twist,
    random_sl2_star_twist,
    random_sl2_twist,
)
from hombrax.homlie import (
    braiding_inverse_on_extension,
    braiding_on_extension,
    extended_alpha,
)
from hombrax.hybe import (
    IncompatiblePair,
    IndexOutOfRange,
    NotYBESolution,
    braid_relation_residuals,
    build_Bi,
    compatibility_residual,
    hybe_residual,
    twist,
    ybe_residual,
)
from hombrax.quantum import (
    CompatibleAlpha,
    PHI_SPACE,
    SupportPattern,
    bql,
    enumerate_patterns,
    phi,
)
from hombrax.scalars import Scalar
from hombrax.tensor import (
    BasedSpace,
    LinearMap,
    as_op,
    compose,
    identity_op,
    invert,
    lift,
    rebase,
    swap_op,
    tensor_product,
)

V2 = BasedSpace.of_dim(2)


def generic_alpha(space):
    names = "abcdefghijklmnop"
    n = space.dim
    return LinearMap(space, [[Scalar.param(names[i * n + j]) for j in range(n)]
                             for i in range(n)])


def test_swap_commutes_with_any_alpha_squared():
    assert compatibility_residual(swap_op(V2), generic_alpha(V2)).is_zero()


def test_phi_compatibility_with_diagonal():
    alpha = LinearMap.diagonal(PHI_SPACE, [Scalar.param("a"), Scalar.param("d")])
    assert compatibility_residual(phi(), alpha).is_zero()


def test_phi_compatibility_fails_with_lower_corner():
    alpha = LinearMap(PHI_SPACE, [[Scalar.param("a"), Scalar.zero()],
                                  [Scalar.param("c"), Scalar.param("d")]])
    assert not compatibility_residual(phi(), alpha).is_zero()


def test_ybe_residuals():
    assert ybe_residual(swap_op(V2)).is_zero()
    assert ybe_residual(phi()).is_zero()
    assert ybe_residual(bql(3)).is_zero()


def test_hybe_with_identity_is_structurally_ybe():
    for b in (swap_op(V2), rebase(phi(), V2, 2), bql(2)):
        assert hybe_residual(b, LinearMap.identity(V2)) == ybe_residual(b)


def test_hybe_zero_for_twisted_phi_all_shapes():
    shapes = [
        [[Scalar.zero(), Scalar.param("b")], [Scalar.zero(), Scalar.zero()]],
        [[Scalar.zero(), Scalar.zero()], [Scalar.param("c"), Scalar.zero()]],
        [[Scalar.param("a"), Scalar.zero()], [Scalar.zero(), Scalar.param("d")]],
    ]
    for rows in shapes:
        alpha = LinearMap(PHI_SPACE, rows)
        assert hybe_residual(twist(phi(), alpha), alpha).is_zero()


_W = BasedSpace.of_dim(2, prefix="w")


@pytest.mark.parametrize("check", [
    hybe_residual, twist, compatibility_residual,
    lambda B, alpha: build_Bi(B, alpha, 3, 1),
    lambda B, alpha: build_Bi(B, alpha, 3, 2),
], ids=["hybe_residual", "twist", "compatibility_residual", "build_Bi 1", "build_Bi 2"])
@pytest.mark.parametrize("bad", [
    lift(LinearMap.identity(PHI_SPACE), 2),
    as_op([[1, 0], [0, 1]], (PHI_SPACE,), (_W,)),
    identity_op(_W),
    swap_op(PHI_SPACE, _W),
], ids=["arity 2 on V", "V to W", "self-map of W", "V W to W V"])
def test_alpha_must_be_a_self_map_of_V(check, bad):
    with pytest.raises(ValueError):
        check(phi(), bad)


def test_hybe_requires_compatibility():
    alpha = LinearMap(PHI_SPACE, [[1, 1], [0, 1]])
    with pytest.raises(IncompatiblePair):
        hybe_residual(phi(), alpha)


def test_hybe_sides_match_dense_evaluation_oracle():
    # Twisted N=3 solution at q=2: both sides evaluated densely on all
    # 27 basis vectors by plain matrix products, no sparse machinery.
    pattern = SupportPattern(3, {1: 1, 2: 3})
    alpha = CompatibleAlpha(pattern, {1: 2, 2: 3}).to_linear_map()
    b = twist(bql(3).instantiate({"q": 2, "l": 1}), alpha)
    a1 = alpha.dense()
    bd = b.dense()
    ab = dense_kron(a1, bd)
    ba = dense_kron(bd, a1)
    lhs = dense_matmul(ab, dense_matmul(ba, ab))
    rhs = dense_matmul(ba, dense_matmul(ab, ba))
    assert dense_equal(lhs, rhs)
    assert hybe_residual(b, alpha).is_zero()


def test_twist_contracts():
    alpha = generic_alpha(V2)
    tau_twisted = twist(swap_op(V2), alpha)
    assert tau_twisted == compose(lift(alpha, 2), swap_op(V2))
    assert hybe_residual(tau_twisted, alpha).is_zero()
    with pytest.raises(NotYBESolution):
        from hombrax.tensor import TensorOp
        # cyclic shift of the four basis pairs: fails the YBE
        one = Scalar.one()
        shift = TensorOp(V2, 2, {0: [(1, one)], 1: [(2, one)],
                                 2: [(3, one)], 3: [(0, one)]})
        assert not ybe_residual(shift).is_zero()
        twist(shift, LinearMap.identity(V2))
    with pytest.raises(IncompatiblePair):
        twist(phi(), LinearMap(PHI_SPACE, [[1, 1], [0, 1]]))


def test_build_Bi_shapes():
    b, alpha = phi_alpha_symbolic()
    assert build_Bi(b, alpha, 2, 1) == b
    assert build_Bi(b, alpha, 4, 2) == tensor_product(tensor_product(alpha, b), alpha)
    assert build_Bi(b, alpha, 3, 2) == tensor_product(alpha, b)
    assert build_Bi(b, alpha, 3, 1) == tensor_product(b, alpha)
    with pytest.raises(IndexOutOfRange):
        build_Bi(b, alpha, 3, 3)
    with pytest.raises(IndexOutOfRange):
        build_Bi(b, alpha, 2, 0)


def test_braid_relations_tau():
    residuals = braid_relation_residuals(swap_op(V2), LinearMap.identity(V2), 3)
    assert all(r.is_zero() for r in residuals)


def test_braid_relations_phi_alpha_symbolic_n4():
    b, alpha = phi_alpha_symbolic()
    residuals = braid_relation_residuals(b, alpha, 4)
    assert len(residuals) == 3  # one far pair, two adjacent triples
    assert all(r.is_zero() for r in residuals)


def test_braid_relations_extension_braiding():
    import hombrax.homlie as homlie
    twisted = homlie.yau_twist(homlie.sl2(), homlie.sl2_morphism(1, 0, 2, 0))
    b = braiding_on_extension(twisted)
    alpha = extended_alpha(twisted)
    residuals = braid_relation_residuals(b, alpha, 4)
    assert all(r.is_zero() for r in residuals)


def test_inverse_pair_is_solution_on_extension_family():
    rng = random.Random(42)
    for make in (random_heisenberg_twist, random_sl2_star_twist, random_sl2_twist):
        twisted = make(rng)
        b = braiding_on_extension(twisted)
        alpha = extended_alpha(twisted)
        assert hybe_residual(b, alpha).is_zero()
        b_inv = invert(b)
        assert b_inv == braiding_inverse_on_extension(twisted)
        alpha_inv = invert(alpha)
        assert hybe_residual(b_inv, alpha_inv).is_zero()


def test_gallery_braid_relations_follow_from_hybe():
    # The full n = 3, 4 sweep over every gallery member is an acceptance
    # criterion; this keeps a representative cross-section in the module suite.
    rng = random.Random(9)
    gallery = [(b, a, (3, 4)) for b, a in (phi_alpha_rational(), phi_alpha_symbolic())]
    for pat in enumerate_patterns(2):
        alpha = CompatibleAlpha.symbolic(pat).to_linear_map()
        gallery.append((twist(bql(2), alpha), alpha, (3,)))
    twisted = random_sl2_twist(rng)
    gallery.append((braiding_on_extension(twisted), extended_alpha(twisted), (3,)))
    for b, alpha, strand_counts in gallery:
        assert compatibility_residual(b, alpha).is_zero()
        assert hybe_residual(b, alpha).is_zero()
        for n in strand_counts:
            assert all(r.is_zero() for r in braid_relation_residuals(b, alpha, n))
