"""Bialgebras, Yetter-Drinfel'd modules, and the induced braidings."""

import json

import pytest

from hombrax.cli import main
from hombrax.hybe import hybe_residual, ybe_residual
from hombrax.scalars import Scalar
from hombrax.tensor import LinearMap, swap_op
from hombrax.yd import (
    AxiomViolation,
    Bialgebra,
    DualQuasiTriangularStructure,
    NotYD,
    QuasiTriangularStructure,
    YDModule,
    check_colinearity,
    check_linearity,
    comodule_from_qt,
    dqt_braiding_operator,
    group_bialgebra,
    module_from_dqt,
    module_from_json_dict,
    module_to_json_dict,
    tau_r_operator,
    trivial_qt,
    yd_braiding,
    yd_condition_residual,
    yd_residual,
    z2_bicharacter_dqt,
    z2_sign_module,
)

ONE, ZERO = Scalar.one(), Scalar.zero()
SIGN_ACTION = [[[ONE, ZERO], [ZERO, ONE]], [[ONE, ZERO], [ZERO, -ONE]]]
GRADING_COACTION = [[[ONE, ZERO], [ZERO, ZERO]], [[ZERO, ZERO], [ZERO, ONE]]]


def test_group_bialgebra_axioms():
    for m in range(1, 7):
        H = group_bialgebra(m)
        H.check_axioms()
        assert H.is_cocommutative()


def test_trivial_host_any_module_is_yd():
    H = group_bialgebra(1)
    V = YDModule(H, ("v0", "v1"), [[[ONE, ZERO], [ZERO, ONE]]],
                 [[[ONE, ZERO]], [[ZERO, ONE]]])
    assert yd_residual(V).is_zero()
    assert yd_braiding(V) == swap_op(V.space)


def test_z2_gallery_is_yd_and_braids_by_parity():
    V = z2_sign_module()
    assert yd_residual(V).is_zero()
    B = yd_braiding(V)
    # super-flip: v_i (x) v_j -> (-1)^(ij) v_j (x) v_i
    assert B.column(0) == ((0, ONE),)
    assert B.column(1) == ((2, ONE),)
    assert B.column(2) == ((1, ONE),)
    assert B.column(3) == ((3, -ONE),)
    assert ybe_residual(B).is_zero()


def test_corrupted_action_breaks_yd_but_not_axioms():
    H = group_bialgebra(2)
    flip_action = [[[ONE, ZERO], [ZERO, ONE]], [[ZERO, ONE], [ONE, ZERO]]]
    V = YDModule(H, ("v0", "v1"), flip_action, GRADING_COACTION)
    V.check_module()
    V.check_comodule()
    assert not yd_residual(V).is_zero()
    with pytest.raises(NotYD):
        yd_braiding(V)


def test_axiom_violation_on_broken_module():
    H = group_bialgebra(2)
    broken = [[[ONE, ZERO], [ZERO, ONE]], [[ZERO, ZERO], [ZERO, -ONE]]]  # g.v0 = 0
    V = YDModule(H, ("v0", "v1"), broken, GRADING_COACTION)
    with pytest.raises(AxiomViolation):
        yd_condition_residual(V)


def test_colinearity_and_linearity_checks():
    V = z2_sign_module()
    ident = LinearMap.identity(V.space)
    assert check_colinearity(ident, V) and check_linearity(ident, V)
    t = Scalar.param("a")
    diag = LinearMap.diagonal(V.space, [Scalar.one(), t])
    assert check_colinearity(diag, V) and check_linearity(diag, V)
    flip = LinearMap(V.space, [[0, 1], [1, 0]])
    assert not check_colinearity(flip, V)
    assert not check_linearity(flip, V)


def test_yd_braiding_hybe_for_scalar_and_graded_alphas():
    V = z2_sign_module()
    B = yd_braiding(V)
    for alpha in (LinearMap.diagonal(V.space, [3, 3]),
                  LinearMap.diagonal(V.space, [Scalar.param("a"),
                                               Scalar.param("d")])):
        assert check_colinearity(alpha, V) and check_linearity(alpha, V)
        assert hybe_residual(B, alpha).is_zero()


def test_comodule_from_qt_and_corollary_consistency():
    H = group_bialgebra(2)
    qt = trivial_qt(H)
    V = comodule_from_qt(("v0", "v1"), SIGN_ACTION, qt)
    # rho(v) = 1 (x) v
    for i in range(2):
        assert V.coaction.entry(i, i).is_one()  # g0 (x) v_i in rho(v_i)
    B = yd_braiding(V)
    assert B == swap_op(V.space)
    assert B == tau_r_operator(("v0", "v1"), SIGN_ACTION, qt)


def test_qt_axioms_reject_noncocommutative_r():
    H = group_bialgebra(2)
    bad_r = [[ONE, ZERO], [ZERO, ONE]]  # 1x1 + gxg is not invertible-compatible
    with pytest.raises(AxiomViolation):
        QuasiTriangularStructure(H, bad_r, bad_r)


def test_module_from_dqt_and_corollary_consistency():
    dqt = z2_bicharacter_dqt()
    V = module_from_dqt(("v0", "v1"), GRADING_COACTION, dqt)
    assert V.action == z2_sign_module().action
    B = yd_braiding(V)
    assert B == dqt_braiding_operator(("v0", "v1"), GRADING_COACTION, dqt)
    assert ybe_residual(B).is_zero()
    for alpha in (LinearMap.identity(V.space),
                  LinearMap.diagonal(V.space, [1, 5])):
        assert check_colinearity(alpha, V)
        assert hybe_residual(B, alpha).is_zero()


def test_dqt_trivial_form_gives_counit_action_and_flip():
    H = group_bialgebra(2)
    eps_form = [[ONE, ONE], [ONE, ONE]]  # R = eps (x) eps
    dqt = DualQuasiTriangularStructure(H, eps_form, eps_form)
    V = module_from_dqt(("v0", "v1"), GRADING_COACTION, dqt)
    for h in range(2):
        for i in range(2):
            for k in range(2):
                want = ONE if i == k else ZERO
                assert V.action.entry(k, 2 * h + i) == want
    assert yd_braiding(V) == swap_op(V.space)


def test_corrupted_dqt_form_fails_condition_two():
    H = group_bialgebra(2)
    form = [[ONE, ONE], [ONE, Scalar.rational(2)]]
    inv = [[ONE, ONE], [ONE, Scalar.rational(2).inverse()]]
    with pytest.raises(AxiomViolation):
        DualQuasiTriangularStructure(H, form, inv)


def test_module_morphism_implies_comodule_morphism_over_qt():
    # over a QT structure the induced coaction is built from the action,
    # so module morphisms are automatically comodule morphisms
    H = group_bialgebra(2)
    qt = trivial_qt(H)
    V = comodule_from_qt(("v0", "v1"), SIGN_ACTION, qt)
    candidates = [
        LinearMap.identity(V.space),
        LinearMap.diagonal(V.space, [Scalar.param("a"), Scalar.param("d")]),
        LinearMap(V.space, [[0, 1], [1, 0]]),
        LinearMap(V.space, [[1, 1], [0, 1]]),
    ]
    for alpha in candidates:
        if check_linearity(alpha, V):
            assert check_colinearity(alpha, V)
    dqt = z2_bicharacter_dqt()
    W = module_from_dqt(("v0", "v1"), GRADING_COACTION, dqt)
    for alpha in candidates:
        if check_colinearity(alpha, W):
            assert check_linearity(alpha, W)


def test_thm_16_end_to_end_over_gallery():
    H = group_bialgebra(2)
    galleries = [
        z2_sign_module(),
        comodule_from_qt(("v0", "v1"), SIGN_ACTION, trivial_qt(H)),
        module_from_dqt(("v0", "v1"), GRADING_COACTION, z2_bicharacter_dqt()),
    ]
    candidates = [
        LinearMap.identity(galleries[0].space),
        LinearMap.diagonal(galleries[0].space, [Scalar.param("a"),
                                                Scalar.param("d")]),
        LinearMap.diagonal(galleries[0].space, [2, 0]),
        LinearMap(galleries[0].space, [[0, 1], [1, 0]]),
        LinearMap(galleries[0].space, [[1, 1], [0, 1]]),
    ]
    for V in galleries:
        B = yd_braiding(V)
        assert ybe_residual(B).is_zero()
        for alpha in candidates:
            if check_colinearity(alpha, V) and check_linearity(alpha, V):
                assert hybe_residual(B, alpha).is_zero()


def test_module_json_round_trip():
    V = z2_sign_module()
    text = json.dumps(module_to_json_dict(V), sort_keys=True)
    again = module_from_json_dict(json.loads(text))
    assert again.action == V.action and again.coaction == V.coaction
    assert json.dumps(module_to_json_dict(again), sort_keys=True) == text


def _count_axiom_checks(monkeypatch) -> list:
    """The hosts whose Bialgebra.axioms are built, one entry per build."""
    calls = []
    real = Bialgebra.axioms

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Bialgebra, "axioms", counted)
    return calls


def test_bialgebra_axioms_are_checked_once_per_object(monkeypatch):
    calls = _count_axiom_checks(monkeypatch)
    module = z2_sign_module()
    H = module.host
    V = comodule_from_qt(module.labels, module.action, trivial_qt(H))
    yd_condition_residual(V)
    yd_braiding(V)
    H.check_axioms()
    assert calls == [H]
    # A counit of zero breaks the counit law: each call checks it again.
    broken = Bialgebra(H.labels, H.mult, H.unit, H.comult, [ZERO, ZERO])
    for _ in range(3):
        with pytest.raises(AxiomViolation, match="counit law"):
            broken.check_axioms()
    assert calls == [H] + [broken] * 3


@pytest.mark.parametrize("gallery", ["z2", "trivial"])
def test_yd_verify_checks_the_host_once(monkeypatch, capsys, gallery):
    calls = _count_axiom_checks(monkeypatch)
    assert main(["yd", "verify", "--gallery", gallery]) == 0
    assert "PASS" in capsys.readouterr().out
    assert len(calls) == 1


def test_yd_verify_builds_the_residual_once(monkeypatch, capsys):
    # comodule_from_qt checks the induced module and the verdict line reads
    # the residual again: one build serves both.
    from hombrax import yd

    built, build = [], yd.residual

    def counted(lhs, rhs):
        res = build(lhs, rhs)
        if res.dom == res.cod and [s.labels for s in res.dom] == [("g0", "g1"), ("v0", "v1")]:
            built.append(res)
        return res

    monkeypatch.setattr(yd, "residual", counted)
    assert main(["yd", "verify", "--gallery", "trivial"]) == 0
    assert capsys.readouterr().out == "PASS yd\n"
    assert len(built) == 1 and built[0].is_zero()


def test_a_failing_yd_residual_is_not_remembered(monkeypatch):
    checks, real = [], YDModule.module_axioms

    def counted(self):
        checks.append(self)
        return real(self)

    monkeypatch.setattr(YDModule, "module_axioms", counted)
    H = group_bialgebra(2)
    # g1 acts as 2: g1.(g1.v) = 4v, but g1 g1 = g0 acts as 1.
    doubled = YDModule(H, ("v0", "v1"), [[[ONE, ZERO], [ZERO, ONE]],
                                         [[2 * ONE, ZERO], [ZERO, 2 * ONE]]],
                       GRADING_COACTION)
    for _ in range(2):
        with pytest.raises(AxiomViolation, match=r"\(xy\).v = x.\(y.v\) fails"):
            yd_residual(doubled)
    V = comodule_from_qt(("v0", "v1"), SIGN_ACTION, trivial_qt(H))
    res = yd_residual(V)
    W = YDModule(H, V.labels, V.action, V.coaction)
    assert yd_residual(V) is res and yd_residual(W) == res and res.is_zero()
    assert checks == [doubled, doubled, V, W]
