"""Hom-Lie algebras: families, twists, braidings, classifications."""

import json
import random
from fractions import Fraction

import pytest

from helpers import (
    contract,
    dense_matmul,
    extension_instances,
    fraction_grid,
    rand_fraction,
    random_sl2_morphism,
)
from hombrax.homlie import (
    HEISENBERG_FAMILIES,
    SL2_FAMILIES,
    SL2_STAR_FAMILIES,
    AlphaSingular,
    ConstraintViolated,
    HomLieAlgebra,
    InvariantViolated,
    NotAMorphism,
    UnclassifiedMorphismFound,
    algebra_from_json_dict,
    algebra_to_json_dict,
    braiding_inverse_on_extension,
    braiding_on_extension,
    char_poly,
    classify_heisenberg_finite_field,
    classify_sl2_finite_field,
    classify_sl2_star_finite_field,
    conjugacy_obstruction,
    extended_alpha,
    extension_space,
    heisenberg,
    heisenberg_morphism,
    hom_jacobi_residual,
    is_hom_lie_isomorphism,
    lie_algebra,
    morphism_matrices_mod_p,
    multiplicativity_residual,
    sl2,
    sl2_morphism,
    sl2_star,
    sl2_star_morphism,
    twisted_constants,
    yau_twist,
)
from hombrax.hybe import compatibility_residual, hybe_residual
from hombrax.scalars import Scalar
from hombrax.tensor import (LinearMap, compose, identity_op, invert, swap_op,
                            tensor_product)


def test_classical_brackets():
    h = heisenberg()
    assert h.bracket_vec(1, 2) == (Scalar.one(), Scalar.zero(), Scalar.zero())
    assert all(s.is_zero() for s in h.bracket_vec(0, 1))
    assert all(s.is_zero() for s in h.bracket_vec(0, 2))
    g = sl2()
    assert g.bracket_vec(0, 2) == (Scalar.zero(), Scalar.zero(),
                                   Scalar.rational(-2))
    p = sl2_star()
    assert p.bracket_vec(1, 0) == (Scalar.zero(), Scalar.rational(Fraction(1, 2)),
                                   Scalar.zero())
    for alg in (h, g, p):
        assert alg.is_skew()
        assert hom_jacobi_residual(alg).is_zero()


def test_hom_jacobi_of_twisted_sl2_diagonal():
    twisted = yau_twist(sl2(), sl2_morphism(1, 0, 2, 0))
    assert hom_jacobi_residual(twisted).is_zero()


def test_hom_jacobi_nonzero_for_non_morphism():
    alpha = LinearMap(sl2().space, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    shear = HomLieAlgebra(sl2().labels, sl2().bracket, alpha)
    assert not hom_jacobi_residual(shear).is_zero()
    assert not multiplicativity_residual(sl2(), alpha).is_zero()


def test_yau_twist_identity_keeps_bracket():
    g = sl2()
    assert yau_twist(g, LinearMap.identity(g.space)).bracket == g.bracket


def test_yau_twist_rejects_non_morphism():
    with pytest.raises(NotAMorphism):
        yau_twist(sl2(), LinearMap(sl2().space, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def test_heisenberg_morphism_edge_cases():
    h = heisenberg()
    zero_map = heisenberg_morphism(0, 0, 0, 0, 0, 0)
    assert multiplicativity_residual(h, zero_map).is_zero()
    assert zero_map.is_zero()
    ident = heisenberg_morphism(0, 0, 1, 0, 0, 1)
    assert ident == LinearMap.identity(h.space)


def test_heisenberg_twisted_relation():
    rng = random.Random(1)
    for _ in range(10):
        params = [rand_fraction(rng) for _ in range(6)]
        alpha = heisenberg_morphism(*params)
        twisted = yau_twist(heisenberg(), alpha)
        delta = params[2] * params[5] - params[3] * params[4]
        assert twisted.bracket_vec(1, 2) == (Scalar.rational(delta),
                                             Scalar.zero(), Scalar.zero())
        assert all(s.is_zero() for s in twisted.bracket_vec(0, 1))
        assert all(s.is_zero() for s in twisted.bracket_vec(0, 2))


def test_sl2_star_twisted_brackets():
    # kind 1: [Y,X] -> (a22 Y + a32 Z)/2 and [Z,X] -> (a23 Y + a33 Z)/2
    alpha = sl2_star_morphism(1, a21=5, a31=7, a22=2, a23=3, a32=4, a33=6)
    twisted = yau_twist(sl2_star(), alpha)
    half = Fraction(1, 2)
    assert twisted.bracket_vec(1, 0) == (Scalar.zero(), Scalar.rational(2 * half),
                                         Scalar.rational(4 * half))
    assert twisted.bracket_vec(2, 0) == (Scalar.zero(), Scalar.rational(3 * half),
                                         Scalar.rational(6 * half))
    assert all(s.is_zero() for s in twisted.bracket_vec(1, 2))
    # kind 2: identically zero bracket
    flat = yau_twist(sl2_star(), sl2_star_morphism(2, a11=3, a21=1, a31=4))
    assert flat.bracket.is_zero()
    with pytest.raises(ConstraintViolated):
        sl2_star_morphism(2, a11=1)


def test_sl2_star_kind1_identity_consistent():
    alpha = sl2_star_morphism(1, a21=0, a31=0, a22=1, a23=0, a32=0, a33=1)
    assert alpha == LinearMap.identity(sl2_star().space)
    twisted = yau_twist(sl2_star(), alpha)
    assert twisted.bracket == sl2_star().bracket


def test_sl2_morphism_kinds():
    ident = sl2_morphism(1, 0, 1, 0)
    assert ident == LinearMap.identity(sl2().space)
    assert yau_twist(sl2(), ident).bracket == sl2().bracket
    kind2 = yau_twist(sl2(), sl2_morphism(2, 0, 1, 0))
    assert kind2.bracket_vec(1, 2) == (Scalar.rational(-1), Scalar.zero(),
                                       Scalar.zero())
    for kind, args in [(1, (1, 1, 1)), (2, (1, 1, 1))]:
        with pytest.raises(ConstraintViolated):
            sl2_morphism(kind, *args)
    with pytest.raises(ConstraintViolated):
        sl2_morphism(1, 0, 0, 0)
    with pytest.raises(ConstraintViolated):
        sl2_morphism(3, 1, 1, 1)
    with pytest.raises(ConstraintViolated):
        sl2_morphism(3, 0, 1, 0)


def test_family_constructors_refuse_parameters_their_kind_lacks():
    with pytest.raises(ConstraintViolated, match="kind 2 has no parameter a12, a22"):
        sl2_star_morphism(2, a11=3, a12=5, a22=9)
    with pytest.raises(ConstraintViolated, match="kind 1 has no parameter a11"):
        sl2_star_morphism(1, a11=3, a22=2)
    with pytest.raises(ConstraintViolated, match="kind 0 has no parameter a, b, c"):
        sl2_morphism(0, 5, 6, 7)
    with pytest.raises(ConstraintViolated, match="kind 0 has no parameter b"):
        sl2_morphism(0, b=0)
    assert sl2_morphism(0).is_zero()
    # An omitted parameter of the kind is still 0.
    assert sl2_morphism(1, b=1) == sl2_morphism(1, 0, 1, 0)
    assert sl2_star_morphism(2, a11=3) == sl2_star_morphism(2, a11=3, a21=0, a31=0)


def det3(m: LinearMap) -> Scalar:
    r = m.dense()
    return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))


def test_sl2_family_determinants_are_one():
    rng = random.Random(2)
    for _ in range(100):
        alpha = random_sl2_morphism(rng)
        assert det3(alpha).is_one()


def test_char_poly_against_det3():
    rng = random.Random(3)
    for _ in range(20):
        rows = [[rand_fraction(rng) for _ in range(3)] for _ in range(3)]
        m = LinearMap(sl2().space, rows)
        coeffs = char_poly(m)
        trace = rows[0][0] + rows[1][1] + rows[2][2]
        assert coeffs[0].is_one()
        assert coeffs[1] == -Scalar.rational(trace)
        assert coeffs[3] == -det3(m)


def test_identity_and_zero_are_sl2_morphisms():
    g = sl2()
    assert multiplicativity_residual(g, LinearMap.identity(g.space)).is_zero()
    assert multiplicativity_residual(g, sl2_morphism(0)).is_zero()


@pytest.mark.scan
def test_classifications_complete_at_p3():
    for runner in (classify_sl2_finite_field, classify_heisenberg_finite_field,
                   classify_sl2_star_finite_field):
        report = runner(3, strict=True)
        assert report.complete
        assert report.total_solutions == sum(report.family_counts.values())
        assert report.overlap_count == 0


@pytest.mark.scan
@pytest.mark.parametrize("runner, total, counts", [
    (classify_sl2_finite_field, 121, {"zero": 1, "kind1": 36, "kind2": 36, "kind3": 48}),
    (classify_heisenberg_finite_field, 15625, {"heisenberg": 15625}),
    (classify_sl2_star_finite_field, 15725, {"kind1": 15625, "kind2": 100}),
], ids=["sl2", "heisenberg", "sl2_star"])
def test_classify_report_at_p5(runner, total, counts):
    report = runner(5, strict=True)
    assert report.total_solutions == total
    assert report.family_counts == counts
    assert report.overlap_count == 0
    assert report.unclassified == []


@pytest.mark.parametrize("p", [3, 5])
def test_each_family_formula_is_the_same_over_q_and_f_p(p):
    # The F_p evaluation and mod-p constraint test of ``classify`` at every residue
    # tuple against the constructor over Q, read mod p (a refusal is a
    # miss).  Residues are lifted to -(p-1)/2..(p-1)/2, where each constraint
    # holds over Q exactly when it holds mod p.
    import itertools

    import numpy as np
    for families in (HEISENBERG_FAMILIES, SL2_STAR_FAMILIES, SL2_FAMILIES):
        for family in families.values():
            tuples = list(itertools.product(range(p), repeat=len(family.params)))
            entries, ok = family.mod_p(list(np.array(tuples, dtype=np.int64).T), p)
            entries = np.broadcast_to(entries, (len(tuples), 9))
            for values, got, inside in zip(tuples, entries, np.broadcast_to(ok, len(tuples))):
                try:
                    alpha = family.build(*(x if 2 * x < p else x - p for x in values))
                    want = tuple(x for row in alpha.mod_p(p) for x in row)
                except ConstraintViolated:
                    want = None
                assert (tuple(map(int, got)) if inside else None) == want, (family.name, values)
    # On the residue p - 1 itself, c != -1 holds over Q: kind 3 is built and
    # reduces to a kind-2 matrix, which only the mod-p constraint keeps out.
    flat = np.array([x for row in sl2_morphism(3, 1, 1, p - 1).mod_p(p) for x in row])
    kind2, kind3 = SL2_FAMILIES[2], SL2_FAMILIES[3]
    entries, ok = kind2.mod_p([flat[k] for k in kind2.at], p)
    assert ok and (entries == flat).all()
    assert not kind3.mod_p([flat[k] for k in kind3.at], p)[1]


@pytest.mark.scan
def test_classify_rejects_bad_prime():
    for bad in (2, 4, 9):
        with pytest.raises(ValueError):
            classify_sl2_finite_field(bad)


@pytest.mark.scan
def test_morphism_scan_counts_match_family_formulas():
    # Heisenberg: six free parameters.  Poincare: kind 1 has six free
    # parameters and kind 2 has a11 != 1 and two free ones, disjoint from
    # kind 1 (a11 = 1).  sl(2) at p = 3 has 25 solutions.
    for p in (3, 5):
        assert morphism_matrices_mod_p(heisenberg(), p).shape == (p ** 6, 3, 3)
        assert morphism_matrices_mod_p(sl2_star(), p).shape == (
            p ** 6 + (p - 1) * p ** 2, 3, 3)
    assert morphism_matrices_mod_p(sl2(), 3).shape == (25, 3, 3)


@pytest.mark.scan
def test_uncovered_morphisms_are_reported(capsys, monkeypatch):
    import hombrax.homlie as homlie
    from hombrax.cli import main
    monkeypatch.delitem(homlie.SL2_FAMILIES, 3)
    with pytest.raises(UnclassifiedMorphismFound):
        classify_sl2_finite_field(3, strict=True)
    report = classify_sl2_finite_field(3)
    assert not report.complete
    assert "  unclassified: 4" in report.lines()
    assert main(["classify", "sl2", "--field", "3"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL coverage"


@pytest.mark.scan
def test_classify_sl2_complete_at_p7():
    # 7^9 ~ 40M matrices; still a bounded one-shot scan
    report = classify_sl2_finite_field(7, strict=True)
    assert report.complete
    assert report.family_counts["zero"] == 1
    assert report.family_counts["kind1"] == report.family_counts["kind2"]


def test_braiding_on_abelian_extension_is_flip():
    ab = lie_algebra(("x",), {})
    b = braiding_on_extension(ab)
    assert b == swap_op(extension_space(ab))
    assert braiding_inverse_on_extension(ab) == b


def inverse3(m):
    """The inverse of a 3x3 Scalar matrix by the adjugate."""
    inv_det = det3(LinearMap(sl2().space, m)).inverse()
    return [[(m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
              - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]) * inv_det
             for j in range(3)] for i in range(3)]


def displayed_extension_columns(flip, bracket, bracket_left):
    """Columns of (a, x) (x) (b, y) -> (b, flip y) (x) (a, flip x) plus [x, y]
    (bracket[k][i*n + j] is its x_k coefficient) beside (1, 0): in the right
    factor, or in the left one when bracket_left; E = C (+) L has dim n + 1."""
    n = len(flip)
    d = n + 1
    one, zero = Scalar.one(), Scalar.zero()
    ext = [[one] + [zero] * n] + [[zero] + row for row in flip]  # 1 (+) flip
    cols = []
    for p in range(d):
        for q in range(d):
            col = {r * d + s: ext[r][q] * ext[s][p] for r in range(d) for s in range(d)}
            if p and q:
                for k in range(n):
                    row = (k + 1) * d if bracket_left else k + 1
                    col[row] = col[row] + bracket[k][(p - 1) * n + q - 1]
            cols.append({r: v for r, v in col.items() if not v.is_zero()})
    return cols


def test_braiding_matches_displayed_formula():
    # B((a,x) (x) (b,y)) = (b, alpha y) (x) (a, alpha x) + (1,0) (x) (0, [x,y])
    # and the closed-form inverse
    # (a,x) (x) (b,y) -> (b, inv y) (x) (a, inv x) + (0, inv^2 [x,y]) (x) (1,0),
    # column by column on a rational sl(2) twist and a symbolic Heisenberg twist.
    a, b, c, d = (Scalar.param(x) for x in "abcd")
    for twisted in (yau_twist(sl2(), sl2_morphism(3, 1, 2, Fraction(1, 3))),
                    yau_twist(heisenberg(), heisenberg_morphism(b, c, a, 0, 0, d))):
        alpha, bracket = twisted.alpha.dense(), twisted.bracket.dense()
        inv = inverse3(alpha)
        inv2 = dense_matmul(inv, inv)
        inv2_bracket = [[sum((inv2[k][m] * bracket[m][j] for m in range(3)), Scalar.zero())
                         for j in range(9)] for k in range(3)]
        assert [dict(col) for col in braiding_on_extension(twisted).columns] == \
            displayed_extension_columns(alpha, bracket, False)
        assert [dict(col) for col in braiding_inverse_on_extension(twisted).columns] == \
            displayed_extension_columns(inv, inv2_bracket, True)


def test_braiding_extension_requires_invariants():
    alpha = LinearMap(sl2().space, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    broken = HomLieAlgebra(sl2().labels, sl2().bracket, alpha)
    with pytest.raises(InvariantViolated):
        braiding_on_extension(broken)


def test_validate_names_the_failed_axiom():
    g = sl2()
    not_skew = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    not_skew[0][1][1] = 1  # [X, Y] = Y but [Y, X] = 0
    with pytest.raises(InvariantViolated, match="not skew-symmetric"):
        HomLieAlgebra(g.labels, not_skew, g.alpha).validate()
    # [a, b] = a, [b, c] = b: the Jacobi sum on (a, b, c) is -a.
    with pytest.raises(InvariantViolated, match="twisted Jacobi fails at"):
        lie_algebra(("a", "b", "c"), {(0, 1): {0: 1}, (1, 2): {1: 1}}).validate()


@pytest.mark.parametrize("brackets", [{(1, -1): {-3: 1}}, {(2, -1): {0: 1}},
                                      {(-1, -1): {0: 1}}, {(3, 0): {1: 1}},
                                      {(0, 1): {-1: 1}}, {(0, 1): {3: 0}}], ids=repr)
def test_lie_algebra_refuses_an_index_outside_the_basis(brackets):
    # (1, -1): {-3: 1} would wrap to heisenberg() and (2, -1): {0: 1} cancel
    # to the zero bracket; i and j are checked before the i == j test.
    with pytest.raises(IndexError, match="out of range"):
        lie_algebra(("X", "Y", "Z"), brackets)


def test_braiding_inverse_singular_alpha():
    alpha = heisenberg_morphism(0, 0, 1, 1, 1, 1)  # delta = 0
    twisted = yau_twist(heisenberg(), alpha)
    with pytest.raises(AlphaSingular):
        braiding_inverse_on_extension(twisted)


def test_braiding_inverse_roundtrip_sl2_kind3():
    twisted = yau_twist(sl2(), sl2_morphism(3, 1, 1, 0))
    b = braiding_on_extension(twisted)
    binv = braiding_inverse_on_extension(twisted)
    ident = identity_op(b.space, 2)
    assert compose(b, binv) == ident
    assert compose(binv, b) == ident


def test_extension_commutes_with_extended_alpha():
    rng = random.Random(5)
    for twisted in extension_instances(rng, 6):
        b = braiding_on_extension(twisted)
        assert compatibility_residual(b, extended_alpha(twisted)).is_zero()


def test_heisenberg_extension_hybe_at_50_random_points():
    rng = random.Random(50)
    from helpers import random_heisenberg_twist
    for _ in range(50):
        twisted = random_heisenberg_twist(rng, invertible=False)
        b = braiding_on_extension(twisted)
        assert hybe_residual(b, extended_alpha(twisted)).is_zero()


def test_is_hom_lie_isomorphism_basics():
    twisted = yau_twist(sl2(), sl2_morphism(1, 0, 2, 0))
    ident = LinearMap.identity(twisted.space)
    assert is_hom_lie_isomorphism(ident, twisted, twisted)
    doubled = LinearMap.diagonal(twisted.space, [2, 2, 2])
    assert not is_hom_lie_isomorphism(doubled, twisted, twisted)


def test_is_hom_lie_isomorphism_needs_invertible_gamma_intertwining_alphas():
    twisted = yau_twist(heisenberg(), heisenberg_morphism(0, 0, 2, 0, 0, 3))
    # The zero map transports the bracket and intertwines the alphas.
    assert not is_hom_lie_isomorphism(LinearMap(twisted.space, [[0] * 3] * 3),
                                      twisted, twisted)
    # X -> -X, Y <-> Z transports [Y, Z] = 6X but not alpha = diag(6, 2, 3).
    flip = LinearMap(twisted.space, [[-1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert (compose(flip, twisted.bracket)
            == compose(twisted.bracket, tensor_product(flip, flip)))
    assert not is_hom_lie_isomorphism(flip, twisted, twisted)


def test_is_hom_lie_isomorphism_between_differently_labelled_algebras():
    L1 = heisenberg()
    doc = algebra_to_json_dict(L1)
    doc["labels"] = ["a", "b", "c"]
    L2 = algebra_from_json_dict(doc)
    assert is_hom_lie_isomorphism(LinearMap.identity(L1.space), L1, L2)
    assert is_hom_lie_isomorphism(identity_op(L2.space), L1, L2)
    # Scaling Y by 2 and Z by 3 scales [Y, Z] = X by 6.
    assert is_hom_lie_isomorphism(LinearMap.diagonal(L1.space, [6, 2, 3]), L1, L2)
    assert not is_hom_lie_isomorphism(LinearMap.diagonal(L1.space, [1, 2, 3]), L1, L2)


def test_prop_32_conjugate_pairs():
    rng = random.Random(6)
    g = sl2()
    for _ in range(20):
        alpha = random_sl2_morphism(rng)
        gamma = random_sl2_morphism(rng)
        beta = compose(gamma, alpha, invert(gamma))
        assert multiplicativity_residual(g, beta).is_zero()
        left = yau_twist(g, alpha)
        right = yau_twist(g, beta)
        assert is_hom_lie_isomorphism(gamma, left, right)


def test_conjugacy_obstruction():
    a = sl2_morphism(1, 0, 2, 0)
    assert not conjugacy_obstruction(a, a)
    b = sl2_morphism(1, 0, 3, 0)
    assert conjugacy_obstruction(a, b)
    # Heisenberg members with equal determinant but different traces
    m1 = heisenberg_morphism(0, 0, 2, 0, 0, 3)   # delta 6, trace 11
    m2 = heisenberg_morphism(0, 0, 6, 0, 0, 1)   # delta 6, trace 13
    assert conjugacy_obstruction(m1, m2)


def jacobi_residuals(L):
    """Test-local classical Jacobi residual of the raw bracket, by dense contraction."""
    c = fraction_grid(L.bracket)
    t = contract("ijp,pqr->ijqr", c, c)
    jac = t + contract("kijr->ijkr", t) + contract("jkir->ijkr", t)
    return jac


def test_twisted_hom_jacobi_is_alpha_squared_of_jacobi():
    # non-Jacobi skew bracket: [x1,x2] = x1, [x1,x3] = x2
    base = lie_algebra(("x1", "x2", "x3"), {(0, 1): {0: 1}, (0, 2): {1: 1}})
    assert not hom_jacobi_residual(base).is_zero()

    rng = random.Random(7)
    seeds = [LinearMap.identity(base.space),
             LinearMap.diagonal(base.space, [0, 0, 2])]
    for seed_alpha in seeds:
        # conjugate the whole pair to vary the presentation
        for _ in range(5):
            while True:
                rows = [[rand_fraction(rng) for _ in range(3)] for _ in range(3)]
                try:
                    P = LinearMap(base.space, rows)
                    P_inv = invert(P)
                    break
                except Exception:
                    continue
            c_conj = compose(P_inv, base.bracket, tensor_product(P, P))
            conj = HomLieAlgebra(base.labels, c_conj, compose(P_inv, seed_alpha, P))
            assert multiplicativity_residual(conj).is_zero()
            alpha = conj.alpha
            twisted = HomLieAlgebra(conj.labels, twisted_constants(conj, alpha),
                                    alpha)
            lhs = fraction_grid(hom_jacobi_residual(twisted))
            alpha2 = fraction_grid(compose(alpha, alpha))
            rhs = contract("ijkr,rs->ijks", jacobi_residuals(conj), alpha2)
            assert (lhs == rhs).all()


def test_algebra_json_round_trip():
    twisted = yau_twist(sl2(), sl2_morphism(2, 0, 2, 0))
    doc = algebra_to_json_dict(twisted)
    text = json.dumps(doc, sort_keys=True)
    again = algebra_from_json_dict(json.loads(text))
    assert again == twisted
    assert json.dumps(algebra_to_json_dict(again), sort_keys=True) == text


def test_validation_runs_once_per_algebra_and_never_remembers_a_failure(monkeypatch):
    import hombrax.homlie as homlie_module

    calls = []
    real = homlie_module.hom_jacobi_residual

    def counted(L):
        calls.append(L)
        return real(L)

    monkeypatch.setattr(homlie_module, "hom_jacobi_residual", counted)
    for L in (heisenberg(), *extension_instances(random.Random(5), 3)):
        calls.clear()
        braiding_on_extension(L)
        braiding_inverse_on_extension(L)
        L.validate()
        assert calls == [L]
    # [a, b] = a, [b, c] = b fails twisted Jacobi: each call checks it again.
    bad = lie_algebra(("a", "b", "c"), {(0, 1): {0: 1}, (1, 2): {1: 1}})
    calls.clear()
    for check in (braiding_on_extension, braiding_inverse_on_extension, HomLieAlgebra.validate):
        with pytest.raises(InvariantViolated, match="twisted Jacobi fails at"):
            check(bad)
    assert calls == [bad] * 3
    broken = HomLieAlgebra(sl2().labels, sl2().bracket,
                           LinearMap(sl2().space, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    for _ in range(2):
        with pytest.raises(InvariantViolated, match="not multiplicative"):
            braiding_on_extension(broken)
