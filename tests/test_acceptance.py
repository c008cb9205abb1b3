"""Acceptance suite: one test per criterion, exact-zero tolerance throughout.

Each criterion prints a single PASS/FAIL line (with elapsed time) directly
to the terminal, bypassing pytest capture, so a plain `pytest -v` run shows
the per-criterion outcomes inline.
"""

import itertools
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from helpers import (
    extension_instances,
    phi_alpha_rational,
    phi_alpha_symbolic,
    rand_fraction,
    random_heisenberg_twist,
    random_sl2_morphism,
    random_sl2_star_twist,
    random_sl2_twist,
)
from hombrax.braid import (
    Permutation,
    all_reduced_words,
    alpha_n,
    chi,
    cross,
    tensor_power_solution,
    theta_operator,
)
from hombrax.homlie import (
    braiding_inverse_on_extension,
    braiding_on_extension,
    char_poly,
    classify_heisenberg_finite_field,
    classify_sl2_finite_field,
    classify_sl2_star_finite_field,
    conjugacy_obstruction,
    extended_alpha,
    heisenberg,
    heisenberg_morphism,
    hom_jacobi_residual,
    is_hom_lie_isomorphism,
    multiplicativity_residual,
    sl2,
    sl2_morphism,
    sl2_star,
    sl2_star_morphism,
    yau_twist,
)
from hombrax.hybe import (
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
    bql,
    brute_force_compatible_field,
    check_compatible,
    enumerate_patterns,
    pattern_accept_set_field,
    phi,
)
from hombrax.scalars import Scalar
from hombrax.tensor import (
    LinearMap,
    Singular,
    compose,
    identity_op,
    invert,
    tensor_product,
)
from hombrax.yd import (
    check_colinearity,
    check_linearity,
    comodule_from_qt,
    dqt_braiding_operator,
    group_bialgebra,
    module_from_dqt,
    tau_r_operator,
    trivial_qt,
    yd_braiding,
    yd_residual,
    z2_bicharacter_dqt,
    z2_sign_module,
)


@pytest.fixture
def report(capfd):
    """One PASS/FAIL line per criterion, written past pytest's capture."""

    @contextmanager
    def _criterion(num: int, description: str):
        start = time.perf_counter()
        failed = False
        try:
            yield
        except BaseException:
            failed = True
            raise
        finally:
            elapsed = time.perf_counter() - start
            verdict = "FAIL" if failed else "PASS"
            with capfd.disabled():
                sys.stdout.write(f"{verdict} criterion {num:2d} "
                                 f"({elapsed:6.2f}s): {description}\n")
                sys.stdout.flush()

    return _criterion


def test_criterion_01_symbolic_ybe(report):
    with report(1, "YBE residuals of the deformed flips vanish symbolically"):
        assert ybe_residual(phi()).is_zero()
        for N in (2, 3, 4):
            assert ybe_residual(bql(N)).is_zero()


def test_criterion_02_two_dim_compatibility_shapes(report):
    with report(2, "exactly the three 2x2 shapes are compatible; their "
                      "twists solve the twisted identity"):
        cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
        shape_sets = [{(0, 1)}, {(1, 0)}, {(0, 0), (1, 1)}]
        passing = []
        for subset in itertools.chain.from_iterable(
                itertools.combinations(cells, k) for k in range(5)):
            rows = [[Scalar.zero()] * 2 for _ in range(2)]
            for (i, j), name in zip(subset, "abcd"):
                rows[i][j] = Scalar.param(name)
            alpha = LinearMap(PHI_SPACE, rows)
            ok = compatibility_residual(phi(), alpha).is_zero()
            assert ok == check_compatible(alpha, 2)
            assert ok == any(set(subset) <= s for s in shape_sets)
            if ok and subset:
                passing.append(alpha)
        maximal = [
            LinearMap(PHI_SPACE, [[0, Scalar.param("b")], [0, 0]]),
            LinearMap(PHI_SPACE, [[0, 0], [Scalar.param("c"), 0]]),
            LinearMap.diagonal(PHI_SPACE, [Scalar.param("a"), Scalar.param("d")]),
        ]
        for alpha in maximal:
            assert hybe_residual(twist(phi(), alpha), alpha).is_zero()
        # diag twist invertible iff ad != 0, at rational points
        good, _ = phi_alpha_rational(a=2, d=3)
        invert(good)
        bad, _ = phi_alpha_rational(a=0, d=3)
        with pytest.raises(Singular):
            invert(bad)


@pytest.mark.scan
def test_criterion_03_compatibility_accept_sets_over_f5(report):
    with report(3, "pattern accept set equals the 5^(N^2) brute-force "
                      "accept set over F_5 for N = 2, 3"):
        for N in (2, 3):
            brute = brute_force_compatible_field(N, 5, q_res=2, lam_res=1)
            from_patterns = pattern_accept_set_field(N, 5)
            assert brute == from_patterns


def test_criterion_04_induced_closed_form_equals_twist(report):
    with report(4, "closed-form induced braiding equals the twist, "
                      "column-for-column, all N = 3 patterns"):
        for pattern in enumerate_patterns(3):
            ca = CompatibleAlpha.symbolic(pattern)
            assert induced_equals_twist(ca)


def induced_equals_twist(ca):
    from hombrax.quantum import induced_solution
    return induced_solution(ca) == twist(bql(ca.pattern.N), ca.to_linear_map())


def test_criterion_05_families_at_random_rational_points(report):
    with report(5, "morphism families pass multiplicativity and twisted "
                      "Jacobi at 100 random rational points; det = 1"):
        rng = random.Random(100)
        h, p, g = heisenberg(), sl2_star(), sl2()
        for _ in range(100):
            alpha = heisenberg_morphism(*(rand_fraction(rng) for _ in range(6)))
            assert multiplicativity_residual(h, alpha).is_zero()
            assert hom_jacobi_residual(yau_twist(h, alpha)).is_zero()
        for _ in range(100):
            names = ("a21", "a31", "a22", "a23", "a32", "a33")
            alpha = sl2_star_morphism(1, **{n: rand_fraction(rng) for n in names})
            assert multiplicativity_residual(p, alpha).is_zero()
            assert hom_jacobi_residual(yau_twist(p, alpha)).is_zero()
        for _ in range(100):
            while True:
                a11 = rand_fraction(rng)
                if a11 != 1:
                    break
            alpha = sl2_star_morphism(2, a11=a11, a21=rand_fraction(rng),
                                      a31=rand_fraction(rng))
            assert multiplicativity_residual(p, alpha).is_zero()
            assert hom_jacobi_residual(yau_twist(p, alpha)).is_zero()
        for _ in range(100):
            alpha = random_sl2_morphism(rng)
            assert multiplicativity_residual(g, alpha).is_zero()
            assert hom_jacobi_residual(yau_twist(g, alpha)).is_zero()
            coeffs = char_poly(alpha)
            assert -coeffs[3] == Scalar.one()  # determinant exactly 1


@pytest.mark.scan
def test_criterion_06_finite_field_completeness(report):
    with report(6, "finite-field scans over F_5 leave no morphism outside "
                      "the classified families"):
        for runner in (classify_sl2_finite_field,
                       classify_heisenberg_finite_field,
                       classify_sl2_star_finite_field):
            report = runner(5, strict=True)
            assert report.complete
            assert report.total_solutions > 0


def test_criterion_07_extension_braiding_and_inverse(report):
    with report(7, "20 random invertible extension braidings solve the "
                      "twisted identity and invert exactly"):
        rng = random.Random(7)
        for twisted in extension_instances(rng, 20):
            b = braiding_on_extension(twisted)
            alpha = extended_alpha(twisted)
            assert hybe_residual(b, alpha).is_zero()
            b_inv = braiding_inverse_on_extension(twisted)
            ident = identity_op(b.space, 2)
            assert compose(b, b_inv) == ident
            assert compose(b_inv, b) == ident
            assert hybe_residual(b_inv, invert(alpha)).is_zero()


def test_criterion_08_braid_relations_over_gallery(report):
    with report(8, "braid relations hold for n = 3, 4 across the gallery"):
        rng = random.Random(8)
        gallery = [phi_alpha_symbolic(), phi_alpha_rational()]
        for pattern in rng.sample(enumerate_patterns(3), 3):
            values = {c: rand_fraction(rng, nonzero=True)
                      for c in pattern.support}
            ca = CompatibleAlpha(pattern, values)
            alpha = ca.to_linear_map()
            from hombrax.quantum import induced_solution
            gallery.append((induced_solution(ca).instantiate({"q": 2, "l": 1}),
                            alpha))
        for make in (random_heisenberg_twist, random_sl2_star_twist,
                     random_sl2_twist):
            twisted = make(rng)
            gallery.append((braiding_on_extension(twisted),
                            extended_alpha(twisted)))
        for b, alpha in gallery:
            for n in (3, 4):
                assert all(r.is_zero()
                           for r in braid_relation_residuals(b, alpha, n))


def test_criterion_09_iwahori_well_definedness(report):
    with report(9, "theta operators agree for two independently generated "
                      "reduced words, all of Sigma_4"):
        b, alpha = phi_alpha_rational()
        distinct_words = 0
        for images in itertools.permutations(range(1, 5)):
            g = Permutation(images)
            words = all_reduced_words(g)
            w1, w2 = words[0], words[-1]
            if w1 != w2:
                distinct_words += 1
            assert theta_operator(g, b, alpha, word=w1) == \
                theta_operator(g, b, alpha, word=w2)
        assert distinct_words > 0


def test_criterion_10_tensor_power_solutions(report):
    with report(10, "tensor-power braidings: displayed factorization at "
                       "n = 2, twisted identity at n = 2 and n = 3 (512-dim)"):
        b, alpha = phi_alpha_rational()
        got = theta_operator(chi(2, 2), b, alpha)
        want = compose(build_Bi(b, alpha, 4, 2),
                       compose(build_Bi(b, alpha, 4, 3),
                               compose(build_Bi(b, alpha, 4, 1),
                                       build_Bi(b, alpha, 4, 2))))
        assert got == want
        b2, a2 = tensor_power_solution(b, alpha, 2)
        assert hybe_residual(b2, a2).is_zero()
        invert(b2)
        invert(a2)
        b3, a3 = tensor_power_solution(b, alpha, 3)
        assert hybe_residual(b3, a3).is_zero()


def test_criterion_11_block_identities(report):
    with report(11, "block identities: alpha_n (x) B^chi = B^(1 x chi) and "
                       "its mirror, n = 2"):
        b, alpha = phi_alpha_rational()
        bchi = theta_operator(chi(2, 2), b, alpha)
        an = alpha_n(alpha, 2)
        one2 = Permutation.identity(2)
        assert tensor_product(an, bchi) == \
            theta_operator(cross(one2, chi(2, 2)), b, alpha)
        assert tensor_product(bchi, an) == \
            theta_operator(cross(chi(2, 2), one2), b, alpha)


def test_criterion_12_yetter_drinfeld_galleries(report):
    with report(12, "Yetter-Drinfel'd galleries: residuals vanish and the "
                       "corollary braidings match their direct forms"):
        ONE, ZERO = Scalar.one(), Scalar.zero()
        sign_action = [[[ONE, ZERO], [ZERO, ONE]], [[ONE, ZERO], [ZERO, -ONE]]]
        grading = [[[ONE, ZERO], [ZERO, ZERO]], [[ZERO, ZERO], [ZERO, ONE]]]
        H = group_bialgebra(2)
        qt = trivial_qt(H)
        dqt = z2_bicharacter_dqt()
        galleries = [
            z2_sign_module(),
            comodule_from_qt(("v0", "v1"), sign_action, qt),
            module_from_dqt(("v0", "v1"), grading, dqt),
        ]
        candidates = [
            LinearMap.identity(galleries[0].space),
            LinearMap.diagonal(galleries[0].space,
                               [Scalar.param("a"), Scalar.param("d")]),
            LinearMap(galleries[0].space, [[0, 1], [1, 0]]),
            LinearMap(galleries[0].space, [[1, 1], [0, 1]]),
        ]
        for V in galleries:
            assert yd_residual(V).is_zero()
            B = yd_braiding(V)
            assert ybe_residual(B).is_zero()
            checked = 0
            for alpha in candidates:
                if check_colinearity(alpha, V) and check_linearity(alpha, V):
                    assert hybe_residual(B, alpha).is_zero()
                    checked += 1
            assert checked >= 2
        assert yd_braiding(galleries[1]) == \
            tau_r_operator(("v0", "v1"), sign_action, qt)
        assert yd_braiding(galleries[2]) == \
            dqt_braiding_operator(("v0", "v1"), grading, dqt)


def test_criterion_13_nonisomorphism_witnesses(report):
    with report(13, "conjugacy obstruction separates >= 10 instances per "
                       "family; 20 conjugate pairs confirmed isomorphic"):
        families = {
            "sl2": [sl2_morphism(1, 0, Fraction(k), 0) for k in range(2, 12)],
            "heisenberg": [heisenberg_morphism(0, 0, Fraction(k), 0, 0, 1)
                           for k in range(2, 12)],
            "sl2_star": [sl2_star_morphism(1, a22=Fraction(k), a33=1)
                         for k in range(2, 12)],
        }
        for members in families.values():
            assert len(members) >= 10
            for m1, m2 in itertools.combinations(members, 2):
                assert conjugacy_obstruction(m1, m2)
            for m in members:
                assert not conjugacy_obstruction(m, m)
        rng = random.Random(13)
        g = sl2()
        for _ in range(20):
            alpha = random_sl2_morphism(rng)
            gamma = random_sl2_morphism(rng)
            beta = compose(gamma, alpha, invert(gamma))
            assert is_hom_lie_isomorphism(gamma, yau_twist(g, alpha),
                                          yau_twist(g, beta))
