"""Permutations, reduced words, theta operators, tensor-power braidings."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import phi_alpha_rational
from hombrax.braid import (
    NotASolution,
    NotInvertible,
    Permutation,
    all_reduced_words,
    alpha_n,
    chi,
    cross,
    length,
    reduced_word,
    tensor_power_solution,
    theta_operator,
)
from hombrax.homlie import extension_space, lie_algebra, braiding_on_extension
from hombrax.hybe import IndexOutOfRange, build_Bi, hybe_residual, twist
from hombrax.quantum import PHI_SPACE, phi
from hombrax.tensor import (
    LinearMap,
    compose,
    identity_op,
    TensorOp,
    invert,
    lift,
    power,
    product_space,
    swap_op,
    tensor_product,
)


def word_permutation(n, word):
    """The product of the adjacent transpositions of word, leftmost applied last."""
    out = Permutation.identity(n)
    for i in word:
        out = out * Permutation.transposition(n, i)
    return out


def test_permutation_basics():
    p = Permutation((3, 4, 1, 2))
    assert p(1) == 3 and p(4) == 2
    assert p.inverse() * p == Permutation.identity(4)
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_length_examples():
    assert length(Permutation.identity(5)) == 0
    assert length(chi(2, 2)) == 4
    for n in (1, 2, 3):
        assert length(chi(n, n)) == n * n
    for i, j in ((1, 2), (2, 3), (3, 1)):
        assert length(chi(i, j)) == i * j


def test_thm18_proof_permutation_has_length_3nsq():
    # blocks 1..n -> 2n+1..3n, middle fixed, 2n+1..3n -> 1..n
    for n in (1, 2, 3):
        g = cross(Permutation.identity(n), chi(n, n)) * cross(chi(n, n), Permutation.identity(n)) \
            * cross(Permutation.identity(n), chi(n, n))
        expected = tuple(range(2 * n + 1, 3 * n + 1)) \
            + tuple(range(n + 1, 2 * n + 1)) + tuple(range(1, n + 1))
        assert g.images == expected
        assert length(g) == 3 * n * n
        assert len(reduced_word(g)) == 3 * n * n


def test_reduced_word_properties():
    assert reduced_word(Permutation.identity(4)) == ()
    w = reduced_word(chi(2, 2))
    assert w == (2, 3, 1, 2)
    assert word_permutation(4, w) == chi(2, 2)
    rng = random.Random(0)
    for _ in range(50):
        images = list(range(1, 7))
        rng.shuffle(images)
        g = Permutation(images)
        words = all_reduced_words(g)
        assert reduced_word(g) in words
        assert reduced_word(g, "largest") in words
        for w in (reduced_word(g), words[0], words[-1]):
            assert len(w) == length(g)
            assert word_permutation(6, w) == g


def test_reduced_word_refuses_unknown_strategy():
    g = Permutation((3, 2, 1))
    assert (reduced_word(g, "smallest"), reduced_word(g, "largest")) == ((1, 2, 1), (2, 1, 2))
    for strategy in ("smalest", "Largest", ""):
        with pytest.raises(ValueError, match="strategy"):
            reduced_word(g, strategy)


def test_chi_images():
    assert chi(1, 1).images == (2, 1)
    assert chi(2, 2).images == (3, 4, 1, 2)
    assert chi(2, 3).images == (4, 5, 1, 2, 3)


def test_braid_word_validation():
    b, alpha = phi_alpha_rational()
    longest3 = Permutation((3, 2, 1))
    with pytest.raises(IndexOutOfRange):
        theta_operator(longest3, b, alpha, word=(3,))
    with pytest.raises(ValueError, match="not a reduced word"):
        theta_operator(longest3, b, alpha, word=(1,))  # too short
    with pytest.raises(ValueError, match="not a reduced word"):
        theta_operator(longest3, b, alpha, word=(1, 2, 2))  # right length, product s_1
    with pytest.raises(ValueError, match="not a reduced word"):
        theta_operator(Permutation((3, 1, 2)), b, alpha, word=(1, 2))  # a word of (2, 3, 1)
    with pytest.raises(ValueError, match="not a reduced word"):
        theta_operator(Permutation.identity(3), b, alpha, word=(1, 1))
    assert theta_operator(longest3, b, alpha, word=(1, 2, 1)) == \
        theta_operator(longest3, b, alpha)


def test_all_reduced_words():
    assert all_reduced_words(Permutation.identity(3)) == [()]
    assert sorted(all_reduced_words(Permutation((3, 2, 1)))) == \
        [(1, 2, 1), (2, 1, 2)]
    longest4 = Permutation((4, 3, 2, 1))
    words = all_reduced_words(longest4)
    assert len(words) == 16
    assert all(word_permutation(4, w) == longest4 for w in words)


def test_theta_identity_and_single_letter():
    b, alpha = phi_alpha_rational()
    ident3 = theta_operator(Permutation.identity(3), b, alpha)
    assert ident3 == identity_op(b.space, 3)
    tau2 = Permutation.transposition(3, 2)
    assert theta_operator(tau2, b, alpha) == build_Bi(b, alpha, 3, 2)


def test_theta_chi22_factorization():
    b, alpha = phi_alpha_rational()
    lhs = theta_operator(chi(2, 2), b, alpha)
    rhs = compose(build_Bi(b, alpha, 4, 2),
                  compose(build_Bi(b, alpha, 4, 3),
                          compose(build_Bi(b, alpha, 4, 1),
                                  build_Bi(b, alpha, 4, 2))))
    assert lhs == rhs


def test_theta_rejects_bad_pairs():
    b, alpha = phi_alpha_rational()
    with pytest.raises(NotASolution):
        theta_operator(chi(1, 1), phi().instantiate({"q": 2, "l": 1}), alpha)
    singular = LinearMap.diagonal(PHI_SPACE, [0, 1])
    with pytest.raises(NotASolution):
        # incompatible pairs are reported as non-solutions
        theta_operator(chi(1, 1), b, LinearMap(PHI_SPACE, [[1, 1], [0, 1]]))
    from hombrax.hybe import twist
    flat = twist(phi(), singular).instantiate({"q": 2, "l": 1})
    with pytest.raises(NotInvertible):
        theta_operator(chi(1, 1), flat, singular)


def test_iwahori_well_definedness_on_sigma4():
    import itertools
    b, alpha = phi_alpha_rational()
    for images in itertools.permutations(range(1, 5)):
        g = Permutation(images)
        words = all_reduced_words(g)
        ops = {theta_operator(g, b, alpha, word=w) for w in words}
        assert len(ops) == 1


def test_alpha_n():
    alpha = LinearMap.diagonal(PHI_SPACE, [1, 3])
    assert alpha_n(alpha, 1) == alpha
    assert alpha_n(alpha, 2) == power(lift(alpha, 2), 4)
    ident = LinearMap.identity(PHI_SPACE)
    for n in (1, 2, 3):
        assert alpha_n(ident, n) == identity_op(PHI_SPACE, n)


def test_tensor_power_n1_returns_pair_unchanged():
    b, alpha = phi_alpha_rational()
    bn, an = tensor_power_solution(b, alpha, 1)
    assert bn.columns == b.columns
    assert an.dense() == alpha.dense()


def test_tensor_power_of_flip_is_block_swap():
    ab = lie_algebra(("x",), {})
    tau = braiding_on_extension(ab)  # the flip on the 2-dim extension
    ident = LinearMap.identity(extension_space(ab))
    bn, an = tensor_power_solution(tau, ident, 2)
    assert bn == swap_op(product_space(tau.space, 2))
    assert an == identity_op(product_space(tau.space, 2), 1)


def test_tensor_power_solution_n2_is_hybe_solution():
    b, alpha = phi_alpha_rational()
    bn, an = tensor_power_solution(b, alpha, 2)
    assert hybe_residual(bn, an).is_zero()
    invert(bn)
    invert(an)


def test_block_identities_from_tensor_factorization():
    # alpha_n (x) B^chi(n,n) = B^(1_n x chi(n,n)) and the mirrored identity, n = 2
    b, alpha = phi_alpha_rational()
    bchi = theta_operator(chi(2, 2), b, alpha)
    an = alpha_n(alpha, 2)
    left = tensor_product(an, bchi)
    right = tensor_product(bchi, an)
    one2 = Permutation.identity(2)
    assert left == theta_operator(cross(one2, chi(2, 2)), b, alpha)
    assert right == theta_operator(cross(chi(2, 2), one2), b, alpha)


def test_theta_is_multiplicative_on_reduced_products():
    # B^(gd) = B^g o B^d whenever l(gd) = l(g) + l(d)
    b, alpha = phi_alpha_rational()
    one2 = Permutation.identity(2)
    g = cross(one2, chi(2, 2))
    d = cross(chi(2, 2), one2)
    gd = g * d
    assert length(gd) == length(g) + length(d)
    assert theta_operator(gd, b, alpha) == compose(
        theta_operator(g, b, alpha), theta_operator(d, b, alpha))
    # the full 3n^2 triple from the tensor-power proof
    triple = g * d * g
    assert length(triple) == 12
    assert theta_operator(triple, b, alpha) == compose(
        theta_operator(g, b, alpha),
        compose(theta_operator(d, b, alpha), theta_operator(g, b, alpha)))


# -- validate once per pair ------------------------------------------------------

@pytest.fixture
def validations(monkeypatch):
    """Count hybe_residual calls made by theta_operator, starting from an empty memo."""
    from hombrax import braid
    calls = []
    real = braid.hybe_residual

    def counting(B, alpha):
        calls.append((B, alpha))
        return real(B, alpha)

    monkeypatch.setattr(braid, "hybe_residual", counting)
    monkeypatch.setattr(braid, "_validated", None)
    return calls


def test_theta_validates_a_pair_once_across_strand_counts(validations):
    b, alpha = phi_alpha_rational()
    for gamma in (chi(1, 2), chi(2, 1), chi(2, 2), Permutation((4, 3, 2, 1)), chi(1, 2)):
        theta_operator(gamma, b, alpha)
    tensor_power_solution(b, alpha, 2)
    assert len(validations) == 1


def test_theta_revalidates_an_equal_copy(validations):
    b, alpha = phi_alpha_rational()
    copy_b = TensorOp(b.space, b.arity, b.columns)
    copy_alpha = TensorOp(alpha.space, 1, alpha.columns)
    theta_operator(chi(1, 2), b, alpha)
    assert theta_operator(chi(1, 2), copy_b, alpha) == theta_operator(chi(1, 2), b, alpha)
    theta_operator(chi(1, 2), b, copy_alpha)
    assert len(validations) == 4


def test_theta_rejects_bad_pairs_after_a_valid_one(validations):
    from hombrax.hybe import twist
    b, alpha = phi_alpha_rational()
    not_a_solution = phi().instantiate({"q": 2, "l": 1})
    singular = LinearMap.diagonal(PHI_SPACE, [0, 1])
    flat = twist(phi(), singular).instantiate({"q": 2, "l": 1})
    for _ in range(2):
        theta_operator(chi(1, 1), b, alpha)
        with pytest.raises(NotASolution):
            theta_operator(chi(1, 1), not_a_solution, alpha)
        with pytest.raises(NotInvertible):
            theta_operator(chi(1, 1), flat, singular)
    # A rejected pair is checked again every time and leaves the memo alone.
    assert len(validations) == 5


def test_theta_equals_letter_by_letter_product_on_sigma4():
    import itertools
    b, alpha = phi_alpha_rational()
    for images in itertools.permutations(range(1, 5)):
        gamma = Permutation(images)
        words = all_reduced_words(gamma)
        for word in (words[0], words[-1]):
            want = identity_op(b.space, 4)
            for i in reversed(word):
                want = compose(build_Bi(b, alpha, 4, i), want)
            assert theta_operator(gamma, b, alpha, word=word) == want


# -- the word memo of a validated pair ----------------------------------------

@pytest.fixture
def compose_calls(monkeypatch):
    """The factor count of each compose call made by theta_operator, starting
    from an empty memo."""
    from hombrax import braid
    calls = []
    real = braid.compose

    def counting(*ops):
        calls.append(len(ops))
        return real(*ops)

    monkeypatch.setattr(braid, "compose", counting)
    monkeypatch.setattr(braid, "_validated", None)
    return calls


@pytest.mark.parametrize("longest_first", [False, True])
def test_theta_memo_matches_uncached_fold_on_sigma4(compose_calls, longest_first):
    b, alpha = phi_alpha_rational()
    strands = {i: build_Bi(b, alpha, 4, i) for i in (1, 2, 3)}
    requests = [(Permutation(images), word)
                for images in itertools.permutations(range(1, 5))
                for word in all_reduced_words(Permutation(images))]
    requests.sort(key=lambda r: len(r[1]), reverse=longest_first)
    for gamma, word in requests:
        want = (functools.reduce(compose, [strands[i] for i in word]) if word
                else identity_op(b.space, 4))
        assert theta_operator(gamma, b, alpha, word=word) == want, word
    # Every word of length >= 2 is composed once, as one chain.
    assert len(compose_calls) == sum(len(w) >= 2 for _, w in requests)



def test_theta_stores_the_fold_form_on_sigma4_with_contents(monkeypatch):
    from hombrax import tensor
    alpha = LinearMap.diagonal(PHI_SPACE, [Fraction(2, 3), Fraction(-5, 7)])
    b = twist(phi(), alpha).instantiate({"q": Fraction(3, 2), "l": Fraction(5, 4)})
    strands = {i: build_Bi(b, alpha, 4, i) for i in (1, 2, 3)}
    divided = []
    real = tensor._reduced

    def recording(params, den, cols, raw=False):
        out = real(params, den, cols, raw)
        divided.append(raw and out[1] < den and any(out[2]))
        return out

    monkeypatch.setattr(tensor, "_reduced", recording)
    for images in itertools.permutations(range(1, 5)):
        gamma = Permutation(images)
        for word in all_reduced_words(gamma):
            got = theta_operator(gamma, b, alpha, word=word)
            want = (functools.reduce(compose, [strands[i] for i in word]) if word
                    else identity_op(b.space, 4))
            assert got._key() == want._key(), word
            den, cols = got._integer()
            assert den > 0 and math.gcd(den, *(v for col in cols for _, v in col)) == 1
    # Kernel results with a content greater than 1 were among them.
    assert any(divided)


def test_theta_memo_composes_each_word_once(compose_calls):
    b, alpha = phi_alpha_rational()
    longest3 = Permutation((3, 2, 1))
    theta_operator(longest3, b, alpha, word=(1, 2, 1))
    assert compose_calls == [3]  # a one-off word: one chain of its strands
    theta_operator(longest3, b, alpha, word=(1, 2, 1))
    assert compose_calls == [3]  # a repeated word: a lookup
    theta_operator(longest3, b, alpha, word=(2, 1, 2))
    assert compose_calls == [3, 3]  # no shared prefix: its own letters, one chain
    theta_operator(Permutation((3, 2, 1, 4)), b, alpha, word=(1, 2, 1))
    assert compose_calls == [3, 3, 3]  # another strand count has its own memo
    w0 = (1, 2, 1, 3, 2, 1)
    theta_operator(word_permutation(4, w0), b, alpha, word=w0)
    assert compose_calls == [3, 3, 3, 4]  # the product of (1, 2, 1) and 3 strands


def test_theta_memo_keys_a_list_word_by_its_tuple(compose_calls):
    from hombrax import braid
    b, alpha = phi_alpha_rational()
    longest3 = Permutation((3, 2, 1))
    got = theta_operator(longest3, b, alpha, word=[2, 1, 2])
    assert braid._validated[2][3][(2, 1, 2)] is got
    assert theta_operator(longest3, b, alpha, word=(2, 1, 2)) is got
    assert compose_calls == [3]


def test_theta_memo_goes_with_its_pair(compose_calls):
    from hombrax import braid
    b, alpha = phi_alpha_rational()
    other_b, other_alpha = phi_alpha_rational(a=2, d=3)
    longest3 = Permutation((3, 2, 1))
    want = theta_operator(longest3, b, alpha)
    theta_operator(longest3, other_b, other_alpha)
    entry = braid._validated
    assert entry[0] is other_b and entry[1] is other_alpha
    assert all(p is not want for products in entry[2].values() for p in products.values())
    assert theta_operator(longest3, b, alpha) == want
    assert compose_calls == [3, 3, 3]
