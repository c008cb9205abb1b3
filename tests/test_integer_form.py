"""The two coefficient paths of TensorOp against dense Fraction oracles.

A rational operator keeps an integer form (den, int columns); a symbolic one
keeps Scalar columns.  Every kernel result of the integer path is compared
with the plain dense Fraction matrices of tests/helpers.py, on the rational
gallery and on seeded random sparse operators, and mixed calls are compared
with the same calls made after evaluating the symbolic operand.
"""

import math
import random
from fractions import Fraction

import pytest

from helpers import (
    GALLERY_POINT,
    fraction_det_and_inverse,
    fraction_kron,
    fraction_matmul,
    fraction_matrix,
    phi_alpha_symbolic,
    rational_gallery,
)
from hombrax.quantum import bql
from hombrax.scalars import DenominatorDivisibleByP, Scalar, reduce_mod_p
from hombrax.tensor import (
    BasedSpace,
    LinearMap,
    Singular,
    TensorOp,
    compose,
    identity_op,
    invert,
    op_dumps,
    op_loads,
    tensor_product,
)

V2 = BasedSpace.of_dim(2)
GALLERY = rational_gallery()
# A fixed 2x2 rational map, the right-hand factor of the tensor products.
SMALL = LinearMap(V2, [[Fraction(3, 2), 0], [Fraction(-5, 7), 4]])


def _entrywise(a, b, fn):
    return [[fn(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _first_nonzero(m):
    """(column, row) flat indices of the first nonzero entry, column-major."""
    for j in range(len(m[0])):
        for i in range(len(m)):
            if m[i][j]:
                return j, i
    return None


def _random_op(rng: random.Random, kind: str) -> TensorOp:
    """A sparse rational operator on V2 (x) V2 built from Scalar columns:
    zero columns, negative entries, denominators over 2^40, a content
    factor shared by every entry, or a singular one."""
    dens = [1, 2, 3, 7, (1 << 41) + 15] if kind == "huge" else [1, 2, 3, 5]
    content = 6 if kind == "content" else 1
    cols = []
    for j in range(4):
        if kind == "zero-columns" and j % 2:
            cols.append([])
            continue
        cols.append([(r, Scalar.rational(content * Fraction(rng.randint(-9, 9), rng.choice(dens))))
                     for r in range(4) if rng.random() < 0.6])
    if kind == "singular":
        cols[3] = [(r, s * 2) for r, s in cols[1]]
    return TensorOp(V2, 2, cols)


KINDS = ["plain", "zero-columns", "huge", "content", "singular"]
RANDOM = [_random_op(random.Random(seed), KINDS[seed % len(KINDS)]) for seed in range(20)]


def _check_canonical(op: TensorOp) -> None:
    den, cols = op._integer()
    assert den > 0
    assert math.gcd(den, *(v for col in cols for _, v in col)) == 1
    if op.is_zero():
        assert den == 1
    for col, scol in zip(cols, op.columns):
        assert [r for r, _ in col] == [r for r, _ in scol]
        assert all(v for _, v in col)


def _check_inverse(op: TensorOp) -> None:
    det, inv = fraction_det_and_inverse(fraction_matrix(op))
    if det == 0:
        with pytest.raises(Singular):
            invert(op)
        return
    result = invert(op)
    _check_canonical(result)
    assert fraction_matrix(result) == inv


def _check_pair(f: TensorOp, g: TensorOp) -> None:
    """compose, +, -, ==, hash, is_zero and first_nonzero of two rational
    operators of one shape against the dense Fraction oracle."""
    F, G = fraction_matrix(f), fraction_matrix(g)
    for result, want in ((compose(f, g), fraction_matmul(F, G)),
                         (f - g, _entrywise(F, G, lambda x, y: x - y)),
                         (f + g, _entrywise(F, G, lambda x, y: x + y)),
                         (f - f, _entrywise(F, F, lambda x, y: x - y))):
        _check_canonical(result)
        assert fraction_matrix(result) == want
        assert result.is_zero() == (_first_nonzero(want) is None)
        hit = result.first_nonzero_column()
        assert (None if hit is None else (hit[0], hit[1][0][0])) == _first_nonzero(want)
    assert (f == g) == (F == G)
    copy = TensorOp(f.space, f.arity, f.columns)  # Scalar-built, integer form derived
    assert copy == f and hash(copy) == hash(f)


def _check_tensor(f: TensorOp) -> None:
    F, S = fraction_matrix(f), fraction_matrix(SMALL)
    for result, want in ((tensor_product(f, SMALL), fraction_kron(F, S)),
                         (tensor_product(SMALL, f), fraction_kron(S, F))):
        _check_canonical(result)
        assert fraction_matrix(result) == want


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_kernels_match_fraction_oracle(name):
    op = GALLERY[name]
    _check_canonical(op)
    _check_pair(op, compose(op, op))
    _check_pair(op, op)
    _check_tensor(op)
    _check_inverse(op)


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_mod_p_matches_entrywise_reduction(name):
    op = GALLERY[name]
    dense = [[s.constant_value() for s in row] for row in op.dense()]
    for p in (3, 5, 7):
        if any(x.denominator % p == 0 for row in dense for x in row):
            with pytest.raises(DenominatorDivisibleByP):
                op.mod_p(p)
        else:
            assert op.mod_p(p) == [[reduce_mod_p(x, p) for x in row] for row in dense]


def test_mod_p_refuses_symbolic_maps_and_denominators_divisible_by_p():
    with pytest.raises(ValueError, match="symbolic"):
        phi_alpha_symbolic()[0].mod_p(5)
    thirds = LinearMap(V2, [[Fraction(1, 3), 0], [Fraction(2, 5), 1]])
    with pytest.raises(DenominatorDivisibleByP):
        thirds.mod_p(3)
    assert thirds.mod_p(7) == [[5, 0], [6, 1]]


@pytest.mark.parametrize("k", range(len(RANDOM)))
def test_random_sparse_kernels_match_fraction_oracle(k):
    f, g = RANDOM[k], RANDOM[(k + 1) % len(RANDOM)]
    _check_canonical(f)
    _check_pair(f, g)
    _check_tensor(f)
    _check_inverse(f)


def test_random_sparse_operators_cover_every_case():
    dets = [fraction_det_and_inverse(fraction_matrix(op))[0] for op in RANDOM]
    assert any(d == 0 for d in dets) and any(d != 0 for d in dets)
    assert any(not col for op in RANDOM for col in op.columns)
    assert any(op._integer()[0] > 1 << 40 for op in RANDOM)
    assert any(s.constant_value() < 0 for op in RANDOM for col in op.columns for _, s in col)


def test_zero_operator_is_canonical():
    zero = GALLERY["phi"] - GALLERY["phi"]
    assert zero._integer() == (1, ((),) * zero.total_dim)
    assert zero == TensorOp(zero.space, zero.arity, {}) and zero.is_zero()
    assert hash(zero) == hash(TensorOp(zero.space, zero.arity, {}))


def test_mixed_calls_agree_with_evaluation_first():
    """An integer-form operator with a symbolic one gives, evaluated at a
    rational point, what the integer path gives on the evaluated operand."""
    sym, _ = phi_alpha_symbolic()
    rat = GALLERY["phi"]
    assert rat._integer() is not None and sym._integer() is None
    point = {**GALLERY_POINT, "a": Fraction(2, 3), "d": -5}
    at = sym.instantiate(point)
    for mixed, direct in ((compose(rat, sym), compose(rat, at)),
                          (compose(sym, rat), compose(at, rat)),
                          (tensor_product(rat, sym), tensor_product(rat, at)),
                          (rat - sym, rat - at),
                          (sym + rat, at + rat)):
        assert mixed._integer() is None
        assert mixed.instantiate(point) == direct
    assert sym != rat and rat != sym


def test_one_operator_reached_three_ways_is_equal_with_equal_hash():
    by_instantiate = bql(3).instantiate(GALLERY_POINT)
    space = by_instantiate.space
    by_json = op_loads(op_dumps(by_instantiate), space)
    w = bql(3).instantiate({"q": Fraction(-3, 5), "l": 7})
    by_compose = compose(invert(w), w, by_instantiate)
    assert by_json._cols is not None and by_json._ints is None  # Scalar-built
    assert by_instantiate == by_json == by_compose
    assert hash(by_instantiate) == hash(by_json) == hash(by_compose)
    assert compose(by_json, identity_op(space, 2)) == by_json
