"""The stored form of TensorOp against dense Fraction and Scalar oracles.

A rational operator keeps an integer form (den, int columns); a symbolic one
keeps its entries over one denominator, constants as ints and the others as
packed Laurent entries over its parameter order.  Every kernel result on
rational operators is compared with the plain dense Fraction matrices of
tests/helpers.py, on the rational gallery and on seeded random sparse
operators; mixed calls are compared with the same calls made after
evaluating the symbolic operand; and random Laurent operators and the
symbolic benchmark operators are compared with dense Scalar folds.
"""

import functools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    GALLERY_POINT,
    extension_instances,
    fraction_det_and_inverse,
    fraction_kron,
    fraction_matmul,
    fraction_matrix,
    phi_alpha_rational,
    phi_alpha_symbolic,
    rand_fraction,
    rational_gallery,
)
from hombrax.braid import tensor_power_solution
from hombrax.homlie import (
    braiding_on_extension,
    extended_alpha,
    heisenberg,
    heisenberg_morphism,
    multiplicativity_residual,
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
)
from hombrax.quantum import (
    CompatibleAlpha,
    SupportPattern,
    bql,
    enumerate_patterns,
    induced_solution,
    maximal_patterns,
    phi,
)
from hombrax.scalars import DenominatorDivisibleByP, Scalar, param_order, reduce_mod_p
from hombrax.tensor import (
    EXP_LIMIT,
    ArityMismatch,
    BasedSpace,
    Laurent,
    LinearMap,
    Singular,
    SpaceMismatch,
    SymbolicNotMonomialInvertible,
    TensorOp,
    _sparse_json,
    as_op,
    compose,
    decode_word,
    identity_op,
    invert,
    lift,
    op_dumps,
    op_loads,
    product_space,
    rebase,
    residual,
    swap_op,
    tensor_product,
)
from hombrax.yd import YDModule, group_bialgebra, yd_residual, z2_sign_module

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


def _check_chain(ops: list) -> None:
    """compose(*ops), one chain kernel call, against the pairwise fold and
    the product of the dense Fraction matrices."""
    result = compose(*ops)
    _check_canonical(result)
    assert result == functools.reduce(compose, ops)
    assert fraction_matrix(result) == functools.reduce(fraction_matmul, map(fraction_matrix, ops))


@pytest.mark.parametrize("k", range(len(RANDOM)))
def test_random_chains_match_fold_and_fraction_oracle(k):
    _check_chain([RANDOM[(k + 7 * j) % len(RANDOM)] for j in range(3 + k % 3)])


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_chains_match_fold_and_fraction_oracle(name):
    op = GALLERY[name]
    same = [x for _, x in sorted(GALLERY.items()) if x.dom == op.dom and x.cod == op.cod]
    partner = same[(same.index(op) + 1) % len(same)]
    for length in (3, 4, 5):
        _check_chain([op, partner, op, partner, op][:length])


def test_cancelling_chain_is_the_last_factor():
    for f, g in ((GALLERY["bql3"], GALLERY["induced0"]), (RANDOM[0], RANDOM[4]),
                 (RANDOM[7], RANDOM[1])):
        assert compose(f, invert(f), g) == g
        assert compose(g, invert(f), f) == g


def test_symbolic_chains_match_their_fold():
    sym, alpha = phi_alpha_symbolic()
    lifted = lift(alpha, 2)
    for ops in ([sym, lifted, sym], [lifted, sym, sym, lifted]):
        assert compose(*ops) == functools.reduce(compose, ops)
        assert compose(*ops) == compose(ops[0], functools.reduce(compose, ops[1:]))


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
    assert rat._params == () and sym._params == ("q", "l", "a", "d")
    point = {**GALLERY_POINT, "a": Fraction(2, 3), "d": -5}
    at = sym.instantiate(point)
    for mixed, direct in ((compose(rat, sym), compose(rat, at)),
                          (compose(sym, rat), compose(at, rat)),
                          (compose(rat, sym, rat), compose(rat, at, rat)),
                          (compose(sym, rat, sym), compose(at, rat, at)),
                          (tensor_product(rat, sym), tensor_product(rat, at)),
                          (rat - sym, rat - at),
                          (sym + rat, at + rat)):
        _check_packed(mixed)
        assert mixed.instantiate(point) == direct
    assert sym != rat and rat != sym


def test_one_operator_reached_three_ways_is_equal_with_equal_hash():
    by_instantiate = bql(3).instantiate(GALLERY_POINT)
    space = by_instantiate.space
    by_json = op_loads(op_dumps(by_instantiate), space)
    w = bql(3).instantiate({"q": Fraction(-3, 5), "l": 7})
    by_compose = compose(invert(w), w, by_instantiate)
    assert by_json._integer() == by_instantiate._integer()  # read from text, stored in int
    assert by_instantiate == by_json == by_compose
    assert hash(by_instantiate) == hash(by_json) == hash(by_compose)
    assert compose(by_json, identity_op(space, 2)) == by_json


# -- residual: both sides of an identity in one kernel call -------------------

def _side(side) -> TensorOp:
    """One side of a residual as the fold computes it."""
    if isinstance(side, TensorOp):
        return side
    return side[0] if len(side) == 1 else compose(*side)


def _check_residual(lhs, rhs) -> None:
    """residual(lhs, rhs) against compose(*lhs) - compose(*rhs) and the dense
    Fraction oracle."""
    result = residual(lhs, rhs)
    fold = _side(lhs) - _side(rhs)
    _check_canonical(result)
    assert result == fold and hash(result) == hash(fold)
    dense = [functools.reduce(fraction_matmul, map(fraction_matrix, side)) for side in (lhs, rhs)]
    want = _entrywise(*dense, lambda x, y: x - y)
    assert fraction_matrix(result) == want
    hit = result.first_nonzero_column()
    assert (None if hit is None else (hit[0], hit[1][0][0])) == _first_nonzero(want)


def _den(side) -> int:
    return math.prod(op._integer()[0] for op in side)


RANDOM_SIDES = [([RANDOM[(k + 3 * j) % len(RANDOM)] for j in range(1 + k % 5)],
                 [RANDOM[(k + 5 * j + 1) % len(RANDOM)] for j in range(1 + (k + 2) % 5)])
                for k in range(len(RANDOM))]


@pytest.mark.parametrize("k", range(len(RANDOM_SIDES)))
def test_random_residuals_match_fold_and_fraction_oracle(k):
    _check_residual(*RANDOM_SIDES[k])


def _gallery_sides(name: str) -> list:
    """Sides of 1 to 5 factors alternating a gallery operator and a partner
    of the same shape."""
    op = GALLERY[name]
    same = [x for _, x in sorted(GALLERY.items()) if x.dom == op.dom and x.cod == op.cod]
    partner = same[(same.index(op) + 1) % len(same)]
    word = [op, partner, op, partner, op]
    return [(word[:left], word[1:1 + right])
            for left, right in ((1, 1), (2, 1), (3, 3), (1, 4), (5, 2))]


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_residuals_match_fold_and_fraction_oracle(name):
    for lhs, rhs in _gallery_sides(name):
        _check_residual(lhs, rhs)


def test_residual_sides_cover_every_length_and_unequal_denominators():
    sides = RANDOM_SIDES + [s for name in GALLERY for s in _gallery_sides(name)]
    assert {len(lhs) for lhs, _ in sides} == {len(rhs) for _, rhs in sides} == {1, 2, 3, 4, 5}
    assert sum(_den(lhs) != _den(rhs) for lhs, rhs in sides) > 0.8 * len(sides)


def test_cancelling_residual_is_the_canonical_zero():
    for f, g in ((GALLERY["bql3"], GALLERY["induced0"]), (RANDOM[0], RANDOM[4]),
                 (RANDOM[7], RANDOM[1]), (GALLERY["extension0"], GALLERY["extension0"])):
        zero = TensorOp(g.space, g.arity, {})
        for result in (residual((f, invert(f), g), g), residual(g, (g, invert(f), f)),
                       residual((f, g), (f, g)), residual(g, g)):
            assert result == zero and hash(result) == hash(zero)
            assert result._integer() == (1, ((),) * g.total_dim)
    B, inverse = GALLERY["extension1"], GALLERY["extension1_inverse"]
    assert residual((B, inverse), identity_op(B.space, 2)).is_zero()


def test_symbolic_and_mixed_residuals_match_their_fold():
    sym, alpha = phi_alpha_symbolic()
    lifted, rat = lift(alpha, 2), GALLERY["phi"]
    for lhs, rhs in (((lifted, sym), (sym, lifted)), ((sym, lifted, sym), (lifted, sym)),
                     (sym, (sym, sym)), ((rat, sym), (sym, rat)), (rat, (sym, lifted)),
                     ((rat, rat, sym), rat)):
        result = residual(lhs, rhs)
        assert result == _side(lhs) - _side(rhs)
    assert residual((lifted, sym), (sym, lifted)).is_zero()
    point = {**GALLERY_POINT, "a": Fraction(2, 3), "d": -5}
    at = sym.instantiate(point)
    mixed = residual((rat, sym, rat), (sym, rat))
    _check_packed(mixed)
    assert mixed.instantiate(point) == residual((rat, at, rat), (at, rat))


def _raised(fn):
    try:
        fn()
    except (ArityMismatch, SpaceMismatch) as exc:
        return type(exc), str(exc)
    return None


def test_mismatched_residual_words_raise_as_the_fold():
    V3 = BasedSpace.of_dim(3)
    op2, op1, other = RANDOM[0], SMALL, identity_op(V3, 2)
    cross = swap_op(V2, V3)  # (V2, V3) -> (V3, V2)
    cases = [
        ((op2, op1), op2),                                # lhs chain, arity
        (op2, (op2, other)),                              # rhs chain, space
        ((op2, op2), op1),                                # sides' words, arity
        (op2, (other, other)),                            # sides' words, space
        (cross, identity_op((V2, V3))),                   # cods differ
        (cross, (identity_op((V2, V3)), identity_op((V2, V3)))),  # cods differ, a chain
        (identity_op((V3, V2)), cross),                   # doms differ
        ((op1, op1), (op1, op2)),                         # rhs chain after a valid lhs
    ]
    for lhs, rhs in cases:
        want = _raised(lambda: _side(lhs) - _side(rhs))
        assert want is not None, (lhs, rhs)
        assert _raised(lambda: residual(lhs, rhs)) == want


# -- the residual builders against the fold each one replaced ------------------

def _perturbed(op: TensorOp, col: int, row: int, delta) -> TensorOp:
    return op + TensorOp(op.space, op.arity, {col: [(row, Scalar.rational(delta))]})


def _hybe_pairs() -> list:
    """(name, B, alpha): induced, extension and tensor-power solutions, and
    for each kind one pair perturbed by a multiple of alpha (x) alpha, which
    keeps the pair compatible and breaks the twisted identity."""
    rng = random.Random(11)
    pairs = []
    patterns = maximal_patterns(3)
    for k, pattern in enumerate((patterns[-1], patterns[3])):  # alpha invertible, singular
        ca = CompatibleAlpha(pattern, {c: rand_fraction(rng, nonzero=True)
                                       for c in pattern.support})
        pairs.append((f"induced{k}", induced_solution(ca).instantiate(GALLERY_POINT),
                      ca.to_linear_map()))
    for k, L in enumerate(extension_instances(rng, 2)):
        pairs.append((f"extension{k}", braiding_on_extension(L), extended_alpha(L)))
    b, alpha = phi_alpha_rational()
    pairs.append(("tensor-power2", *tensor_power_solution(b, alpha, 2)))
    for name, B, alpha in list(pairs[::2]):
        pairs.append((f"{name}-perturbed", B + lift(alpha, 2).scale(Fraction(2, 7)), alpha))
    return pairs


HYBE_PAIRS = _hybe_pairs()


def _fold_braid(x: TensorOp, y: TensorOp) -> TensorOp:
    return compose(x, y, x) - compose(y, x, y)


@pytest.mark.parametrize("name, B, alpha", HYBE_PAIRS, ids=[p[0] for p in HYBE_PAIRS])
def test_hybe_residual_builders_match_their_fold(name, B, alpha):
    a2 = lift(alpha, 2)
    assert compatibility_residual(B, alpha) == compose(a2, B) - compose(B, a2)
    n = B.total_dim
    # The first perturbation site at which the pair stops commuting.
    bad = next(b for b in (_perturbed(B, j, r, Fraction(3, 5)) for j in range(n) for r in range(n))
               if not (compose(a2, b) - compose(b, a2)).is_zero())
    assert compatibility_residual(bad, alpha) == compose(a2, bad) - compose(bad, a2)
    res = hybe_residual(B, alpha)
    assert res == _fold_braid(tensor_product(alpha, B), tensor_product(B, alpha))
    assert res.is_zero() == (not name.endswith("perturbed"))
    assert res.first_nonzero() == _fold_braid(tensor_product(alpha, B),
                                              tensor_product(B, alpha)).first_nonzero()
    strands = [build_Bi(B, alpha, 4, i) for i in (1, 2, 3)]
    fold = [compose(strands[0], strands[2]) - compose(strands[2], strands[0]),
            _fold_braid(strands[0], strands[1]), _fold_braid(strands[1], strands[2])]
    assert braid_relation_residuals(B, alpha, 4) == fold


def test_bracket_residual_matches_its_fold():
    rng = random.Random(12)
    for L in extension_instances(rng, 3):
        a, n = L.alpha, L.dim
        fold = [compose(x, L.bracket) - compose(L.bracket, tensor_product(x, x))
                for x in [a] + [_perturbed(a, j, r, Fraction(-4, 3))
                                for j in range(n) for r in range(n)]]
        assert multiplicativity_residual(L, a) == fold[0] and fold[0].is_zero()
        # The first perturbation site at which alpha stops preserving the bracket.
        k = next(k for k, res in enumerate(fold) if not res.is_zero())
        bad = _perturbed(a, (k - 1) // n, (k - 1) % n, Fraction(-4, 3))
        assert multiplicativity_residual(L, bad) == fold[k]


def _fold_yd_residual(V: YDModule) -> TensorOp:
    H = V.host
    h, v = identity_op(H.space), identity_op(V.space)
    m, act, co, D = H.mult, V.action, V.coaction, H.comult
    lhs = compose(tensor_product(m, act), tensor_product(h, swap_op(H.space), v),
                  tensor_product(D, co))
    rhs = compose(tensor_product(m, v), tensor_product(h, swap_op(V.space, H.space)),
                  tensor_product(compose(co, act), h),
                  tensor_product(h, swap_op(H.space, V.space)), tensor_product(D, v))
    return lhs - rhs


def test_yd_residual_matches_its_fold():
    one, zero = Scalar.one(), Scalar.zero()
    grading = [[[one, zero], [zero, zero]], [[zero, zero], [zero, one]]]
    flip = [[[one, zero], [zero, one]], [[zero, one], [one, zero]]]
    failing = YDModule(group_bialgebra(2), ("v0", "v1"), flip, grading)
    for V, holds in ((z2_sign_module(), True), (failing, False)):
        res = yd_residual(V)
        assert res == _fold_yd_residual(V) and res.is_zero() == holds


# -- JSON text straight from the integer form --------------------------------

def _json_via_scalars(op: TensorOp) -> str:
    """op_dumps as written from Scalar columns, str of each entry."""
    return json.dumps({"dim": op.space.dim, "arity": op.arity,
                       "columns": {str(j): [[str(r), str(s)] for r, s in col]
                                   for j, col in enumerate(op.columns)}},
                      sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", sorted(GALLERY) + [f"random{k}" for k in range(len(RANDOM))])
def test_json_from_integer_form_matches_scalar_text(name):
    op = GALLERY[name] if name in GALLERY else RANDOM[int(name[6:])]
    fresh = TensorOp._rational(op.dom, op.cod, *op._integer())
    assert fresh._integer() == op._integer()  # the one stored form, no Scalar columns
    assert op_dumps(fresh) == _json_via_scalars(op)
    key = lambda word, flat: ",".join(map(str, decode_word(word, flat)))  # noqa: E731
    assert _sparse_json(fresh) == {key(op.dom, j): {key(op.cod, r): str(s) for r, s in col}
                                   for j, col in enumerate(op.columns) if col}


# -- one stored form per operator ---------------------------------------------

def _integer_built(op: TensorOp) -> TensorOp:
    """op rebuilt from int columns over the lcm of its entries' denominators."""
    cols = [[(r, s.constant_value()) for r, s in col] for col in op.columns]
    den = math.lcm(*(x.denominator for col in cols for _, x in col))
    return TensorOp._rational(op.dom, op.cod, den,
                              tuple(tuple((r, int(x * den)) for r, x in col) for col in cols))


def _check_one_form(op: TensorOp) -> None:
    """The integer form is stored exactly when every entry is rational, and
    it is the form an integer-built copy stores."""
    rational = all(s.is_rational() for col in op.columns for _, s in col)
    assert (op._integer() is not None) == rational
    if rational:
        copy = _integer_built(op)
        assert op == copy and hash(op) == hash(copy)
        assert op._integer() == copy._integer()
    else:
        _check_packed(op)


def _check_packed(op: TensorOp) -> None:
    """A symbolic map's stored form: the parameters that occur, in canonical
    order; int constants and nonconstant Laurent entries over a positive
    denominator in lowest terms; the largest |exponent|; and == and hash
    agree with a copy rebuilt from the Scalar columns."""
    terms = [t for col in op.columns for _, s in col for t in s.terms]
    assert op._params == param_order(n for exps, _ in terms for n, _ in exps) != ()
    assert op._emax == max(abs(e) for exps, _ in terms for _, e in exps)
    nums = []
    for col in op._cols:
        for _, v in col:
            assert isinstance(v, (int, Laurent)) and v
            if isinstance(v, Laurent):
                assert set(v) != {0} and all(isinstance(c, int) and c for c in v.values())
            nums += [v] if isinstance(v, int) else v.values()
    assert op._den > 0 and math.gcd(op._den, *nums) == 1
    copy = TensorOp._trusted(op.dom, op.cod, op.columns)
    assert op == copy and hash(op) == hash(copy) and op.columns == copy.columns


def _grid(alpha: TensorOp) -> list:
    """The structure-constant grid of a self-map: grid[i][k] is the e_k
    coefficient of alpha(e_i)."""
    return [list(col) for col in zip(*alpha.dense())]


def _built_every_way() -> list:
    sym, alpha = phi_alpha_symbolic()
    B = phi()
    point = {**GALLERY_POINT, "a": Fraction(2, 3), "d": -5}
    mixed_alpha = LinearMap(V2, [[Scalar.param("a"), 1], [0, Fraction(-2, 5)]])
    ops = [sym, alpha, B, mixed_alpha, SMALL, LinearMap.identity(V2),
           LinearMap(V2, [[0, 0], [0, 0]]), as_op(_grid(SMALL), (V2,), (V2,)),
           as_op(_grid(alpha), (V2,), (V2,)), as_op(_grid(mixed_alpha), (V2,), (V2,)),
           sym.instantiate(point), alpha.instantiate(point), invert(B), invert(alpha),
           identity_op(V2, 2), swap_op(V2), swap_op(V2, SMALL.dom),
           B - B, compose(B, invert(B)), compose(invert(alpha), alpha),
           compose(sym, lift(alpha, 2)), sym + GALLERY["phi"], tensor_product(sym, SMALL),
           tensor_product(alpha, SMALL), residual((sym, lift(alpha, 2)), (lift(alpha, 2), sym)),
           rebase(sym, product_space(V2, 2), 1), sym.scale(0), sym.scale(Fraction(1, 3))]
    for op in [*GALLERY.values(), *RANDOM]:
        space, arity = op.space, op.arity
        ops += [op, TensorOp(space, arity, op.columns), op_loads(op_dumps(op), space),
                rebase(op, product_space(space, arity), 1), compose(op, op), op - op,
                op + RANDOM[0] if op.dom == RANDOM[0].dom else op.scale(3),
                tensor_product(op, SMALL), residual((op, op), op)]
        if fraction_det_and_inverse(fraction_matrix(op))[0]:
            ops.append(invert(op))
    return ops


def test_every_way_of_building_stores_one_form():
    ops = _built_every_way()
    for op in ops:
        _check_one_form(op)
    forms = [op._integer() is not None for op in ops]
    assert any(forms) and not all(forms)


def test_symbolic_results_that_cancel_are_stored_as_integers():
    B = phi()
    for op in (B - B, compose(B, invert(B)), residual((B, B), (B, B))):
        assert B._params == ("q", "l") and op._params == ()
        _check_one_form(op)
    assert B - B == TensorOp(B.space, B.arity, {})
    assert compose(B, invert(B)) == identity_op(B.space, 2)


def test_reading_an_operator_writes_nothing_to_it():
    sym, _ = phi_alpha_symbolic()
    for op in [*GALLERY.values(), *RANDOM, sym, phi()]:
        den, cols = op._den, op._cols
        copy = TensorOp(op.space, op.arity, op.columns)
        assert op.columns == copy.columns and op == copy and hash(op) == hash(copy)
        op_dumps(op)
        if op._integer() is not None:
            try:
                op.mod_p(7)
            except DenominatorDivisibleByP:
                pass
        assert op._den is den and op._cols is cols
        with pytest.raises(AttributeError):
            op._cols = cols


def _scaled_entrywise(op: TensorOp, s) -> TensorOp:
    """op.scale(s) as map_scalars computed it: s * v on each Scalar entry v."""
    s = s if isinstance(s, Scalar) else Scalar.rational(s)
    return TensorOp._trusted(op.dom, op.cod, tuple(
        tuple((r, s * v) for r, v in col if not (s * v).is_zero()) for col in op.columns))


FACTORS = [0, 1, -1, Fraction(2, 7), Scalar.rational(Fraction(-3, 4)), Scalar.param("q") + 1]


SCALED = {**GALLERY, "random3": RANDOM[3], "symbolic": phi_alpha_symbolic()[0]}


@pytest.mark.parametrize("name", sorted(SCALED))
def test_scale_matches_entrywise_formula_and_fraction_oracle(name):
    op = SCALED[name]
    for s in FACTORS:
        result = op.scale(s)
        assert result == _scaled_entrywise(op, s)
        _check_one_form(result)
        if op._integer() and not (isinstance(s, Scalar) and not s.is_rational()):
            c = s.constant_value() if isinstance(s, Scalar) else Fraction(s)
            assert fraction_matrix(result) == [[c * x for x in row]
                                               for row in fraction_matrix(op)]
        else:
            assert result.dense() == [[s * x for x in row] for row in op.dense()]
    assert -op == _scaled_entrywise(op, -1) == op.scale(-1)
    zero = op.scale(0)
    assert zero == TensorOp(op.space, op.arity, {}) and zero._integer() == (1, ((),) * op.total_dim)


def test_rational_scale_and_negation_build_no_scalar(monkeypatch):
    B = GALLERY["extension0"]  # the braiding on an extension of a twisted Heisenberg algebra
    want = [_scaled_entrywise(B, Fraction(2, 3)), _scaled_entrywise(B, -1)]

    def refuse(*args, **kwargs):
        raise AssertionError("built a Scalar")

    monkeypatch.setattr(Scalar, "__init__", refuse)
    got = [B.scale(Fraction(2, 3)), -B]
    monkeypatch.undo()
    assert got == want and all(op._integer() for op in got)


# -- symbolic operators in packed form against a dense Scalar oracle -----------
#
# The oracle multiplies and adds the Scalar matrices the operators were built
# from, with no kernel of hombrax.tensor in between.

def _smul(a: list, b: list) -> list:
    """The dense Scalar product of a (r x m) and b (m x c)."""
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Scalar.zero())
             for j in range(len(b[0]))] for i in range(len(a))]


def _skron(a: list, b: list) -> list:
    """The dense Scalar Kronecker product, in the row-major index order."""
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _ssub(a: list, b: list) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _sop(rows: list, arity: int = 1) -> TensorOp:
    """The operator on V2^(x arity) with the dense Scalar matrix rows."""
    n = len(rows)
    return TensorOp(V2, arity, [[(r, rows[r][j]) for r in range(n) if rows[r][j]]
                                for j in range(n)])


def _sid(n: int) -> list:
    return [[Scalar.one() if i == j else Scalar.zero() for j in range(n)] for i in range(n)]


# Conventional names and others, which sort after d, alphabetically.
_NAMES = ("q", "l", "a", "d", "x1", "a11", "b2")


@st.composite
def _laurent(draw) -> Scalar:
    """Zero to three terms: negative exponents, coefficients over unequal denominators."""
    total = Scalar.zero()
    for pairs, num, den in draw(st.lists(st.tuples(
            st.dictionaries(st.sampled_from(_NAMES), st.integers(-3, 3), max_size=3),
            st.integers(-6, 6), st.sampled_from((1, 2, 3, 5, 12))), max_size=3)):
        total = total + Scalar.monomial(Fraction(num, den), pairs.items())
    return total


@st.composite
def _matrix(draw, n: int) -> list:
    return [[draw(_laurent()) if draw(st.booleans()) else Scalar.zero() for _ in range(n)]
            for _ in range(n)]


def _check_built(op: TensorOp, rows: list) -> None:
    """op stores one canonical form whose Scalar columns are the matrix rows."""
    assert op.dense() == rows
    _check_one_form(op)


@settings(deadline=None, max_examples=60)
@given(st.data(), st.sampled_from((1, 2)))
def test_packed_kernels_match_dense_scalar_oracle(data, arity):
    n = 2 ** arity
    F, G, H = (data.draw(_matrix(n)) for _ in range(3))
    f, g, h = _sop(F, arity), _sop(G, arity), _sop(H, arity)
    for op, rows in ((f, F), (g, G), (h, H)):
        _check_built(op, rows)
        assert op_loads(op_dumps(op), V2) == op
    cases = [(compose(f, g), _smul(F, G)),
             (compose(f, g, h), _smul(_smul(F, G), H)),
             (residual((f, g), h), _ssub(_smul(F, G), H)),
             (residual((f, g), (g, f)), _ssub(_smul(F, G), _smul(G, F))),
             (f - g, _ssub(F, G))]
    for c in (Fraction(-3, 4), Scalar.param("x1", -2)):
        cases.append((f.scale(c), [[x * c for x in r] for r in F]))
    if arity == 1:
        cases += [(tensor_product(f, g), _skron(F, G)),
                  (tensor_product(f, g, h), _skron(_skron(F, G), H))]
    for result, want in cases:
        _check_built(result, want)


def _check_instantiate(op: TensorOp, rows: list, point: dict) -> None:
    """op.instantiate(point) evaluates the Scalar matrix rows, or raises what
    Scalar.evaluate raises at the first entry, in column order, that fails."""
    n = len(rows)
    for j in range(n):
        for i in range(n):
            try:
                rows[i][j].evaluate(point)
            except ValueError as exc:
                with pytest.raises(type(exc)) as got:
                    op.instantiate(point)
                assert str(got.value) == str(exc)
                return
    result = op.instantiate(point)
    assert fraction_matrix(result) == [[x.evaluate(point) for x in row] for row in rows]
    assert result._integer() is not None


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_instantiate_raises_and_evaluates_as_scalar_evaluate(data):
    F, G = data.draw(_matrix(4)), data.draw(_matrix(4))
    names = data.draw(st.sets(st.sampled_from(_NAMES)))
    point = {n: data.draw(st.sampled_from((0, 2, Fraction(-1, 3), Fraction(5, 2))))
             for n in names}
    # A kernel result keeps its terms in no particular order.
    for op, rows in ((_sop(F, 2), F), (compose(_sop(F, 2), _sop(G, 2)), _smul(F, G))):
        _check_instantiate(op, rows, point)


def test_packed_products_that_cancel_or_reorder_terms():
    Q, L = Scalar.param("q"), Scalar.param("l")
    zero, one = Scalar.zero(), Scalar.one()
    F, G = [[Q + 1, zero], [zero, Q - L]], [[Q - 1, L], [zero, Q + L]]
    f, g = _sop(F), _sop(G)
    _check_built(compose(f, g), _smul(F, G))  # q^2 - 1 and q^2 - l^2
    _check_built(tensor_product(f, g), _skron(F, G))
    # Entry (0, 0) of F G is q^-1 + q^-2, its terms summed in that order:
    # at q = 0 Scalar.evaluate names the exponent -2, the first in its order.
    F, G = [[Q ** -1, Q ** -1], [zero, one]], [[one, zero], [Q ** -1, one]]
    _check_instantiate(compose(_sop(F), _sop(G)), _smul(F, G), {"q": 0})


@st.composite
def _monomial_invertible(draw, n: int) -> list:
    """P D U: a permutation, a diagonal of monomials and an upper unitriangular
    matrix of Laurent entries; elimination finds a monomial pivot in every column."""
    perm = draw(st.permutations(range(n)))
    diag = [Scalar.monomial(draw(st.sampled_from((1, -2, Fraction(3, 5)))),
                            draw(st.dictionaries(st.sampled_from(_NAMES), st.integers(-3, 3),
                                                 max_size=2)).items()) for _ in range(n)]
    upper = [[Scalar.one() if i == j else (draw(_laurent()) if j > i else Scalar.zero())
              for j in range(n)] for i in range(n)]
    P = [[Scalar.one() if perm[i] == j else Scalar.zero() for j in range(n)] for i in range(n)]
    D = [[diag[i] if i == j else Scalar.zero() for j in range(n)] for i in range(n)]
    return _smul(_smul(P, D), upper)


@settings(deadline=None, max_examples=60)
@given(st.data(), st.sampled_from((1, 2)))
def test_invert_on_monomial_pivots_matches_dense_scalar_oracle(data, arity):
    n = 2 ** arity
    M = data.draw(_monomial_invertible(n))
    f = _sop(M, arity)
    inv = invert(f)
    _check_one_form(inv)
    assert _smul(M, inv.dense()) == _sid(n) == _smul(inv.dense(), M)
    assert compose(f, inv) == identity_op(V2, arity) == compose(inv, f)


def test_invert_keeps_its_errors_on_packed_entries():
    Q, L = Scalar.param("q"), Scalar.param("l")
    with pytest.raises(SymbolicNotMonomialInvertible):
        invert(_sop([[Q + 1, Scalar.zero()], [Scalar.zero(), L]]))
    with pytest.raises(Singular):
        invert(_sop([[Q, Q * L], [Scalar.zero(), Scalar.zero()]]))
    with pytest.raises(Singular):
        invert(_sop([[Q, Q ** 2], [Scalar.one(), Q]]))


def test_exponents_are_exact_or_refused():
    limit = EXP_LIMIT
    Q, X = Scalar.param("q"), Scalar.param("x1")
    zero = Scalar.zero()

    def diag(s):
        return _sop([[s, zero], [zero, s + 1]])

    # Balanced digits: q^k x1^-k packs both exponents next to each other, and
    # three factors of 10,000 add up to 30,000 in each digit with no carry.
    f = diag(Q ** 10000 * X ** -10000)
    want = [[Q ** 30000 * X ** -30000, zero], [zero, (Q ** 10000 * X ** -10000 + 1) ** 3]]
    assert compose(f, f, f).dense() == want
    assert invert(_sop([[Q ** 10000, zero], [zero, X]])).dense() == \
        [[Q ** -10000, zero], [zero, X ** -1]]
    big = diag(Q ** 20000)
    for call in (lambda: compose(f, f, f, f),            # 40,000 in a chain of four
                 lambda: compose(big, diag(Q ** -20000)),  # cancels, but its factors reach 40,000
                 lambda: residual((big, big), big),
                 lambda: tensor_product(big, big),
                 lambda: invert(_sop([[Q ** 20000, zero], [zero, Scalar.one()]]))):
        with pytest.raises(ValueError, match="outside the range"):
            call()
    assert diag(Q ** (limit - 1)).dense()[0][0] == Q ** (limit - 1)
    assert diag(Q ** (1 - limit)).dense()[0][0] == Q ** (1 - limit)
    for e in (limit, -limit, 10 ** 20):
        with pytest.raises(ValueError, match="outside the range"):
            diag(Q ** e)
    with pytest.raises(ValueError, match="outside the range"):
        op_loads('{"dim":2,"arity":2,"columns":{"0":[["0","1*q^99999999999999999999"]]}}')


def _extension_fold(L) -> list:
    """The braiding on C (+) L by its formula, on Scalar matrices:
    (a, x) (x) (b, y) -> (b, alpha y) (x) (a, alpha x) + (1, 0) (x) (0, [x, y])."""
    n, m = L.dim, L.dim + 1
    one, zero = Scalar.one(), Scalar.zero()
    A, C = L.alpha.dense(), L.bracket.dense()
    ext = [[one] + [zero] * n] + [[zero] + row for row in A]
    swap = [[one if (r // m, r % m) == (c % m, c // m) else zero for c in range(m * m)]
            for r in range(m * m)]
    fold = _smul(swap, _skron(ext, ext))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                fold[k + 1][(i + 1) * m + j + 1] += C[k][i * n + j]
    return fold


def _strand_fold(B: list, A: list, n: int, i: int) -> list:
    """alpha^(x)(i-1) (x) B (x) alpha^(x)(n-i-1) on Scalar matrices."""
    return functools.reduce(_skron, [A] * (i - 1) + [B] + [A] * (n - i - 1))


def _bql_formula(N: int) -> list:
    """bql(N) by its formula: e_i (x) e_i -> l q e_i (x) e_i, and for i != j
    e_i (x) e_j -> l e_j (x) e_i, plus l (q - q^-1) e_i (x) e_j when i > j."""
    Q, L = Scalar.param("q"), Scalar.param("l")
    rows = [[Scalar.zero()] * (N * N) for _ in range(N * N)]
    for i in range(N):
        for j in range(N):
            rows[j * N + i][i * N + j] = L * Q if i == j else L
            if i > j:
                rows[i * N + j][i * N + j] = L * (Q - Q ** -1)
    return rows


def _symbolic_workload_operators() -> list:
    """(name, operator, its dense Scalar fold) for the symbolic gallery and
    the symbolic operators the symbolic benchmark workload builds from it:
    twists of phi and bql, induced solutions, extension braidings and
    strands."""
    a, b, c, d = (Scalar.param(n) for n in "abcd")
    Q, L = Scalar.param("q"), Scalar.param("l")
    zero = Scalar.zero()
    cases = [("phi", phi(), [[L, zero, zero, zero], [zero, L - Q ** 2 * L, Q * L, zero],
                             [zero, Q * L, zero, zero], [zero, zero, zero, L]])]
    cases += [(f"bql{N}", bql(N), _bql_formula(N)) for N in (2, 3, 4)]
    twists = [("phi-diag", phi(), [[a, zero], [zero, d]]),
              ("phi-b", phi(), [[zero, b], [zero, zero]]),
              ("phi-c", phi(), [[zero, zero], [c, zero]])]
    for N in (3, 4):
        diagonal = SupportPattern(N, {i: i for i in range(1, N + 1)})
        alpha = CompatibleAlpha.symbolic(diagonal).to_linear_map()
        twists.append((f"bql{N}-diag", bql(N), alpha.dense()))
    for name, B, A in twists:
        alpha = as_op([list(col) for col in zip(*A)], B.dom[:1], B.dom[:1])
        fold = _smul(_skron(A, A), B.dense())
        cases.append((name, twist(B, alpha), fold))
        if B.space.dim == 2:
            for i in (1, 2, 3):
                cases.append((f"{name}/strand{i}", build_Bi(twist(B, alpha), alpha, 4, i),
                              _strand_fold(fold, A, 4, i)))
    bql3 = bql(3).dense()
    for pattern in enumerate_patterns(3):
        ca = CompatibleAlpha.symbolic(pattern)
        A = ca.to_linear_map().dense()
        cases.append((f"induced{pattern.column_rows}", induced_solution(ca),
                      _smul(_skron(A, A), bql3)))
    for name, L in (("sl2star", yau_twist(sl2_star(), sl2_star_morphism(
                        1, a21=a, a22=c, a23=b, a33=d))),
                    ("heisenberg", yau_twist(heisenberg(), heisenberg_morphism(
                        b, c, a, 0, 0, d)))):
        B, alpha = braiding_on_extension(L), extended_alpha(L)
        fold = _extension_fold(L)
        cases.append((f"ext-{name}", B, fold))
        for n in (3, 4):
            for i in range(1, n):
                cases.append((f"ext-{name}/strand{n}.{i}", build_Bi(B, alpha, n, i),
                              _strand_fold(fold, alpha.dense(), n, i)))
    return cases


SYMBOLIC = _symbolic_workload_operators()


@pytest.mark.parametrize("name, op, fold", SYMBOLIC, ids=[c[0] for c in SYMBOLIC])
def test_symbolic_operators_match_the_scalar_fold(name, op, fold):
    assert op.dense() == fold
    _check_one_form(op)
