"""Sparse operators: composition, tensor products, inversion, JSON."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    dense_equal,
    dense_kron,
    dense_matmul,
    fraction_matmul,
    fraction_matrix,
    gcd_chain_content,
    rand_fraction,
    random_op,
    rational_gallery,
)
from hombrax.braid import Permutation
from hombrax.quantum import CompatibleAlpha, SupportPattern, bql, phi
from hombrax.scalars import Scalar, parse_scalar
from hombrax.tensor import (
    ArityMismatch,
    BasedSpace,
    LinearMap,
    Singular,
    SpaceMismatch,
    SymbolicNotMonomialInvertible,
    TensorOp,
    as_op,
    compose,
    decode_word,
    encode_index,
    identity_op,
    invert,
    lift,
    linear_map_from_op,
    op_dumps,
    op_from_json_dict,
    op_loads,
    op_to_json_dict,
    power,
    product_space,
    rebase,
    residual,
    swap_op,
    tensor_product,
)

V2 = BasedSpace.of_dim(2)
V3 = BasedSpace.of_dim(3)


def test_identity_and_swap_basics():
    ident = identity_op(V2, 1)
    assert ident.column(0) == ((0, Scalar.one()),)
    tau = swap_op(V2)
    assert tau.column(1) == ((2, Scalar.one()),)  # e0 (x) e1 -> e1 (x) e0
    assert compose(tau, tau) == identity_op(V2, 2)


def test_compose_identity_and_inverse():
    b = bql(2).instantiate({"q": 2, "l": 1})
    assert compose(identity_op(V2, 2), b) == b
    binv = invert(b)
    assert compose(b, binv) == identity_op(V2, 2)
    assert compose(binv, b) == identity_op(V2, 2)


def test_arity_and_space_mismatch():
    with pytest.raises(ArityMismatch):
        compose(identity_op(V2, 1), identity_op(V2, 2))
    with pytest.raises(SpaceMismatch):
        compose(identity_op(V2, 1), identity_op(V3, 1))
    # Different spaces make a word, not an error: V2 (x) V3 -> V2 (x) V3.
    mixed = tensor_product(identity_op(V2, 1), identity_op(V3, 1))
    assert mixed == identity_op((V2, V3))
    with pytest.raises(SpaceMismatch):
        mixed.space


def test_maps_between_words():
    H = BasedSpace.of_dim(2, prefix="h")
    s = swap_op(H, (V3, V3))  # h (x) v (x) w -> v (x) w (x) h
    assert (s.dom, s.cod) == ((H, V3, V3), (V3, V3, H))
    assert decode_word(s.dom, 1 * 9 + 2 * 3 + 0) == (1, 2, 0)
    assert s.column(1 * 9 + 2 * 3 + 0) == ((2 * 6 + 0 * 2 + 1, Scalar.one()),)
    assert compose(swap_op((V3, V3), H), s) == identity_op((H, V3, V3))
    # The empty word is the ground field: () -> H is a vector, H -> () a covector.
    unit, counit = as_op([0, 1], (), (H,)), as_op([2, 3], (H,), ())
    assert unit.first_nonzero() == ((), (1,)) and counit.first_nonzero() == ((0,), ())
    assert compose(counit, unit) == identity_op(()).scale(3)
    assert tensor_product(unit, counit).dense() == [[Scalar.zero()] * 2,
                                                    [Scalar.rational(2), Scalar.rational(3)]]
    assert as_op(s, s.dom, s.cod) is s
    with pytest.raises(SpaceMismatch):
        as_op(s, s.cod, s.dom)
    with pytest.raises(ValueError):
        as_op([[1, 0]], (H,), (H,))


def test_tensor_product_of_identities():
    assert tensor_product(identity_op(V2, 1), identity_op(V2, 1)) == identity_op(V2, 2)


def test_lift_of_diagonal():
    a, d = Scalar.param("a"), Scalar.param("d")
    alpha = LinearMap.diagonal(V2, [a, d])
    lifted = lift(alpha, 2)
    assert [lifted.entry(i, i) for i in range(4)] == [a * a, a * d, a * d, d * d]


def test_lift_matches_bilinear_expansion():
    alpha = LinearMap(V2, [[Scalar.param("a"), Scalar.param("b")],
                           [Scalar.param("c"), Scalar.param("d")]])
    lifted = lift(alpha, 2)
    oracle = dense_kron(alpha.dense(), alpha.dense())
    assert dense_equal(lifted.dense(), oracle)


def test_strand_operator_matches_dense_kronecker_oracle():
    # alpha (x) B (x) alpha on four factors, against plain dense kron.
    from hombrax.hybe import build_Bi
    alpha = LinearMap.diagonal(V2, [Scalar.param("a"), Scalar.param("d")])
    b = bql(2)
    op = build_Bi(b, alpha, 4, 2)
    oracle = dense_kron(dense_kron(alpha.dense(), b.dense()), alpha.dense())
    assert dense_equal(op.dense(), oracle)


def test_lift_equals_iterated_tensor_product():
    rng = random.Random(3)
    for dim in (2, 3):
        space = BasedSpace.of_dim(dim)
        rows = [[Scalar.rational(rng.randint(-3, 3)) for _ in range(dim)]
                for _ in range(dim)]
        alpha = LinearMap(space, rows)
        acc = alpha
        for m in range(2, 5):
            acc = tensor_product(acc, alpha)
            assert lift(alpha, m) == acc


def test_power():
    tau = swap_op(V2)
    assert power(tau, 0) == identity_op(V2, 2)
    assert power(tau, 2) == identity_op(V2, 2)
    assert power(tau, 3) == tau


def test_residual_and_is_zero():
    b = bql(2)
    assert (b - b).is_zero()
    assert not identity_op(V2, 1).is_zero()
    assert (compose(swap_op(V2), swap_op(V2)) - identity_op(V2, 2)).is_zero()


def _equal_operand_case(name: str) -> TensorOp:
    if name == "rational":
        return bql(2).instantiate({"q": 2, "l": 1})
    if name == "symbolic":
        return phi()
    H = BasedSpace.of_dim(2, prefix="h")
    return as_op([[1, Fraction(1, 2), 0], [0, 3, -1]], (H,), (V3,))  # H -> V3


@pytest.mark.parametrize("name", ["rational", "symbolic", "between words"])
def test_equal_operands_subtract_to_zero_without_a_kernel_call(monkeypatch, name):
    from hombrax import tensor
    x = _equal_operand_case(name)
    zero = x.scale(0)
    copy = x + zero
    assert copy == x and copy is not x
    calls = []
    real = tensor._combine_columns
    monkeypatch.setattr(tensor, "_combine_columns",
                        lambda terms: calls.append(terms) or real(terms))
    for got in (x - x, residual(x, x), x - copy, residual((copy,), [x])):
        assert got == zero and hash(got) == hash(zero) and got.is_zero()
        assert (got.dom, got.cod) == (x.dom, x.cod)
    assert calls == []


def test_equal_stored_columns_on_other_words_still_raise():
    other = BasedSpace(["x", "y"])
    a, b = identity_op(V2, 1), identity_op(other, 1)
    assert a.columns == b.columns
    cases = ((a, b, SpaceMismatch), (a, identity_op(V2, 2), ArityMismatch),
             (a.scale(0), identity_op(V2, 2).scale(0), ArityMismatch))
    for lhs, rhs, exc in cases:
        with pytest.raises(exc):
            lhs - rhs
        with pytest.raises(exc):
            residual(lhs, rhs)


def _perturbed(op: TensorOp, row: int, col: int, delta: Scalar) -> TensorOp:
    cols = list(op.columns)
    cols[col] = cols[col] + ((row, delta),)
    return TensorOp(op.space, op.arity, cols)


@pytest.mark.parametrize("seed", range(6))
def test_one_entry_perturbed_difference_matches_dense_oracle(seed):
    rng = random.Random(seed)
    x = random_op(rng, V2, 2)
    site = rng.randrange(4), rng.randrange(4)
    y = _perturbed(x, *site, Scalar.rational(rand_fraction(rng, nonzero=True)))
    want = [[a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(fraction_matrix(x), fraction_matrix(y))]
    assert fraction_matrix(x - y) == want
    assert fraction_matrix(residual(x, y)) == want
    s = phi()
    t = _perturbed(s, *site, Scalar.param("q", rng.choice((-1, 1))) * rand_fraction(rng, True))
    want = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(s.dense(), t.dense())]
    assert dense_equal((s - t).dense(), want)
    assert dense_equal(residual(s, t).dense(), want)
    assert not (s - t).is_zero()


def _random_rows(rng: random.Random) -> list[list[Fraction]]:
    return [[rand_fraction(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(3)]
            for _ in range(3)]


@pytest.mark.parametrize("seed", range(12))
def test_linear_map_kernels_match_dense_fraction_oracle(seed):
    rng = random.Random(seed)
    A, B = _random_rows(rng), _random_rows(rng)
    a, b = LinearMap(V3, A), LinearMap(V3, B)
    assert a.dense() == [[Scalar.rational(x) for x in row] for row in A]
    assert fraction_matrix(a) == A
    assert fraction_matrix(compose(a, b)) == fraction_matmul(A, B)
    kron = [[A[i][j] * A[k][m] for j in range(3) for m in range(3)]
            for i in range(3) for k in range(3)]
    assert fraction_matrix(lift(a, 2)) == kron
    det = sum(A[0][j] * (A[1][(j + 1) % 3] * A[2][(j + 2) % 3]
                         - A[1][(j + 2) % 3] * A[2][(j + 1) % 3]) for j in range(3))
    if det == 0:
        with pytest.raises(Singular):
            invert(a)
        return
    inv = fraction_matrix(invert(a))
    ident = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert fraction_matmul(inv, A) == ident and fraction_matmul(A, inv) == ident


def test_compose_matches_dense_oracle():
    rng = random.Random(7)
    f = random_op(rng, V2, 2)
    g = random_op(rng, V2, 2)
    assert dense_equal(compose(f, g).dense(), dense_matmul(f.dense(), g.dense()))


# sha256 of op_dumps(compose(op, op)) for each rational gallery operator, as
# computed by the general term-map Scalar arithmetic: the integer kernel
# must reproduce the same text byte for byte.
GALLERY_SQUARE_SHA256 = {
    "phi": "6da85b90ed9303225f29044299627c9debb8d1ac1f51695c67f4925643888883",
    "bql3": "b1c102ae15f469a1bc019ff4422b62d35753e05b1d16eb8ecf67cef0aa9339ef",
    "induced0": "d09e74c32ad420bab5f73e21f8d5ad35f671e95e749ac20fbda83087c7feeffd",
    "induced1": "d09e74c32ad420bab5f73e21f8d5ad35f671e95e749ac20fbda83087c7feeffd",
    "induced2": "043744939b81250e30977be3f6374f5df290203eb923d270d7f6e441252192a5",
    "induced3": "7826c21f913466500a158bf6290efde82b5a7fcbe8dafc57bf73eeeca49f94ef",
    "induced4": "5e5a1a6cdca67c7c352ca07904ed3d8343d88afd06a432a5ad4e1a255dde41d4",
    "induced5": "e6ed6ca698d6d7dd8003843cd55aaa914bd060fa6d7445ecc6bc4fd9927b192b",
    "induced6": "fea5723f424d960f23c1fb26f72e979b923c22b470772f763f92262a988ed4ba",
    "induced7": "26b018633477b25e45e8d5cc8fbb3440caa9731ce2f6ea1c490a090e1ea97c0e",
    "induced8": "87560a84e0c03e08f8e91d859a5dea2892e311c4c25b701c8237c8665c685a69",
    "extension0": "e768e2da319b69466fcb2ab88c1acba0404cafddebba69dd3f9f96c1347f575a",
    "extension0_inverse": "20ef34e163b62c0bfdd281b33985b7ec94f63d3c39b41491247b74cb40bcb51f",
    "extension1": "dca7e3670914391357c7cfdcb86ca595e9d4f7a600643bc78bea006240083c35",
    "extension1_inverse": "4fa1f753818d83681629ad0caae7699e99f01fc925ac16f7b69ed5dd3b669c54",
    "extension2": "1dd032ad52789166b015decaa512c1923b7034d0c234d8ba56077dbae10815cd",
    "extension2_inverse": "16ffcd9cc131b2c94c9f5d31acc9ebae73888abc2a618aff290f7fa54e09126c",
    "phi_power2": "05eeca28a9e828d4ead3a7f3ebe4002c34e314a9790ef44d1e887c437252eec1",
}


def test_compose_on_rational_gallery_matches_fraction_oracle():
    gallery = rational_gallery()
    assert gallery.keys() == GALLERY_SQUARE_SHA256.keys()
    for name, op in gallery.items():
        square = compose(op, op)
        dense = fraction_matrix(op)
        assert fraction_matrix(square) == fraction_matmul(dense, dense), name
        assert all(type(c) is Fraction for col in square.columns
                   for _, s in col for _, c in s.terms), name
        digest = hashlib.sha256(op_dumps(square).encode()).hexdigest()
        assert digest == GALLERY_SQUARE_SHA256[name], name


def test_compose_associative_and_interchange():
    rng = random.Random(11)
    f, g, h = (random_op(rng, V2, 2) for _ in range(3))
    assert compose(compose(f, g), h) == compose(f, compose(g, h))
    f2, g2 = random_op(rng, V2, 1), random_op(rng, V2, 1)
    lhs = compose(tensor_product(f, f2), tensor_product(g, g2))
    rhs = tensor_product(compose(f, g), compose(f2, g2))
    assert lhs == rhs


def test_invert_swap_is_swap():
    assert invert(swap_op(V2)) == swap_op(V2)


def test_symbolic_invert_diagonal_lift():
    alpha = LinearMap.diagonal(V2, [Scalar.param("a"), Scalar.param("d")])
    inv = invert(lift(alpha, 2))
    assert inv.entry(0, 0) == Scalar.param("a") ** -2


def test_symbolic_invert_deformed_flip():
    # the middle block forces the pivot search to skip a binomial entry
    from hombrax.quantum import phi
    b = phi()
    binv = invert(b)
    assert compose(b, binv) == identity_op(b.space, 2)
    assert compose(binv, b) == identity_op(b.space, 2)


def test_invert_singular_and_symbolic_failures():
    ones = TensorOp(V2, 1, {0: [(0, Scalar.one()), (1, Scalar.one())],
                            1: [(0, Scalar.one()), (1, Scalar.one())]})
    with pytest.raises(Singular):
        invert(ones)
    stuck = LinearMap(V2, [[Scalar.param("q") + 1, 0], [0, 1]])
    with pytest.raises(SymbolicNotMonomialInvertible):
        invert(stuck)


def test_invert_diag_lift_iff_product_nonzero():
    # ad != 0 makes the lifted diagonal invertible; a = 0 does not.
    good = LinearMap.diagonal(V2, [2, 3])
    invert(lift(good, 2))
    bad = LinearMap.diagonal(V2, [0, 3])
    with pytest.raises(Singular):
        invert(lift(bad, 2))


def test_invert_matches_composition_oracle_dim9():
    b = bql(3).instantiate({"q": 2, "l": 1})
    binv = invert(b)
    assert compose(b, binv) == identity_op(V3, 2)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=6),
       st.data())
def test_multi_index_round_trip(dim, arity, data):
    flat = data.draw(st.integers(min_value=0, max_value=dim ** arity - 1))
    word = (BasedSpace.of_dim(dim),) * arity
    assert encode_index(dim, decode_word(word, flat)) == flat


def test_rebase_regroups_flat_indices():
    b = bql(2)
    four = tensor_product(b, b)  # arity 4 over dim 2
    grouped = rebase(four, product_space(V2, 2), 2)
    assert grouped.arity == 2
    assert grouped.space.dim == 4
    assert grouped.columns == four.columns


def test_json_round_trip_bit_exact():
    for op in (bql(3), swap_op(V2), identity_op(V3, 2)):
        text = op_dumps(op)
        again = op_loads(text)
        assert op_dumps(again) == text
        assert again.columns == op.columns


def test_json_dict_shape():
    doc = op_to_json_dict(swap_op(V2))
    assert doc["dim"] == 2 and doc["arity"] == 2
    assert doc["columns"]["1"] == [["2", "1"]]
    assert doc["columns"]["0"] == [["0", "1"]]
    assert op_from_json_dict(doc) == rebase(swap_op(V2), BasedSpace.of_dim(2), 2)


def test_json_rejects_out_of_range_column():
    doc = op_to_json_dict(swap_op(V2))
    doc["columns"]["99"] = [["0", "1"]]
    with pytest.raises(IndexError):
        op_from_json_dict(doc)


def test_constructor_rejects_bad_columns():
    one = Scalar.one()
    with pytest.raises(IndexError, match="column keys"):
        TensorOp(V2, 1, {2: [(0, one)]})
    with pytest.raises(ValueError, match="expected 2 columns"):
        TensorOp(V2, 1, [[(0, one)]])
    with pytest.raises(IndexError, match="row 2 out of range"):
        TensorOp(V2, 1, [[(2, one)], []])


def test_structures_are_immutable():
    pattern = SupportPattern(2, {1: 1})
    for obj in (V2, identity_op(V2), LinearMap.identity(V2), Permutation((2, 1)),
                pattern, CompatibleAlpha(pattern, {1: 2})):
        with pytest.raises(AttributeError, match=f"^{type(obj).__name__} is immutable$"):
            obj.labels = ()


def test_linear_map_round_trip_through_op():
    rng = random.Random(5)
    rows = [[Scalar.rational(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
    m = LinearMap(V3, rows)
    assert isinstance(m, TensorOp) and m.dom == m.cod == (V3,)
    assert m.dense() == rows
    # rows, inverse() and linear_map_from_op remain for perfbench only.
    assert m.rows == rows and linear_map_from_op(m) is m
    with pytest.raises(ArityMismatch):
        linear_map_from_op(lift(m, 2))
    shear = LinearMap(V3, [[1, 2, 0], [0, 1, 0], [0, 0, 3]])
    assert shear.inverse() == invert(shear)


# -- canonical kernel output ---------------------------------------------------
#
# The kernels build their results without the canonicalising pass of
# TensorOp(...); each result must already be what that pass would produce.

def assert_canonical(op: TensorOp) -> None:
    n = op.total_dim
    assert len(op.columns) == n
    for col in op.columns:
        rows = [r for r, _ in col]
        assert all(a < b for a, b in zip(rows, rows[1:])), rows
        assert all(0 <= r < n for r in rows), rows
        assert not any(s.is_zero() for _, s in col)
    assert op == TensorOp(op.space, op.arity, op.columns)


def kernel_results(f: TensorOp, g: TensorOp, alpha: LinearMap) -> list[TensorOp]:
    """Every kernel whose output skips canonicalisation, on f, g (same shape) and alpha."""
    out = [compose(f, g), compose(g, f), tensor_product(f, g), power(f, 2),
           lift(alpha, 1), lift(alpha, 2), identity_op(f.space, f.arity),
           swap_op(f.space), rebase(f, product_space(f.space, f.arity), 1),
           rebase(f, BasedSpace.of_dim(f.space.dim, prefix="f"), f.arity)]
    for op in (f, alpha):
        try:
            out.append(invert(op))
        except Singular:
            pass
    return out


def test_kernels_keep_rational_gallery_canonical():
    for name, op in rational_gallery().items():
        alpha = LinearMap(op.space, [[(i + 2 * j) % 3 for j in range(op.space.dim)]
                                     for i in range(op.space.dim)])
        for result in kernel_results(op, op, alpha):
            assert_canonical(result)


_SMALL = st.integers(min_value=-2, max_value=2).map(Scalar.rational)


@st.composite
def sparse_rational_ops(draw, space, arity):
    """Sparse columns with repeated rows, zero entries and entries that cancel."""
    n = space.dim ** arity
    cols = {}
    for j in range(n):
        entries = draw(st.lists(st.tuples(st.integers(0, n - 1), _SMALL), max_size=4))
        cancel = draw(st.lists(st.integers(0, n - 1), max_size=2))
        cols[j] = entries + [(r, s) for r in cancel for s in (Scalar.one(), -Scalar.one())]
    return TensorOp(space, arity, cols)


@settings(deadline=None, max_examples=60)
@given(st.data(), st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=2))
def test_kernels_keep_random_sparse_ops_canonical(data, dim, arity):
    space = BasedSpace.of_dim(dim)
    f = data.draw(sparse_rational_ops(space, arity))
    g = data.draw(sparse_rational_ops(space, arity))
    alpha = LinearMap(space, data.draw(st.lists(st.lists(_SMALL, min_size=dim, max_size=dim),
                                                min_size=dim, max_size=dim)))
    assert_canonical(f)
    for result in kernel_results(f, g, alpha):
        assert_canonical(result)


# -- hostile JSON and the size limit -------------------------------------------

@pytest.mark.parametrize("doc", [
    [1],
    {"dim": None, "arity": 2, "columns": {}},
    {"dim": 2, "arity": 2.0, "columns": {}},
    {"dim": 2, "arity": 2, "columns": []},
    {"dim": 2, "arity": 2, "columns": {"0": 5}},
    {"dim": 2, "arity": 2, "columns": {"0": [["0"]]}},
    {"dim": 2, "arity": 2, "columns": {"0": [[None, "1"]]}},
    {"dim": 2, "arity": 2, "columns": {"0": [["0", "1/0"]]}},
], ids=repr)
def test_json_rejects_wrong_types_with_value_error(doc):
    with pytest.raises(ValueError):
        op_from_json_dict(doc)


@pytest.mark.parametrize("row, text", [(99, "0"), (-5, "0/7"), (4, "0*q"), (99, "1")])
def test_every_row_is_checked_before_zeros_are_dropped(row, text):
    entry = parse_scalar(text)
    for columns in ({0: [(row, entry)]}, [[(row, entry)], [], [], []],
                    {1: [(0, Scalar.one()), (row, entry)]}):
        with pytest.raises(IndexError, match=f"row {row} out of range"):
            TensorOp(V2, 2, columns)
    doc = {"dim": 2, "arity": 2, "columns": {"0": [["0", "1"], [str(row), text]]}}
    with pytest.raises(IndexError, match=f"row {row} out of range"):
        op_from_json_dict(doc)
    # In range, a zero entry is still dropped.
    doc["columns"]["0"][1][0] = "3"
    assert op_from_json_dict(doc).column(0) == ((0, Scalar.one()),) + ((3, entry),) * bool(entry)


class _NoPower(int):
    """An int that must never be raised to a power."""

    def __pow__(self, other):
        raise AssertionError("dim ** arity formed for a huge arity")


def test_size_limit_refuses_before_allocating(monkeypatch):
    from hombrax import tensor

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated an oversized operator")

    monkeypatch.setattr(TensorOp, "__init__", no_alloc)
    monkeypatch.setattr(BasedSpace, "of_dim", no_alloc)
    for dim, arity in ((10, 9), (2, 15), (3, 10 ** 18), (10 ** 30, 1)):
        # BasedSpace.of_dim refuses, so an unchecked huge arity fails here
        # instead of reaching dim ** arity.
        with pytest.raises(ValueError, match="exceeds the limit"):
            op_from_json_dict({"dim": dim, "arity": arity, "columns": {}})
    with pytest.raises(ValueError, match="exceeds the limit"):
        tensor._check_size(_NoPower(3), 10 ** 18)
    tensor._check_size(2, 14)  # exactly at the limit
    tensor._check_size(1, 14)  # dim counted as 2
    with pytest.raises(ValueError, match="exceeds the limit"):
        tensor._check_size(1, 10 ** 18)  # one column, but 10^18 factors


_WIDE = st.integers(-(1 << 1100), 1 << 1100)
_NUMERATOR = st.one_of(st.integers(-50, 50), _WIDE)


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.integers(-50, 50), _WIDE), st.lists(_NUMERATOR, min_size=1, max_size=8),
       st.integers(1, 1 << 70), st.booleans())
@example(7, [21], 1, False)  # a single value
@example(5, [0, 0, 0], 1, False)  # every numerator zero
@example(-12, [8, -20], 1, False)  # a negative den
@example(6, [4, -4], 1, False)  # a sum that vanishes
def test_content_is_the_gcd_of_den_and_every_numerator(den, nums, factor, vanish):
    """_content equals the gcd chain, also when the values share a wide
    factor (so the first gcd is not 1) and when their sum vanishes."""
    from hombrax.tensor import _content
    den, nums = den * factor, [x * factor for x in nums]
    if vanish:
        nums.append(-sum(nums))
    assert _content(den, nums) == math.gcd(den, *nums)


def _fractional_phi_pair():
    """phi twisted by diag(2/3, 5/7) at q = 11/13, l = 17/19: its Sigma_5
    products have denominators of hundreds of bits."""
    from hombrax.hybe import twist
    from hombrax.quantum import PHI_SPACE
    alpha = LinearMap.diagonal(PHI_SPACE, [Fraction(2, 3), Fraction(5, 7)])
    point = {"q": Fraction(11, 13), "l": Fraction(17, 19)}
    return twist(phi(), alpha).instantiate(point), alpha


def _stored_forms():
    """Stored forms whose reductions divide out contents: the Sigma_5 sweep
    products (both words of every permutation) of a rational phi pair, the
    inverse of its n = 3 tensor-power braiding, and, over parameters, a
    strand chain on V^(x)4 of phi twisted by diag(a/3, 5d/7) and the inverse
    of that braiding."""
    from hombrax import braid
    from hombrax.hybe import build_Bi, twist
    B, alpha = _fractional_phi_pair()
    keys = []
    for images in itertools.permutations(range(1, 6)):
        gamma = Permutation(images)
        for strategy in ("smallest", "largest"):
            word = braid.reduced_word(gamma, strategy)
            keys.append(braid.theta_operator(gamma, B, alpha, word=word)._key())
    keys.append(invert(braid.tensor_power_solution(B, alpha, 3)[0])._key())
    alpha = LinearMap.diagonal(alpha.space, [Scalar.param("a") * Fraction(1, 3),
                                             Scalar.param("d") * Fraction(5, 7)])
    B = twist(phi(), alpha)
    keys.append(compose(*(build_Bi(B, alpha, 4, i) for i in (1, 2, 3, 2, 1)))._key())
    keys.append(invert(B)._key())
    return keys


def test_stored_forms_match_the_gcd_chain_reduction(monkeypatch):
    from hombrax import braid, tensor
    monkeypatch.setattr(braid, "_validated", None)
    keys = _stored_forms()
    assert max(den for _, _, _, den, _ in keys[:240]).bit_length() > 200
    assert keys[-2][2] == ("q", "l", "a", "d")
    monkeypatch.setattr(braid, "_validated", None)
    monkeypatch.setattr(tensor, "_content", gcd_chain_content)
    assert _stored_forms() == keys


def test_entry_text_is_the_fraction_text():
    wide = 3 ** 380  # 603 bits
    cols = (((0, 5 * wide), (1, -(1 << 600) - 1)), ((0, -7 * 3 ** 379), (1, -wide)))
    op = TensorOp._rational((V2,), (V2,), wide, cols)
    texts = [text for col in op_to_json_dict(op)["columns"].values() for _, text in col]
    assert texts == [str(Fraction(v, op._den)) for col in op._cols for _, v in col]
    assert texts[0] == "5" and texts[2:] == ["-7/3", "-1"]
    assert texts[1] == f"{-(1 << 600) - 1}/{wide}"


@settings(deadline=None, max_examples=200)
@given(_NUMERATOR.filter(bool), st.one_of(st.integers(1, 50), st.integers(1, 1 << 700)))
def test_fraction_text_is_str_of_the_fraction(v, den):
    from hombrax.scalars import _text
    assert _text((), den, v) == str(Fraction(v, den))


def test_operator_entries_may_be_rational_numbers():
    # TensorOp(...) reads an entry as as_scalar does, as LinearMap and as_op
    # do: a rational number exactly, a float refused by name.
    op = TensorOp(V2, 1, [[(0, 1)], [(1, Fraction(1, 2))]])
    assert op == LinearMap(V2, [[1, 0], [0, Fraction(1, 2)]])
    half = Scalar.rational(Fraction(1, 2))
    assert op._key() == LinearMap(V2, [[Scalar.one(), 0], [0, half]])._key()
    assert TensorOp(V2, 1, {1: [(0, np.int64(-3)), (1, Scalar.param("q"))]}) == \
        TensorOp(V2, 1, [[], [(0, Scalar.rational(-3)), (1, Scalar.param("q"))]])
    for bad in (0.5, "1/2", None):
        with pytest.raises(TypeError, match="rational number"):
            TensorOp(V2, 1, [[(0, bad)], []])


def test_scale_reads_its_factor_as_a_rational_number():
    one = identity_op(V2)
    doubled = one.scale(np.int64(2))
    assert doubled == one.scale(2) and doubled._cols[0][0][1].__class__ is int
    assert one.scale(np.int64(2 ** 40)) @ one.scale(np.int64(2 ** 40)) == one.scale(2 ** 80)
    for bad in (0.5, "2"):
        with pytest.raises(TypeError, match="rational number"):
            one.scale(bad)
