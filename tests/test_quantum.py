"""R-matrices, support patterns, and the compatibility classification."""

import itertools

import numpy as np
import pytest

from hombrax import runtime
from hombrax.hybe import compatibility_residual, hybe_residual, twist, ybe_residual
from hombrax.quantum import (
    BadDimension,
    CompatibleAlpha,
    InvalidPattern,
    PHI_SPACE,
    SupportPattern,
    bql,
    brute_force_compatible_field,
    check_compatible,
    enumerate_patterns,
    group_patterns_by_shape,
    induced_solution,
    maximal_patterns,
    pattern_accept_set_field,
    phi,
    phi_equals_bql_swapped,
)
from hombrax.scalars import Fraction, Scalar, reduce_mod_p
from hombrax.tensor import (
    BasedSpace,
    LinearMap,
    Singular,
    TensorOp,
    compose,
    invert,
    lift,
    rebase,
)

Q = Scalar.param("q")
L = Scalar.param("l")


def test_phi_columns_match_printed_matrix():
    op = phi()
    assert op.column(0) == ((0, L),)
    assert op.column(1) == ((1, Q * L * (Q ** -1 - Q)), (2, Q * L))
    assert op.column(2) == ((1, Q * L),)
    assert op.column(3) == ((3, L),)


def test_bql_columns():
    b2 = bql(2)
    assert b2.column(0) == ((0, L * Q),)
    b3 = bql(3)
    # e_3 (x) e_1 -> l e_1 (x) e_3 + l(q - q^-1) e_3 (x) e_1
    assert b3.column(6) == ((2, L), (6, L * (Q - Q ** -1)))
    assert ybe_residual(b3).is_zero()
    with pytest.raises(BadDimension):
        bql(1)


def test_phi_equals_swapped_bql():
    assert phi_equals_bql_swapped()


def test_phi_swap_relation_needs_both_substitution_and_swap():
    # without the lambda substitution
    sub_only_q = bql(2).map_scalars(lambda s: s.substitute({"q": Q ** -1}))
    swap = LinearMap(PHI_SPACE, [[0, 1], [1, 0]])
    conj = compose(lift(swap, 2), rebase(sub_only_q, PHI_SPACE, 2), lift(swap, 2))
    assert conj != phi()
    # without the basis swap
    subbed = bql(2).map_scalars(lambda s: s.substitute({"q": Q ** -1, "l": Q * L}))
    assert rebase(subbed, PHI_SPACE, 2) != phi()
    assert subbed.entry(1, 1) != phi().entry(1, 1)


def brute_patterns(N):
    """Oracle: filter all (N+1)^N column -> row-or-none maps by the raw rules."""
    out = set()
    for rows in itertools.product(range(N + 1), repeat=N):  # 0 = empty column
        support = [(c + 1, r) for c, r in enumerate(rows) if r]
        ok = all(r1 < r2 for (_, r1), (_, r2) in zip(support, support[1:]))
        if ok:
            out.add(tuple(support))
    return out


@pytest.mark.parametrize("N,count", [(1, 2), (2, 6), (3, 20), (4, 70)])
def test_enumerate_patterns_complete_and_duplicate_free(N, count):
    pats = enumerate_patterns(N)
    assert len(pats) == count
    assert len(set(pats)) == count
    assert {p.column_rows for p in pats} == brute_patterns(N)


def test_pattern_json_round_trip():
    for N in (2, 3):
        for pattern in enumerate_patterns(N):
            doc = pattern.to_json_dict()
            assert SupportPattern.from_json_dict(doc) == pattern
    assert SupportPattern(3, {1: 2, 3: 3}).to_json_dict() == \
        {"N": 3, "k": {"1": 2, "3": 3}}


def test_pattern_validation():
    with pytest.raises(InvalidPattern):
        SupportPattern(2, {1: 2, 2: 1})  # rows must increase
    with pytest.raises(InvalidPattern):
        SupportPattern(2, {1: 3})
    with pytest.raises(InvalidPattern):
        CompatibleAlpha(SupportPattern(2, {1: 1}), {2: 5})
    with pytest.raises(InvalidPattern):
        CompatibleAlpha(SupportPattern(2, {1: 1}), {1: 0})


def test_maximal_shapes():
    assert len(maximal_patterns(2)) == 3
    shapes2 = {p.column_rows for p in maximal_patterns(2)}
    assert shapes2 == {((1, 1), (2, 2)), ((1, 2),), ((2, 1),)}
    assert len(maximal_patterns(3)) == 9
    grouped = group_patterns_by_shape(2)
    assert sum(len(v) for v in grouped.values()) >= 6
    for shape, members in grouped.items():
        assert all(shape.contains(m) for m in members)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_maximal_shapes_and_members_match_containment_definition(N):
    # The quadratic definitions by containment, in enumeration order.
    pats = enumerate_patterns(N)
    maximal = [p for p in pats if not any(q is not p and q.contains(p) for q in pats)]
    assert maximal_patterns(N) == maximal
    grouped = group_patterns_by_shape(N)
    assert list(grouped) == maximal
    for shape, members in grouped.items():
        assert members == [p for p in pats if shape.contains(p)]


def test_pattern_count_limit():
    from hombrax.quantum import pattern_count
    assert [pattern_count(N) for N in (1, 2, 3, 8)] == [2, 6, 20, 12870]
    for N in (9, 14, 15, 10 ** 30):
        with pytest.raises(ValueError, match="exceeds the limit"):
            pattern_count(N)
    with pytest.raises(ValueError):
        enumerate_patterns(9)


def test_check_compatible_examples():
    space = BasedSpace.of_dim(2)
    a, c, d = Scalar.param("a"), Scalar.param("c"), Scalar.param("d")
    zero = Scalar.zero()
    assert check_compatible(LinearMap.diagonal(space, [a, d]), 2)
    assert check_compatible(LinearMap(space, [[zero, zero], [c, zero]]), 2)
    assert not check_compatible(LinearMap(space, [[a, zero], [c, d]]), 2)
    assert check_compatible(LinearMap(space, [[zero, zero], [zero, zero]]), 2)


def test_check_compatible_agrees_with_residual_symbolically():
    # all 16 support shapes of a 2x2 matrix, distinct symbols on the support
    space = BasedSpace.of_dim(2)
    names = iter("abcd")
    cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for subset in itertools.chain.from_iterable(
            itertools.combinations(cells, k) for k in range(5)):
        rows = [[Scalar.zero()] * 2 for _ in range(2)]
        for (i, j), name in zip(subset, "abcd"):
            rows[i][j] = Scalar.param(name)
        alpha = LinearMap(space, rows)
        expected = check_compatible(alpha, 2)
        assert compatibility_residual(bql(2), alpha).is_zero() == expected


def _dense_accept_mod5(matrices, B):
    """Test-local oracle: dense compatibility residual mod 5, vectorized."""
    out = set()
    chunk = 4000
    for start in range(0, matrices.shape[0], chunk):
        A = matrices[start:start + chunk]
        K = np.einsum("cki,clj->cklij", A, A).reshape(A.shape[0], 9, 9) % 5
        R = (K @ B - B @ K) % 5
        ok = ~R.any(axis=(1, 2))
        for mat in A[ok]:
            out.add(tuple(int(x) for x in mat.reshape(-1)))
    return out


def test_check_compatible_matches_residual_over_small_field_sample():
    # every 3x3 matrix with entries in {0, 1, 2} inside F_5, q = 2, lambda = 1
    b = bql(3).instantiate({"q": 2, "l": 1})
    B = np.zeros((9, 9), dtype=np.int64)
    for j, col in enumerate(b.columns):
        for r, s in col:
            B[r, j] = reduce_mod_p(s.constant_value(), 5)
    cand = np.array(list(itertools.product(range(3), repeat=9)),
                    dtype=np.int64).reshape(-1, 3, 3)
    accepted = _dense_accept_mod5(cand, B)
    space = BasedSpace.of_dim(3)
    expected = set()
    for mat in cand:
        flat = tuple(int(x) for x in mat.reshape(-1))
        if check_compatible(LinearMap(space, [list(r) for r in mat]), 3):
            expected.add(flat)
    assert accepted == expected


@pytest.mark.scan
def test_lambda_irrelevance_of_accept_set():
    one = brute_force_compatible_field(2, 5, q_res=2, lam_res=1)
    three = brute_force_compatible_field(2, 5, q_res=2, lam_res=3)
    assert one == three == pattern_accept_set_field(2, 5)


@pytest.mark.parametrize("q_res, lam_res", [(4, 1), (1, 1), (2, 5), (2, 0)])
def test_brute_force_refuses_degenerate_residues(q_res, lam_res):
    with pytest.raises(ValueError, match="degenerate"):
        brute_force_compatible_field(2, 5, q_res=q_res, lam_res=lam_res)


@pytest.mark.scan
def test_scan_is_stable_under_thread_cap(monkeypatch):
    # With 100-candidate chunks both scans span many chunks (7 and 197), so
    # the threaded path must reassemble them in the serial order.
    from hombrax.homlie import heisenberg, morphism_matrices_mod_p
    serial_accept = brute_force_compatible_field(2, 5)
    serial_morphisms = morphism_matrices_mod_p(heisenberg(), 3)
    chunk_counts = []
    real_map_chunks = runtime.map_chunks

    def counting_map_chunks(fn, items):
        chunk_counts.append(len(items))
        return real_map_chunks(fn, items)

    monkeypatch.setattr(runtime, "map_chunks", counting_map_chunks)
    monkeypatch.setattr(runtime, "_CHUNK", 100)
    monkeypatch.setattr(runtime.os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    monkeypatch.setenv("HOMBRAX_THREADS", "4")
    assert runtime.worker_count() == 4
    assert brute_force_compatible_field(2, 5) == serial_accept
    threaded = morphism_matrices_mod_p(heisenberg(), 3)
    assert threaded.shape == serial_morphisms.shape
    assert (threaded == serial_morphisms).all()
    assert chunk_counts == [7, 197]


class _NoPower(int):
    """An int that must never be raised to a power."""

    def __pow__(self, other):
        raise AssertionError("p ** (n*n) formed for an oversized scan")


def test_scan_size_guard():
    assert runtime.scan_size(3, 7) == 7 ** 9 < runtime._MAX_CANDIDATES
    for n, p in ((3, _NoPower(131)), (3, _NoPower(10 ** 40 + 1)), (10 ** 6, _NoPower(3)),
                 (5, 7), (3, 11)):
        with pytest.raises(ValueError, match="exceeds the limit"):
            runtime.scan_size(n, p)
    for p in (-7, 0, 1, 2, 9):
        with pytest.raises(ValueError, match="odd prime"):
            runtime.scan_size(2, p)
    with pytest.raises(ValueError, match="n >= 1"):
        runtime.scan_size(0, 5)


@pytest.mark.scan
def test_scan_matrices_in_index_order():
    got = runtime.scan_matrices(2, 3, lambda A: A[:, 0, 0] == A[:, 1, 1])
    want = [m for m in itertools.product(range(3), repeat=4) if m[0] == m[3]]
    assert [tuple(int(x) for x in m.reshape(-1)) for m in got] == want
    empty = runtime.scan_matrices(2, 3, lambda A: A[:, 0, 0] > 5)
    assert empty.shape == (0, 2, 2)


@pytest.mark.scan
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_decode_matches_unravel_index(n, p):
    import numpy as np
    total = p ** (n * n)
    # The first chunk and the last, a short one, of the scan's chunks.
    for start in {0, (total - 1) // runtime._CHUNK * runtime._CHUNK}:
        idx = np.arange(start, min(start + runtime._CHUNK, total), dtype=np.int64)
        want = np.stack(np.unravel_index(idx, (p,) * (n * n)), axis=-1).reshape(-1, n, n)
        got = runtime._decode(idx, n, p)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)


def test_brute_force_refuses_before_building_bql(monkeypatch):
    from hombrax import quantum

    def refuse(*args, **kwargs):
        raise AssertionError("an oversized scan reached its setup")

    monkeypatch.setattr(TensorOp, "mod_p", refuse)
    monkeypatch.setattr(quantum, "bql", refuse)
    with pytest.raises(ValueError, match="exceeds the limit"):
        brute_force_compatible_field(10 ** 6, 5)
    with pytest.raises(ValueError, match="odd prime"):
        brute_force_compatible_field(2, 9)


def test_thread_cap_is_at_most_cpu_count(monkeypatch):
    # The fallback for a platform without an affinity mask.
    monkeypatch.delattr(runtime.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(runtime.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("HOMBRAX_THREADS", "64")
    assert runtime.worker_count() == 2
    monkeypatch.setenv("HOMBRAX_THREADS", "many")
    assert runtime.worker_count() == 1


def test_thread_cap_is_at_most_affinity(monkeypatch):
    # A process pinned to one CPU of a larger host scans serially.
    monkeypatch.setattr(runtime.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(runtime.os, "cpu_count", lambda: 64)
    monkeypatch.setenv("HOMBRAX_THREADS", "4")
    assert runtime.worker_count() == 1


def test_induced_solution_closed_form_cases():
    pattern = SupportPattern(3, {1: 2, 3: 3})
    ca = CompatibleAlpha.symbolic(pattern)
    op = induced_solution(ca)
    a1, a3 = Scalar.param("a1"), Scalar.param("a3")
    # i = j = 1: l q a1^2 e_k(1) (x) e_k(1), k(1) = 2
    assert op.column(0) == ((4, L * Q * a1 * a1),)
    # i = 1 < j = 3: l a1 a3 e_k(3) (x) e_k(1)
    assert op.column(2) == ((2 * 3 + 1, L * a1 * a3),)
    # i = 3 > j = 1: flip term plus (q - q^-1) cross term
    col = dict(op.column(6))
    assert col[2 * 3 + 1] == L * a1 * a3 * (Q - Q ** -1)
    assert col[1 * 3 + 2] == L * a1 * a3
    # column 2 (i = 2) is outside the support: zero
    assert op.column(1 * 3 + 0) == ()


def test_induced_equals_twist_for_all_patterns():
    for N in (2, 3):
        for pattern in enumerate_patterns(N):
            ca = CompatibleAlpha.symbolic(pattern)
            assert induced_solution(ca) == twist(bql(N), ca.to_linear_map())


def test_pattern_violations_fail_symbolically():
    # adding any condition-violating entry to a valid pattern breaks the
    # compatibility residual symbolically
    space = BasedSpace.of_dim(3)
    names = iter(f"t{i}" for i in range(10_000))
    checked = 0
    for pattern in enumerate_patterns(3):
        base = {(pattern.row(c) - 1, c - 1) for c in pattern.support}
        for cell in itertools.product(range(3), repeat=2):
            if cell in base:
                continue
            support = base | {cell}
            rows = [[Scalar.zero()] * 3 for _ in range(3)]
            for (r, c) in support:
                rows[r][c] = Scalar.param(next(names))
            alpha = LinearMap(space, rows)
            if check_compatible(alpha, 3):
                continue  # the extra cell happened to extend the pattern
            assert not compatibility_residual(bql(3), alpha).is_zero()
            checked += 1
    assert checked > 50


def test_all_patterns_symbolically_compatible_and_hybe():
    for N in (2, 3, 4):
        for pattern in enumerate_patterns(N):
            alpha = CompatibleAlpha.symbolic(pattern).to_linear_map()
            assert compatibility_residual(bql(N), alpha).is_zero()
            assert hybe_residual(twist(bql(N), alpha), alpha).is_zero()


def test_induced_invertible_iff_pattern_total_diagonal():
    for N in (2, 3):
        for pattern in enumerate_patterns(N):
            values = {c: Fraction(c + 1) for c in pattern.support}
            if not values:
                values = {}
            try:
                ca = CompatibleAlpha(pattern, values)
            except InvalidPattern:
                continue
            op = induced_solution(ca).instantiate({"q": 2, "l": 1})
            total_diagonal = (pattern.support == tuple(range(1, N + 1))
                              and all(pattern.row(c) == c for c in pattern.support))
            if total_diagonal:
                invert(op)
            else:
                with pytest.raises(Singular):
                    invert(op)
