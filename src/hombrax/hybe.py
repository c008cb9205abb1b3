"""Residual checkers for the twisted and classical Yang-Baxter identities.

All checks are exact: each identity is turned into the operator difference
of its two sides, and the identity holds iff that residual operator has no
entries at all.  Residuals are returned as operators rather than booleans
so callers (notably the CLI) can point at the first offending column.

Conventions.  B is an arity-2 operator on V tensor V and alpha a linear
self-map of V.  The twisted braid identity compares

    (alpha (x) B) (B (x) alpha) (alpha (x) B)

against the same composite with the factors exchanged, and only makes
sense when B commutes with alpha (x) alpha; that compatibility is enforced
with a hard error, not silently assumed.  It is the braid relation
x y x = y x y of the two strands x = alpha (x) B and y = B (x) alpha on
V^(x)3, and the Yang-Baxter identity is its case alpha = Id.  One
expression, ``_braid``, builds that relation's residual for both, and the
n = 3 relation of the strands B (x) alpha and alpha (x) B.

``braid_relation_residuals`` builds no strand on V^(x)n.  Each braid
relation there is a tensor product of operators on at most three strands:
an adjacent one is that n = 3 residual between powers of alpha^3, and a far
commutation is B (alpha (x) alpha) and (alpha (x) alpha) B, in both orders,
between powers of alpha^2.  A pair whose n = 3 residual is zero and whose B
commutes with alpha (x) alpha gets every residual as the zero map at once.
"""

from __future__ import annotations

from hombrax.tensor import (DimMismatch, TensorOp, _zero, compose, identity_op, lift, power,
                            residual, tensor_product)


class IncompatiblePair(ValueError):
    """B does not commute with alpha (x) alpha."""


class NotYBESolution(ValueError):
    """Operator fails the untwisted Yang-Baxter identity."""


class IndexOutOfRange(ValueError):
    """Strand index outside 1..n-1."""


def _check_pair(B: TensorOp, alpha: TensorOp) -> None:
    if B.arity != 2:
        raise DimMismatch(f"B must have arity 2, got {B.arity}")
    if not alpha.dom == alpha.cod == (B.space,):
        raise DimMismatch(f"alpha maps {list(alpha.dom)} to {list(alpha.cod)}, "
                          f"B is on {B.space}")


def compatibility_residual(B: TensorOp, alpha: TensorOp) -> TensorOp:
    """(alpha (x) alpha) B - B (alpha (x) alpha)."""
    _check_pair(B, alpha)
    a2 = lift(alpha, 2)
    return residual((a2, B), (B, a2))


def _braid(x: TensorOp, y: TensorOp) -> TensorOp:
    """The braid-relation residual x y x - y x y."""
    return residual((x, y, x), (y, x, y))


def ybe_residual(B: TensorOp) -> TensorOp:
    """Difference of the two sides of the Yang-Baxter identity on V^(x)3."""
    if B.arity != 2:
        raise DimMismatch(f"B must have arity 2, got {B.arity}")
    one = identity_op(B.space, 1)
    return _braid(tensor_product(one, B), tensor_product(B, one))


def hybe_residual(B: TensorOp, alpha: TensorOp) -> TensorOp:
    """Difference of the two sides of the twisted braid identity on V^(x)3.

    Raises IncompatiblePair when B does not commute with alpha (x) alpha;
    the twisted identity is only defined for commuting pairs.
    """
    if not compatibility_residual(B, alpha).is_zero():
        raise IncompatiblePair("B does not commute with alpha (x) alpha")
    return _twisted_braid(B, alpha)


def _twisted_braid(B: TensorOp, alpha: TensorOp) -> TensorOp:
    """The twisted braid residual of a pair already found to commute."""
    return _braid(tensor_product(alpha, B), tensor_product(B, alpha))


def twist(B: TensorOp, alpha: TensorOp) -> TensorOp:
    """Twist a Yang-Baxter solution along a commuting alpha.

    Returns (alpha (x) alpha) B, which satisfies the twisted braid identity
    for alpha whenever B satisfies the untwisted one and commutes with
    alpha (x) alpha.
    """
    _check_pair(B, alpha)
    if not ybe_residual(B).is_zero():
        raise NotYBESolution("B fails the Yang-Baxter identity")
    if not compatibility_residual(B, alpha).is_zero():
        raise IncompatiblePair("B does not commute with alpha (x) alpha")
    return compose(lift(alpha, 2), B)


def build_Bi(B: TensorOp, alpha: TensorOp, n: int, i: int) -> TensorOp:
    """The strand operator alpha^(x)(i-1) (x) B (x) alpha^(x)(n-i-1) on V^(x)n."""
    _check_pair(B, alpha)
    if n < 2 or not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"i = {i} not in 1..{n - 1}")
    op = B
    if i > 1:
        op = tensor_product(lift(alpha, i - 1), op)
    if i < n - 1:
        op = tensor_product(op, lift(alpha, n - i - 1))
    return op


def braid_relation_residuals(B: TensorOp, alpha: TensorOp,
                             n: int) -> list[TensorOp]:
    """All braid-relation residuals of the strand operators on V^(x)n.

    Far commutations B_i B_j - B_j B_i for |i - j| > 1 come first (ordered
    by (i, j)), then the adjacent residuals
    B_i B_{i+1} B_i - B_{i+1} B_i B_{i+1}.  There are none at n = 2, and
    n < 2 raises IndexOutOfRange once the pair is checked.

    No strand on V^(x)n is built: by (f (x) g)(h (x) k) = fh (x) gk and
    bilinearity, the adjacent residual at i is
    (alpha^3)^(x)(i-1) (x) R (x) (alpha^3)^(x)(n-i-2), R the relation at
    n = 3, and the far commutation at (i, j) is S (x) (U (x) T (x) W -
    W (x) T (x) U) (x) S', where U = B (alpha (x) alpha), W = (alpha (x)
    alpha) B and S, T, S' are the powers (alpha^2)^(x)(i-1),
    (alpha^2)^(x)(j-i-2) and (alpha^2)^(x)(n-j-1).  A zero R makes every
    adjacent residual zero, and U = W every far one, with no lift built.
    """
    _check_pair(B, alpha)
    if n < 2:
        raise IndexOutOfRange(f"n = {n}: braid relations need at least 2 strands")
    word = (B.space,) * n
    far = [(i, j) for i in range(1, n) for j in range(i + 2, n)]
    out = []
    if far:
        a2 = lift(alpha, 2)
        U, W = compose(B, a2), compose(a2, B)
        if U == W:
            out = [_zero(word, word)] * len(far)
        else:
            sq = _lifts(alpha, 2, n - 4)
            mid = [_tensor(U, T, W) - _tensor(W, T, U) for T in sq]
            out = [_tensor(sq[i - 1], mid[j - i - 2], sq[n - j - 1]) for i, j in far]
    if n > 2:
        R = _braid(build_Bi(B, alpha, 3, 1), build_Bi(B, alpha, 3, 2))
        if R.is_zero():
            out += [_zero(word, word)] * (n - 2)
        else:
            cubes = _lifts(alpha, 3, n - 3)
            out += [_tensor(cubes[i - 1], R, cubes[n - i - 2]) for i in range(1, n - 1)]
    return out


def _lifts(alpha: TensorOp, k: int, m: int) -> list[TensorOp | None]:
    """[None, a, a (x) a, ..., a^(x)m] for a = alpha^k; None is the empty factor."""
    out = [None]
    if m:
        a = power(alpha, k)
        out.append(a)
        for _ in range(m - 1):
            out.append(tensor_product(out[-1], a))
    return out


def _tensor(*factors: TensorOp | None) -> TensorOp:
    """The tensor product of the factors that are not None."""
    first, *rest = [f for f in factors if f is not None]
    return tensor_product(first, *rest) if rest else first
