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
expression, ``_braid``, builds that relation's residual for both, and for
each pair of adjacent strands in ``braid_relation_residuals``.
"""

from __future__ import annotations

from hombrax.tensor import (DimMismatch, TensorOp, compose, identity_op, lift, residual,
                            tensor_product)


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
    B_i B_{i+1} B_i - B_{i+1} B_i B_{i+1}.
    """
    ops = {i: build_Bi(B, alpha, n, i) for i in range(1, n)}
    out = []
    for i in range(1, n):
        for j in range(i + 2, n):
            out.append(residual((ops[i], ops[j]), (ops[j], ops[i])))
    out.extend(_braid(ops[i], ops[i + 1]) for i in range(1, n - 1))
    return out
