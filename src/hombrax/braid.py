"""Symmetric-group combinatorics and braid operators on tensor powers.

A permutation of degree n acts on 1..n; its length is the inversion count,
and a reduced word expresses it as that many adjacent transpositions,
held as the tuple of letters i in 1..n-1, the transposition (i, i+1).  By
Iwahori's classical result the positive braid word of any reduced
decomposition depends only on the permutation, so a twisted braiding B
with twisting map alpha assigns to each permutation gamma a well-defined
operator B^gamma: the composite of the strand operators B_i along any
reduced word of gamma.  ``theta_operator`` builds it as one ``compose``
chain along the word, once the word is checked to be a reduced word of
gamma.

The block swap chi(n, n) in Sigma_2n, pushed through this construction,
turns a braiding on V into one on V^(tensor n): ``tensor_power_solution``
returns that operator together with its twisting map (the n^2-th power of
alpha^(tensor n)), regrouped so the pair is again an arity-2 braiding over
the product space.

A pair (B, alpha) is validated once per object identity: ``theta_operator``
checks the twisted braid identity and invertibility the first time it sees
a pair and then remembers, for that pair only, the product of every word it
has composed (a strand operator being the product of a one-letter word).  A
new word is composed as one chain from the product of its longest
remembered prefix, so a sweep over Sigma_n builds each strand once and
shares the prefixes its words have in common.  The memo is keyed by word,
never by permutation: two reduced words of one gamma are each composed
along their own letters.  It holds one operator per distinct word asked for
(about 2.4 MB for both bubble-sort words of every gamma in Sigma_5: 4
strands and 218 longer words, operators on V^(x)5 for a rational pair on a
2-dim V) and is dropped when a different pair is passed.
"""

from __future__ import annotations

from typing import Sequence

from hombrax.hybe import IncompatiblePair, build_Bi, hybe_residual
from hombrax.tensor import (
    Singular,
    SymbolicNotMonomialInvertible,
    TensorOp,
    _Frozen,
    compose,
    identity_op,
    invert,
    lift,
    power,
    product_space,
    rebase,
)


class NotASolution(ValueError):
    """The pair (B, alpha) fails the twisted braid identity."""


class NotInvertible(ValueError):
    """B or alpha is not invertible."""


class Permutation(_Frozen):
    """Element of Sigma_n as the 1-based image tuple (gamma(1), ..., gamma(n))."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(1, n + 1))

    @staticmethod
    def transposition(n: int, i: int) -> "Permutation":
        """The adjacent transposition (i, i+1)."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"i = {i} not in 1..{n - 1}")
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return Permutation(images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition of functions: (self * other)(k) = self(other(k))."""
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self.images[other.images[k] - 1]
                                 for k in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for k, v in enumerate(self.images):
            inv[v - 1] = k + 1
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(v == k + 1 for k, v in enumerate(self.images))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.images}"


def length(gamma: Permutation) -> int:
    """Inversion count: the number of pairs i < j with gamma(i) > gamma(j)."""
    w = gamma.images
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
               if w[i] > w[j])


def reduced_word(gamma: Permutation, strategy: str = "smallest") -> tuple[int, ...]:
    """A reduced word for gamma by bubble sort.

    Repeatedly pick a descent position i of the one-line word (the smallest;
    the largest under strategy='largest', kept for perfbench), record it,
    and swap; each swap removes exactly one inversion, and the reversed
    record is a reduced word whose transposition product is gamma.  Any
    other strategy raises ValueError.
    """
    if strategy not in ("smallest", "largest"):
        raise ValueError(f"strategy must be 'smallest' or 'largest', not {strategy!r}")
    w = list(gamma.images)
    recorded = []
    while True:
        descents = [i for i in range(1, len(w)) if w[i - 1] > w[i]]
        if not descents:
            break
        i = descents[0] if strategy == "smallest" else descents[-1]
        recorded.append(i)
        w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(reversed(recorded))


def all_reduced_words(gamma: Permutation) -> list[tuple[int, ...]]:
    """Every reduced word of gamma, by recursion over left descents."""
    memo: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def go(perm: Permutation) -> list[tuple[int, ...]]:
        key = perm.images
        if key in memo:
            return memo[key]
        if perm.is_identity():
            memo[key] = [()]
            return memo[key]
        inv = perm.inverse()
        words = []
        for i in range(1, perm.n):
            # i is a left descent iff i appears after i+1 in the one-line word.
            if inv(i) > inv(i + 1):
                rest = Permutation.transposition(perm.n, i) * perm
                words.extend((i,) + w for w in go(rest))
        memo[key] = words
        return words

    return go(gamma)


def chi(i: int, j: int) -> Permutation:
    """The block swap in Sigma_{i+j}: 1..i -> j+1..j+i and i+1..i+j -> 1..j."""
    if i < 1 or j < 1:
        raise ValueError("block sizes must be >= 1")
    return Permutation(tuple(j + k for k in range(1, i + 1))
                       + tuple(range(1, j + 1)))


def cross(p: Permutation, q: Permutation) -> Permutation:
    """The block-diagonal permutation p x q in Sigma_{p.n + q.n}."""
    return Permutation(p.images + tuple(v + p.n for v in q.images))


def _check_solution(B: TensorOp, alpha: TensorOp) -> None:
    try:
        if not hybe_residual(B, alpha).is_zero():
            raise NotASolution("twisted braid residual is nonzero")
    except IncompatiblePair as exc:
        raise NotASolution(str(exc)) from exc


def _check_invertible(B: TensorOp, alpha: TensorOp) -> None:
    try:
        invert(B)
        invert(alpha)
    except (Singular, SymbolicNotMonomialInvertible) as exc:
        raise NotInvertible(str(exc)) from exc


# The last validated pair and the products of the words composed for it:
# (B, alpha, {n: {word: product}}), a strand B_i being the product of the
# word (i,).  The strong references keep both ids from being reused while
# the entry lives, and operators are immutable, so an identity hit is sound.
_validated: tuple[TensorOp, TensorOp,
                  dict[int, dict[tuple[int, ...], TensorOp]]] | None = None


def _strands(B: TensorOp, alpha: TensorOp, n: int) -> dict[tuple[int, ...], TensorOp]:
    """The word products of a validated pair on V^(x)n, filled in as words
    are composed: each strand B_i under (i,), and each longer word asked of
    ``theta_operator`` under its tuple of letters.

    The pair is checked when it is not the very objects checked last, and
    the products of the previous pair go with its entry; products are kept
    per n, so mixing strand counts does not re-check.  The entry is read
    once, so a concurrent call that replaces it cannot hand this pair
    another pair's products.
    """
    global _validated
    entry = _validated
    if entry is None or entry[0] is not B or entry[1] is not alpha:
        _check_solution(B, alpha)
        _check_invertible(B, alpha)
        entry = _validated = (B, alpha, {})
    return entry[2].setdefault(n, {})


def theta_operator(gamma: Permutation, B: TensorOp, alpha: TensorOp,
                   word: Sequence[int] | None = None) -> TensorOp:
    """B^gamma: the strand operators composed along a reduced word of gamma.

    Iwahori well-definedness makes the result independent of the word; pass
    one explicitly, as letters in 1..n-1, to exercise that.  ``build_Bi``
    refuses any other letter (IndexOutOfRange), and a word whose length is
    not ``length(gamma)`` or whose transposition product is not gamma is
    refused with ValueError.  Requires (B, alpha) to be an invertible
    solution of the twisted braid identity.

    The word's product is remembered with the pair (see ``_strands``): a
    word asked for again costs a lookup, and a new one is one ``compose``
    chain of its longest remembered prefix's product and the strands of the
    remaining letters.  Only whole words are remembered, so a word that is
    asked for once costs the one chain it always did.
    """
    n = gamma.n
    products = _strands(B, alpha, n)
    word = reduced_word(gamma) if word is None else tuple(word)
    images = list(range(1, n + 1))
    for i in word:
        if (i,) not in products:  # build_Bi refuses a letter outside 1..n-1 before the swap
            products[(i,)] = build_Bi(B, alpha, n, i)
        images[i - 1], images[i] = images[i], images[i - 1]
    if len(word) != length(gamma) or tuple(images) != gamma.images:
        raise ValueError(f"{word} is not a reduced word of {gamma}")
    if not word:
        return identity_op(B.space, n)
    product = products.get(word)
    if product is None:
        k = len(word) - 1
        while word[:k] not in products:  # stops at k = 1: every strand is remembered
            k -= 1
        product = products[word] = compose(products[word[:k]],
                                           *(products[(i,)] for i in word[k:]))
    return product


def alpha_n(alpha: TensorOp, n: int) -> TensorOp:
    """(alpha^(tensor n))^(n^2), the twisting map of the tensor-power braiding."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return power(lift(alpha, n), n * n)


def tensor_power_solution(B: TensorOp, alpha: TensorOp,
                          n: int) -> tuple[TensorOp, TensorOp]:
    """The braiding B^chi(n,n) and its twisting map over V^(tensor n).

    Both come back regrouped over the product space (dimension N^n), so the
    first is an arity-2 operator and the second arity-1, ready for the
    residual checkers.  Both are invertible when B and alpha are, which
    ``theta_operator`` checks together with the twisted braid identity.
    """
    big = theta_operator(chi(n, n), B, alpha)
    an = alpha_n(alpha, n)
    vn = product_space(B.space, n)
    return rebase(big, vn, 2), rebase(an, vn, 1)
