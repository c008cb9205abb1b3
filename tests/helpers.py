"""Shared test utilities: independent dense oracles and gallery builders.

The dense helpers here deliberately avoid the package's sparse composition
and tensor-product code paths so they can serve as oracles for them.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from hombrax.braid import tensor_power_solution
from hombrax.homlie import (
    HomLieAlgebra,
    braiding_inverse_on_extension,
    braiding_on_extension,
    heisenberg,
    heisenberg_morphism,
    sl2,
    sl2_morphism,
    sl2_star,
    sl2_star_morphism,
    yau_twist,
)
from hombrax.hybe import _braid, build_Bi, twist
from hombrax.quantum import (
    PHI_SPACE,
    CompatibleAlpha,
    bql,
    induced_solution,
    maximal_patterns,
    phi,
)
from hombrax.scalars import (
    MissingParameter,
    NotAMonomial,
    Scalar,
    ScalarParseError,
    ZeroAtNegativeExponent,
    _repacked,
    _union,
    param_order,
)
from hombrax.tensor import BasedSpace, LinearMap, TensorOp, residual


def rand_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if not nonzero or f != 0:
            return f


def dense_matmul(a, b):
    """Plain triple-loop Scalar matrix product (oracle for compose)."""
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Scalar.zero())
             for j in range(n)] for i in range(n)]


def dense_kron(a, b):
    """Plain dense Kronecker product (oracle for tensor_product/lift)."""
    na, nb = len(a), len(b)
    out = [[Scalar.zero()] * (na * nb) for _ in range(na * nb)]
    for i in range(na):
        for j in range(na):
            for k in range(nb):
                for l in range(nb):
                    out[i * nb + k][j * nb + l] = a[i][j] * b[k][l]
    return out


def fraction_matrix(op: TensorOp) -> list[list[Fraction]]:
    """Dense Fraction matrix of an operator whose entries are all rational."""
    n = op.total_dim
    out = [[Fraction(0)] * n for _ in range(n)]
    for j, col in enumerate(op.columns):
        for r, s in col:
            out[r][j] = s.constant_value()
    return out


def fraction_matmul(a, b):
    """Plain triple-loop Fraction matrix product (oracle for rational compose)."""
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)]


def fraction_kron(a, b):
    """Plain dense Kronecker product of Fraction matrices (oracle for tensor_product)."""
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def fraction_det_and_inverse(a):
    """(det, inverse) of a square Fraction matrix by plain Gauss-Jordan
    elimination; the inverse is None when det = 0."""
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            if i != k and m[i][k] != 0:
                m[i] = [x - m[i][k] * y for x, y in zip(m[i], m[k])]
    return det, [row[n:] for row in m]


def fraction_grid(op: TensorOp) -> np.ndarray:
    """The entries of a map between words as an object array of Fractions,
    indexed by the domain's indices, then the codomain's.  The multi-indices
    come from numpy's row-major reshape, not from the package's decoding."""
    rows = int(np.prod([s.dim for s in op.cod]))
    dense = np.full((rows, len(op.columns)), Fraction(0), dtype=object)
    for j, col in enumerate(op.columns):
        for r, s in col:
            dense[r, j] = s.constant_value()
    return dense.T.reshape([s.dim for s in op.dom + op.cod])


def random_grid(rng: random.Random, *shape: int, density: float = 0.6) -> np.ndarray:
    """Seeded random rational structure constants of the given shape."""
    out = np.full(shape, Fraction(0), dtype=object)
    for idx in np.ndindex(*shape):
        if rng.random() < density:
            out[idx] = rand_fraction(rng)
    return out


def contract(spec: str, *grids: np.ndarray) -> np.ndarray:
    """Dense exact contraction of Fraction grids: the einsum oracle that every
    structure-map residual is compared with, entry by entry."""
    return np.einsum(spec, *grids)


def dense_equal(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def random_op(rng: random.Random, space: BasedSpace, arity: int,
              density: float = 0.4) -> TensorOp:
    n = space.dim ** arity
    cols = {}
    for j in range(n):
        cols[j] = [(r, Scalar.rational(rand_fraction(rng)))
                   for r in range(n) if rng.random() < density]
    return TensorOp(space, arity, cols)


def strand_braid_relation_residuals(B: TensorOp, alpha: TensorOp,
                                    n: int) -> list[TensorOp]:
    """The braid-relation residuals computed strand by strand on V^(x)n:
    every strand B_i is built there and each relation is one residual of
    2- or 3-factor chains of them (the oracle of
    hybe.braid_relation_residuals, far commutations first, by (i, j))."""
    ops = {i: build_Bi(B, alpha, n, i) for i in range(1, n)}
    out = []
    for i in range(1, n):
        for j in range(i + 2, n):
            out.append(residual((ops[i], ops[j]), (ops[j], ops[i])))
    out.extend(_braid(ops[i], ops[i + 1]) for i in range(1, n - 1))
    return out


def reference_from_entries(dom, cod, columns) -> tuple:
    """The stored form (dom, cod, params, den, cols, emax) of the map dom ->
    cod with these Scalar columns, built as the package first built it: a
    Scalar sum per row, zeros dropped and rows sorted, then every entry
    repacked over the union of their orders and the lcm of their dens, with
    no content division (a prime's full power in the lcm divides some
    entry's den) and emax the largest of the entries'.  The oracle of the
    one builder, tensor._built, behind _from_entries and the JSON readers."""
    n = math.prod(s.dim for s in cod)
    cols = []
    for col in columns:
        acc: dict = {}
        for row, s in col:
            if not 0 <= row < n:
                raise IndexError(f"row {row} out of range")
            acc[row] = acc[row] + s if row in acc else s
        cols.append(sorted([e for e in acc.items() if e[1]]))
    entries = [s for col in cols for _, s in col]
    params = _union({s._params for s in entries})
    den = math.lcm(*{s._den for s in entries})
    return dom, cod, params, den, tuple(tuple(
        (r, _repacked(s._v, s._params, params) * (den // s._den)) for r, s in col)
        for col in cols), max([s._emax for s in entries], default=0)


def gcd_chain_content(den: int, nums) -> int:
    """The reference content of a stored form: the plain chain
    gcd(den, n_1, n_2, ...), to stand in for tensor._content."""
    return math.gcd(den, *nums)


# -- galleries ---------------------------------------------------------------

GALLERY_POINT = {"q": 2, "l": 1}


def phi_alpha_symbolic() -> tuple[TensorOp, LinearMap]:
    """The twisted braiding for diagonal alpha, fully symbolic."""
    alpha = LinearMap.diagonal(PHI_SPACE, [Scalar.param("a"), Scalar.param("d")])
    return twist(phi(), alpha), alpha


def phi_alpha_rational(a=1, d=3) -> tuple[TensorOp, LinearMap]:
    alpha = LinearMap.diagonal(PHI_SPACE, [a, d])
    return twist(phi(), alpha).instantiate(GALLERY_POINT), alpha


def random_heisenberg_twist(rng: random.Random, invertible: bool = True) -> HomLieAlgebra:
    while True:
        params = [rand_fraction(rng) for _ in range(6)]
        alpha = heisenberg_morphism(*params)
        delta = alpha.entry(0, 0)
        if not invertible or not delta.is_zero():
            return yau_twist(heisenberg(), alpha)


def random_sl2_star_twist(rng: random.Random, invertible: bool = True) -> HomLieAlgebra:
    while True:
        names = ("a21", "a31", "a22", "a23", "a32", "a33")
        params = {n: rand_fraction(rng) for n in names}
        alpha = sl2_star_morphism(1, **params)
        det = params["a22"] * params["a33"] - params["a23"] * params["a32"]
        if not invertible or det != 0:
            return yau_twist(sl2_star(), alpha)


def random_sl2_morphism(rng: random.Random, kind: int | None = None) -> LinearMap:
    kind = kind if kind is not None else rng.choice([1, 2, 3])
    if kind in (1, 2):
        b = rand_fraction(rng, nonzero=True)
        if rng.random() < 0.5:
            return sl2_morphism(kind, 0, b, rand_fraction(rng))
        return sl2_morphism(kind, rand_fraction(rng), b, 0)
    while True:
        a = rand_fraction(rng, nonzero=True)
        b = rand_fraction(rng, nonzero=True)
        c = rand_fraction(rng)
        if c != 1 and c != -1:
            return sl2_morphism(3, a, b, c)


def random_sl2_twist(rng: random.Random) -> HomLieAlgebra:
    return yau_twist(sl2(), random_sl2_morphism(rng))


def extension_instances(rng: random.Random, count: int) -> list[HomLieAlgebra]:
    """Invertible twisted instances cycling through the three algebra families."""
    makers = [random_heisenberg_twist, random_sl2_star_twist, random_sl2_twist]
    return [makers[i % 3](rng) for i in range(count)]


def rational_gallery() -> dict[str, TensorOp]:
    """Every rational family at fixed seeded points, by name.

    phi and bql(3) at GALLERY_POINT, the bql(3) solutions induced by the
    maximal N=3 patterns, three extension braidings with their closed-form
    inverses, and the n=2 tensor-power braiding of phi.
    """
    rng = random.Random(2)
    b, alpha = phi_alpha_rational()
    gallery = {"phi": b, "bql3": bql(3).instantiate(GALLERY_POINT)}
    for k, pattern in enumerate(maximal_patterns(3)):
        values = {c: rand_fraction(rng, nonzero=True) for c in pattern.support}
        gallery[f"induced{k}"] = induced_solution(
            CompatibleAlpha(pattern, values)).instantiate(GALLERY_POINT)
    for k, twisted in enumerate(extension_instances(rng, 3)):
        gallery[f"extension{k}"] = braiding_on_extension(twisted)
        gallery[f"extension{k}_inverse"] = braiding_inverse_on_extension(twisted)
    gallery["phi_power2"] = tensor_power_solution(b, alpha, 2)[0]
    return gallery


# -- the reference scalar text parser -------------------------------------------

def reference_parse_scalar(text: str) -> Scalar:
    """The scalar text parser as first written, one Fraction product and sum
    per token and term: the oracle of scalars.parse_scalar (same Scalar, or
    the same exception type and message)."""
    if not isinstance(text, str):
        raise ScalarParseError(f"scalar text must be a string, not {text!r}")
    text = text.strip()
    if not text:
        raise ScalarParseError("empty scalar text")
    total: dict = {}
    for part in text.split("+"):
        part = part.strip()
        if not part:
            raise ScalarParseError(f"empty term in {text!r}")
        factors = part.split("*")
        coef = Fraction(1)
        pairs: list[tuple[str, int]] = []
        for i, tok in enumerate(factors):
            tok = tok.strip()
            try:
                coef *= Fraction(tok)
                continue
            except ValueError:
                pass
            except ZeroDivisionError:
                raise ScalarParseError(f"zero denominator in {tok!r}") from None
            if i == 0 and tok and (tok[0].isdigit() or tok[0] in "+-"):
                raise ScalarParseError(f"bad coefficient {tok!r}")
            name, caret, exp = tok.partition("^")
            if not name.isidentifier():
                raise ScalarParseError(f"bad factor {tok!r} in {text!r}")
            try:
                e = int(exp) if caret else 1
            except ValueError:
                raise ScalarParseError(f"bad exponent in {tok!r}") from None
            pairs.append((name, e))
        exps = _canonical_exps(pairs)
        if coef != 0:
            total[exps] = total.get(exps, Fraction(0)) + coef
    return Scalar(total)


# -- the reference Laurent arithmetic -------------------------------------------
#
# Term-tuple arithmetic on plain {exponent pairs: Fraction} dicts, exponent
# pairs ((name, exp), ...) with nonzero exps in the canonical parameter
# order: the oracle of Scalar's arithmetic, evaluation and text, sharing no
# code with the packed form Scalar runs on.

def _canonical_exps(pairs) -> tuple:
    merged: dict = {}
    for name, e in pairs:
        merged[name] = merged.get(name, 0) + e
    rank = {n: i for i, n in enumerate(param_order(merged))}
    return tuple(sorted(((n, e) for n, e in merged.items() if e != 0), key=lambda p: rank[p[0]]))


def ref_terms(x: dict) -> tuple:
    """The nonzero terms of x, sorted lexicographically on dense exponent
    vectors over the names that occur, in the canonical order."""
    items = [(exps, Fraction(c)) for exps, c in x.items() if c != 0]
    names = param_order(n for exps, _ in items for n, _ in exps)

    def vec(exps):
        dense = dict(exps)
        return tuple(dense.get(n, 0) for n in names)

    return tuple(sorted(items, key=lambda t: vec(t[0])))


def ref_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for exps, c in y.items():
        out[exps] = out.get(exps, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def ref_neg(x: dict) -> dict:
    return {e: -c for e, c in x.items()}


def ref_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = _canonical_exps(e1 + e2)
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def ref_inverse(x: dict) -> dict:
    terms = ref_terms(x)
    if len(terms) != 1:
        raise NotAMonomial(f"{ref_str(x)} has {len(terms)} terms, cannot invert")
    (exps, c), = terms
    return {tuple((n, -e) for n, e in exps): 1 / c}


def ref_pow(x: dict, n: int) -> dict:
    if n < 0:
        return ref_pow(ref_inverse(x), -n)
    out = {(): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, x)
    return out


def ref_evaluate(x: dict, assignment) -> Fraction:
    values = {n: Fraction(v) for n, v in assignment.items()}
    terms = ref_terms(x)
    missing = {n for exps, _ in terms for n, _ in exps} - values.keys()
    if missing:
        raise MissingParameter(f"no value for {sorted(missing)}")
    total = Fraction(0)
    for exps, c in terms:
        for n, e in exps:
            if values[n] == 0 and e < 0:
                raise ZeroAtNegativeExponent(f"{n} = 0 with exponent {e}")
            c *= values[n] ** e
        total += c
    return total


def ref_str(x: dict) -> str:
    terms = ref_terms(x)
    if not terms:
        return "0"
    return " + ".join("*".join([str(c)] + [n if e == 1 else f"{n}^{e}" for n, e in exps])
                      for exps, c in terms)
