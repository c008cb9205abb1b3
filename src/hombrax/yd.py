"""Bialgebras, (co)modules, and braidings from Yetter-Drinfel'd structures.

Everything is finite-dimensional and presented by structure constants, so
Sweedler sums become explicit contractions and every axiom is a finite
exact linear-algebra check.  A Yetter-Drinfel'd module carries an action
and a coaction of a bialgebra H tied together by the compatibility

    sum x1 v_(-1) (x) x2 . v_0  =  sum (x1 . v)_(-1) x2 (x) (x1 . v)_0 ,

and then B(v (x) w) = sum v_(-1) . w (x) v_0 satisfies the Yang-Baxter
identity; it also satisfies the twisted identity for any alpha that is
both an H-module and an H-comodule morphism.

Quasi-triangular structures (an invertible R in H (x) H) induce the
coaction rho(v) = sum t_i (x) s_i . v on any module; dually, a dual
quasi-triangular bilinear form induces the action x . v = R(v_(-1) (x) x) v_0
on any comodule.  The gallery sticks to group bialgebras of Z/1 and Z/2
with rational bicharacters, which keeps every coefficient in Q.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from hombrax.scalars import Scalar
from hombrax.tensor import (BasedSpace, LinearMap, TensorOp, _json_dense, _json_dim,
                            _json_labels, _json_sparse, _sparse_json)


class AxiomViolation(ValueError):
    """A bialgebra/module/comodule/R-structure axiom fails."""


class NotYD(ValueError):
    """The Yetter-Drinfel'd compatibility fails."""


def _s(x) -> Scalar:
    return x if isinstance(x, Scalar) else Scalar.rational(x)


def _grid(data, *dims) -> tuple:
    """Coerce nested sequences of the given shape into tuples of Scalars."""
    if not dims:
        return _s(data)
    head, *rest = dims
    if len(data) != head:
        raise ValueError(f"expected length {head}, got {len(data)}")
    return tuple(_grid(row, *rest) for row in data)


class Bialgebra:
    """Structure-constant presentation of a finite-dimensional bialgebra.

    mult[i][j][k] is the e_k coefficient of e_i e_j; comult[i][j][k] the
    e_j (x) e_k coefficient of Delta(e_i); unit and counit are a vector and
    a covector.
    """

    __slots__ = ("labels", "mult", "unit", "comult", "counit")

    def __init__(self, labels: Sequence[str], mult, unit, comult, counit):
        d = len(labels)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "mult", _grid(mult, d, d, d))
        object.__setattr__(self, "unit", _grid(unit, d))
        object.__setattr__(self, "comult", _grid(comult, d, d, d))
        object.__setattr__(self, "counit", _grid(counit, d))

    def __setattr__(self, name, value):
        raise AttributeError("Bialgebra is immutable")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def multiply(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple[Scalar, ...]:
        d = self.dim
        out = [Scalar.zero()] * d
        for i in range(d):
            if u[i].is_zero():
                continue
            for j in range(d):
                if v[j].is_zero():
                    continue
                coef = u[i] * v[j]
                for k in range(d):
                    m = self.mult[i][j][k]
                    if not m.is_zero():
                        out[k] = out[k] + coef * m
        return tuple(out)

    def basis_vec(self, i: int) -> tuple[Scalar, ...]:
        return tuple(Scalar.one() if k == i else Scalar.zero()
                     for k in range(self.dim))

    def check_axioms(self) -> None:
        """Associativity, (co)unitality, coassociativity, and that Delta and
        the counit are algebra maps; raises AxiomViolation on failure."""
        d = self.dim
        rng = range(d)
        for i, j, k, r in itertools.product(rng, repeat=4):
            lhs = sum((self.mult[i][j][e] * self.mult[e][k][r] for e in rng),
                      Scalar.zero())
            rhs = sum((self.mult[j][k][e] * self.mult[i][e][r] for e in rng),
                      Scalar.zero())
            if lhs != rhs:
                raise AxiomViolation(f"associativity fails at ({i},{j},{k})")
        for i in rng:
            if (self.multiply(self.unit, self.basis_vec(i)) != self.basis_vec(i)
                    or self.multiply(self.basis_vec(i), self.unit) != self.basis_vec(i)):
                raise AxiomViolation(f"unit law fails at {i}")
        for i, a, b, c in itertools.product(rng, repeat=4):
            lhs = sum((self.comult[i][a][e] * self.comult[e][b][c] for e in rng),
                      Scalar.zero())
            rhs = sum((self.comult[i][e][c] * self.comult[e][a][b] for e in rng),
                      Scalar.zero())
            if lhs != rhs:
                raise AxiomViolation(f"coassociativity fails at ({i},{a},{b},{c})")
        for i, k in itertools.product(rng, repeat=2):
            left = sum((self.counit[a] * self.comult[i][a][k] for a in rng),
                       Scalar.zero())
            right = sum((self.comult[i][k][a] * self.counit[a] for a in rng),
                        Scalar.zero())
            want = Scalar.one() if i == k else Scalar.zero()
            if left != want or right != want:
                raise AxiomViolation(f"counit law fails at ({i},{k})")
        # Delta and the counit are algebra maps; Delta(1) = 1 (x) 1, eps(1) = 1.
        sparse_comult = [[(a, b, self.comult[i][a][b]) for a in rng for b in rng
                          if not self.comult[i][a][b].is_zero()] for i in rng]
        for i, j in itertools.product(rng, repeat=2):
            rhs = [[Scalar.zero()] * d for _ in rng]
            for a1, a2, c1 in sparse_comult[i]:
                for b1, b2, c2 in sparse_comult[j]:
                    coef = c1 * c2
                    for a in rng:
                        m1 = self.mult[a1][b1][a]
                        if m1.is_zero():
                            continue
                        for b in rng:
                            rhs[a][b] = rhs[a][b] + coef * m1 * self.mult[a2][b2][b]
            for a, b in itertools.product(rng, repeat=2):
                lhs = sum((self.mult[i][j][k] * self.comult[k][a][b] for k in rng),
                          Scalar.zero())
                if lhs != rhs[a][b]:
                    raise AxiomViolation(f"Delta is not an algebra map at ({i},{j})")
        for i, j in itertools.product(rng, repeat=2):
            lhs = sum((self.mult[i][j][k] * self.counit[k] for k in rng),
                      Scalar.zero())
            if lhs != self.counit[i] * self.counit[j]:
                raise AxiomViolation(f"counit is not an algebra map at ({i},{j})")
        delta_unit = [[sum((self.unit[i] * self.comult[i][a][b] for i in rng),
                           Scalar.zero()) for b in rng] for a in rng]
        for a, b in itertools.product(rng, repeat=2):
            if delta_unit[a][b] != self.unit[a] * self.unit[b]:
                raise AxiomViolation("Delta(1) != 1 (x) 1")
        eps_unit = sum((self.unit[i] * self.counit[i] for i in rng), Scalar.zero())
        if not eps_unit.is_one():
            raise AxiomViolation("eps(1) != 1")

    def is_cocommutative(self) -> bool:
        rng = range(self.dim)
        return all(self.comult[i][a][b] == self.comult[i][b][a]
                   for i in rng for a in rng for b in rng)

    def __repr__(self):
        return f"Bialgebra(labels={self.labels})"


def group_bialgebra(m: int) -> Bialgebra:
    """The group bialgebra of Z/m: g^i g^j = g^(i+j mod m), all basis group-like."""
    if m < 1:
        raise ValueError("m must be >= 1")
    labels = tuple(f"g{i}" for i in range(m))
    zero, one = Scalar.zero(), Scalar.one()
    mult = [[[one if k == (i + j) % m else zero for k in range(m)]
             for j in range(m)] for i in range(m)]
    comult = [[[one if a == i and b == i else zero for b in range(m)]
               for a in range(m)] for i in range(m)]
    unit = [one if i == 0 else zero for i in range(m)]
    counit = [one] * m
    return Bialgebra(labels, mult, unit, comult, counit)


class YDModule:
    """Module + comodule data over a bialgebra host.

    action[h][i][k] is the v_k coefficient of g_h . v_i; coaction[i][h][k]
    the g_h (x) v_k coefficient of rho(v_i).
    """

    __slots__ = ("host", "labels", "action", "coaction")

    def __init__(self, host: Bialgebra, labels: Sequence[str], action, coaction):
        d, n = host.dim, len(labels)
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "action", _grid(action, d, n, n))
        object.__setattr__(self, "coaction", _grid(coaction, n, d, n))

    def __setattr__(self, name, value):
        raise AttributeError("YDModule is immutable")

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def space(self) -> BasedSpace:
        return BasedSpace(self.labels)

    def check_module(self) -> None:
        H, act = self.host, self.action
        d, n = H.dim, self.dim
        rng_d, rng_n = range(d), range(n)
        for a, b, i, k in itertools.product(rng_d, rng_d, rng_n, rng_n):
            lhs = sum((H.mult[a][b][h] * act[h][i][k] for h in rng_d),
                      Scalar.zero())
            rhs = sum((act[b][i][j] * act[a][j][k] for j in rng_n),
                      Scalar.zero())
            if lhs != rhs:
                raise AxiomViolation(f"(xy).v = x.(y.v) fails at ({a},{b},{i})")
        for i, k in itertools.product(rng_n, repeat=2):
            lhs = sum((H.unit[h] * act[h][i][k] for h in rng_d), Scalar.zero())
            want = Scalar.one() if i == k else Scalar.zero()
            if lhs != want:
                raise AxiomViolation(f"1.v = v fails at {i}")

    def check_comodule(self) -> None:
        H, co = self.host, self.coaction
        d, n = H.dim, self.dim
        rng_d, rng_n = range(d), range(n)
        for i, h, g, k in itertools.product(rng_n, rng_d, rng_d, rng_n):
            lhs = sum((co[i][h][m] * co[m][g][k] for m in rng_n), Scalar.zero())
            rhs = sum((co[i][e][k] * H.comult[e][h][g] for e in rng_d),
                      Scalar.zero())
            if lhs != rhs:
                raise AxiomViolation(f"coassociativity of rho fails at ({i},{h},{g},{k})")
        for i, k in itertools.product(rng_n, repeat=2):
            lhs = sum((H.counit[h] * co[i][h][k] for h in rng_d), Scalar.zero())
            want = Scalar.one() if i == k else Scalar.zero()
            if lhs != want:
                raise AxiomViolation(f"counit law of rho fails at {i}")

    def __repr__(self):
        return f"YDModule(host={self.host.labels}, labels={self.labels})"


def yd_condition_residual(V: YDModule) -> list[tuple[tuple[int, int], list[list[Scalar]]]]:
    """Per (basis x of H, basis v of V): the H (x) V matrix of LHS - RHS of
    the compatibility condition.  Module/comodule axioms are checked first."""
    V.check_module()
    V.check_comodule()
    H, act, co = V.host, V.action, V.coaction
    d, n = H.dim, V.dim
    rng_d, rng_n = range(d), range(n)
    out = []
    for a, i in itertools.product(rng_d, rng_n):
        res = [[Scalar.zero()] * n for _ in range(d)]
        for a1, a2 in itertools.product(rng_d, repeat=2):
            dd = H.comult[a][a1][a2]
            if dd.is_zero():
                continue
            for m, w in itertools.product(rng_d, rng_n):
                c = co[i][m][w]
                if c.is_zero():
                    continue
                for h in rng_d:
                    mm = H.mult[a1][m][h]
                    if mm.is_zero():
                        continue
                    for k in rng_n:
                        res[h][k] = res[h][k] + dd * c * mm * act[a2][w][k]
            for u in rng_n:
                av = act[a1][i][u]
                if av.is_zero():
                    continue
                for g, k in itertools.product(rng_d, rng_n):
                    c = co[u][g][k]
                    if c.is_zero():
                        continue
                    for h in rng_d:
                        res[h][k] = res[h][k] - dd * av * c * H.mult[g][a2][h]
        out.append(((a, i), res))
    return out


def yd_residual_is_zero(V: YDModule) -> bool:
    return all(s.is_zero() for _, mat in yd_condition_residual(V)
               for row in mat for s in row)


def yd_braiding(V: YDModule) -> TensorOp:
    """B(v (x) w) = sum v_(-1) . w (x) v_0; raises NotYD unless compatible."""
    if not yd_residual_is_zero(V):
        raise NotYD("Yetter-Drinfel'd condition fails")
    act, co = V.action, V.coaction
    d, n = V.host.dim, V.dim
    cols: dict[int, list[tuple[int, Scalar]]] = {}
    for i in range(n):
        for j in range(n):
            entries = []
            for h in range(d):
                for w in range(n):
                    c = co[i][h][w]
                    if c.is_zero():
                        continue
                    for k in range(n):
                        entries.append((k * n + w, c * act[h][j][k]))
            cols[i * n + j] = entries
    return TensorOp(V.space, 2, cols)


def check_colinearity(alpha: LinearMap, V: YDModule) -> bool:
    """rho(alpha v) = (Id (x) alpha)(rho v)."""
    co = V.coaction
    d, n = V.host.dim, V.dim
    A = alpha.rows
    for i, h, k in itertools.product(range(n), range(d), range(n)):
        lhs = sum((A[u][i] * co[u][h][k] for u in range(n)), Scalar.zero())
        rhs = sum((co[i][h][w] * A[k][w] for w in range(n)), Scalar.zero())
        if lhs != rhs:
            return False
    return True


def check_linearity(alpha: LinearMap, V: YDModule) -> bool:
    """alpha(x . v) = x . alpha(v)."""
    act = V.action
    d, n = V.host.dim, V.dim
    A = alpha.rows
    for h, i, k in itertools.product(range(d), range(n), range(n)):
        lhs = sum((act[h][i][u] * A[k][u] for u in range(n)), Scalar.zero())
        rhs = sum((A[w][i] * act[h][w][k] for w in range(n)), Scalar.zero())
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# Quasi-triangular structures: R in H (x) H.
# ---------------------------------------------------------------------------

def _tensor2_multiply(H: Bialgebra, R, S):
    d = H.dim
    rng = range(d)
    out = [[Scalar.zero()] * d for _ in rng]
    for i, j, k, l in itertools.product(rng, repeat=4):
        coef = R[i][j] * S[k][l]
        if coef.is_zero():
            continue
        for a in rng:
            m1 = H.mult[i][k][a]
            if m1.is_zero():
                continue
            for b in rng:
                out[a][b] = out[a][b] + coef * m1 * H.mult[j][l][b]
    return out


def _tensor3_multiply(H: Bialgebra, T, S):
    d = H.dim
    rng = range(d)
    out = [[[Scalar.zero()] * d for _ in rng] for _ in rng]
    for i, j, k in itertools.product(rng, repeat=3):
        if T[i][j][k].is_zero():
            continue
        for l, m, n_ in itertools.product(rng, repeat=3):
            coef = T[i][j][k] * S[l][m][n_]
            if coef.is_zero():
                continue
            for a, b, c in itertools.product(rng, repeat=3):
                prod = H.mult[i][l][a] * H.mult[j][m][b] * H.mult[k][n_][c]
                if not prod.is_zero():
                    out[a][b][c] = out[a][b][c] + coef * prod
    return out


class QuasiTriangularStructure:
    """An invertible R = sum s_i (x) t_i in H (x) H; r[i][j] is the
    e_i (x) e_j coefficient."""

    __slots__ = ("host", "r", "r_inverse")

    def __init__(self, host: Bialgebra, r, r_inverse, validate: bool = True):
        d = host.dim
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "r", _grid(r, d, d))
        object.__setattr__(self, "r_inverse", _grid(r_inverse, d, d))
        if validate:
            self.check_axioms()

    def __setattr__(self, name, value):
        raise AttributeError("QuasiTriangularStructure is immutable")

    def check_axioms(self) -> None:
        H = self.host
        H.check_axioms()
        d = H.dim
        rng = range(d)
        unit2 = [[H.unit[a] * H.unit[b] for b in rng] for a in rng]
        if (_tensor2_multiply(H, self.r, self.r_inverse) != unit2
                or _tensor2_multiply(H, self.r_inverse, self.r) != unit2):
            raise AxiomViolation("R R^-1 != 1 (x) 1")
        # tau(Delta x) R = R Delta x for every basis x.
        for x in rng:
            dx = [[H.comult[x][a][b] for b in rng] for a in rng]
            tdx = [[H.comult[x][b][a] for b in rng] for a in rng]
            if _tensor2_multiply(H, tdx, self.r) != _tensor2_multiply(H, self.r, dx):
                raise AxiomViolation(f"tau(Delta x) R != R Delta x at basis {x}")
        r12 = [[[self.r[i][j] * H.unit[k] for k in rng] for j in rng] for i in rng]
        r23 = [[[H.unit[i] * self.r[j][k] for k in rng] for j in rng] for i in rng]
        r13 = [[[self.r[i][k] * H.unit[j] for k in rng] for j in rng] for i in rng]
        delta_id = [[[sum((self.r[e][k] * H.comult[e][i][j] for e in rng),
                          Scalar.zero()) for k in rng] for j in rng] for i in rng]
        if delta_id != _tensor3_multiply(H, r13, r23):
            raise AxiomViolation("(Delta (x) Id)(R) != R13 R23")
        id_delta = [[[sum((self.r[i][e] * H.comult[e][j][k] for e in rng),
                          Scalar.zero()) for k in rng] for j in rng] for i in rng]
        if id_delta != _tensor3_multiply(H, r13, r12):
            raise AxiomViolation("(Id (x) Delta)(R) != R13 R12")


def trivial_qt(host: Bialgebra) -> QuasiTriangularStructure:
    """R = 1 (x) 1; quasi-triangular exactly when the host is cocommutative."""
    d = host.dim
    rng = range(d)
    unit2 = [[host.unit[a] * host.unit[b] for b in rng] for a in rng]
    return QuasiTriangularStructure(host, unit2, unit2)


def comodule_from_qt(labels: Sequence[str], action, qt: QuasiTriangularStructure) -> YDModule:
    """Equip an H-module with the coaction rho(v) = sum t_i (x) s_i . v."""
    H = qt.host
    d, n = H.dim, len(labels)
    mod = YDModule(H, labels, action,
                   [[[Scalar.zero()] * n for _ in range(d)] for _ in range(n)])
    mod.check_module()
    act = mod.action
    coaction = [[[sum((qt.r[s][h] * act[s][j][k] for s in range(d)), Scalar.zero())
                  for k in range(n)] for h in range(d)] for j in range(n)]
    out = YDModule(H, labels, action, coaction)
    if not yd_residual_is_zero(out):
        raise AxiomViolation("induced coaction is not Yetter-Drinfel'd")
    return out


def tau_r_operator(labels: Sequence[str], action, qt: QuasiTriangularStructure) -> TensorOp:
    """The direct braiding tau o R: v (x) w -> sum t_i . w (x) s_i . v."""
    H = qt.host
    d, n = H.dim, len(labels)
    act = _grid(action, d, n, n)
    space = BasedSpace(labels)
    cols: dict[int, list[tuple[int, Scalar]]] = {}
    for i in range(n):
        for j in range(n):
            entries = []
            for s, t in itertools.product(range(d), repeat=2):
                coef = qt.r[s][t]
                if coef.is_zero():
                    continue
                for l in range(n):
                    at = act[t][j][l]
                    if at.is_zero():
                        continue
                    for w in range(n):
                        entries.append((l * n + w, coef * at * act[s][i][w]))
            cols[i * n + j] = entries
    return TensorOp(space, 2, cols)


# ---------------------------------------------------------------------------
# Dual quasi-triangular structures: a bilinear form on H.
# ---------------------------------------------------------------------------

class DualQuasiTriangularStructure:
    """A convolution-invertible form R on H (x) H; form[i][j] = R(e_i (x) e_j)."""

    __slots__ = ("host", "form", "form_inverse")

    def __init__(self, host: Bialgebra, form, form_inverse, validate: bool = True):
        d = host.dim
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "form", _grid(form, d, d))
        object.__setattr__(self, "form_inverse", _grid(form_inverse, d, d))
        if validate:
            self.check_axioms()

    def __setattr__(self, name, value):
        raise AttributeError("DualQuasiTriangularStructure is immutable")

    def check_axioms(self) -> None:
        H = self.host
        H.check_axioms()
        d = H.dim
        rng = range(d)
        F, G = self.form, self.form_inverse
        for a, b in itertools.product(rng, repeat=2):
            conv = sum((H.comult[a][a1][a2] * H.comult[b][b1][b2]
                        * F[a1][b1] * G[a2][b2]
                        for a1 in rng for a2 in rng for b1 in rng for b2 in rng),
                       Scalar.zero())
            vnoc = sum((H.comult[a][a1][a2] * H.comult[b][b1][b2]
                        * G[a1][b1] * F[a2][b2]
                        for a1 in rng for a2 in rng for b1 in rng for b2 in rng),
                       Scalar.zero())
            want = H.counit[a] * H.counit[b]
            if conv != want or vnoc != want:
                raise AxiomViolation(f"form not convolution-invertible at ({a},{b})")
        zero = Scalar.zero()
        for a, b in itertools.product(rng, repeat=2):
            lhs = [zero] * d
            rhs = [zero] * d
            for a1, a2, b1, b2 in itertools.product(rng, repeat=4):
                dd = H.comult[a][a1][a2] * H.comult[b][b1][b2]
                if dd.is_zero():
                    continue
                for k in rng:
                    lhs[k] = lhs[k] + dd * F[a2][b2] * H.mult[b1][a1][k]
                    rhs[k] = rhs[k] + dd * F[a1][b1] * H.mult[a2][b2][k]
            if lhs != rhs:
                raise AxiomViolation(f"first dual condition fails at ({a},{b})")
        for a, b, c in itertools.product(rng, repeat=3):
            lhs = sum((H.mult[a][b][k] * F[k][c] for k in rng), zero)
            rhs = sum((H.comult[c][c1][c2] * F[a][c1] * F[b][c2]
                       for c1 in rng for c2 in rng), zero)
            if lhs != rhs:
                raise AxiomViolation(f"second dual condition fails at ({a},{b},{c})")
        for a, b, c in itertools.product(rng, repeat=3):
            lhs = sum((H.mult[b][c][k] * F[a][k] for k in rng), zero)
            rhs = sum((H.comult[a][a1][a2] * F[a1][c] * F[a2][b]
                       for a1 in rng for a2 in rng), zero)
            if lhs != rhs:
                raise AxiomViolation(f"third dual condition fails at ({a},{b},{c})")


def module_from_dqt(labels: Sequence[str], coaction,
                    dqt: DualQuasiTriangularStructure) -> YDModule:
    """Equip an H-comodule with the action x . v = R(v_(-1) (x) x) v_0."""
    H = dqt.host
    d, n = H.dim, len(labels)
    mod = YDModule(H, labels,
                   [[[Scalar.zero()] * n for _ in range(n)] for _ in range(d)],
                   coaction)
    mod.check_comodule()
    co = mod.coaction
    action = [[[sum((co[i][h][k] * dqt.form[h][a] for h in range(d)), Scalar.zero())
                for k in range(n)] for i in range(n)] for a in range(d)]
    out = YDModule(H, labels, action, co)
    if not yd_residual_is_zero(out):
        raise AxiomViolation("induced action is not Yetter-Drinfel'd")
    return out


def dqt_braiding_operator(labels: Sequence[str], coaction,
                          dqt: DualQuasiTriangularStructure) -> TensorOp:
    """The direct braiding v (x) w -> sum R(w_(-1) (x) v_(-1)) w_0 (x) v_0."""
    H = dqt.host
    d, n = H.dim, len(labels)
    co = _grid(coaction, n, d, n)
    space = BasedSpace(labels)
    cols: dict[int, list[tuple[int, Scalar]]] = {}
    for i in range(n):
        for j in range(n):
            entries = []
            for g, h in itertools.product(range(d), repeat=2):
                coef = dqt.form[g][h]
                if coef.is_zero():
                    continue
                for u in range(n):
                    cu = co[j][g][u]
                    if cu.is_zero():
                        continue
                    for w in range(n):
                        entries.append((u * n + w, coef * cu * co[i][h][w]))
            cols[i * n + j] = entries
    return TensorOp(space, 2, cols)


# ---------------------------------------------------------------------------
# The rational gallery.
# ---------------------------------------------------------------------------

def z2_sign_module() -> YDModule:
    """Z/2-graded two-dimensional module: g acts by parity, rho grades."""
    H = group_bialgebra(2)
    one, zero = Scalar.one(), Scalar.zero()
    action = [
        [[one, zero], [zero, one]],        # g0 acts as identity
        [[one, zero], [zero, -one]],       # g1 flips the sign of v1
    ]
    coaction = [
        [[one, zero], [zero, zero]],       # rho(v0) = g0 (x) v0
        [[zero, zero], [zero, one]],       # rho(v1) = g1 (x) v1
    ]
    return YDModule(H, ("v0", "v1"), action, coaction)


def z2_bicharacter_dqt() -> DualQuasiTriangularStructure:
    """R(g^i (x) g^j) = (-1)^(i j) on the group bialgebra of Z/2."""
    H = group_bialgebra(2)
    one = Scalar.one()
    form = [[one, one], [one, -one]]
    return DualQuasiTriangularStructure(H, form, form)


# ---------------------------------------------------------------------------
# JSON formats.
# ---------------------------------------------------------------------------

def bialgebra_to_json_dict(H: Bialgebra) -> dict:
    return {
        "dim": H.dim,
        "labels": list(H.labels),
        "mult": _sparse_json(H.mult, 2),
        "unit": [str(s) for s in H.unit],
        "comult": _sparse_json(H.comult, 1),
        "counit": [str(s) for s in H.counit],
    }


def bialgebra_from_json_dict(data: Mapping) -> Bialgebra:
    d = _json_dim(data, 3)
    return Bialgebra(_json_labels(data, d, "h"),
                     _json_sparse(data["mult"], (d, d, d), 2, "mult"),
                     _json_dense(data["unit"], (d,), "unit"),
                     _json_sparse(data["comult"], (d, d, d), 1, "comult"),
                     _json_dense(data["counit"], (d,), "counit"))


def module_to_json_dict(V: YDModule) -> dict:
    return {
        "bialgebra": bialgebra_to_json_dict(V.host),
        "dim": V.dim,
        "labels": list(V.labels),
        "action": _sparse_json(V.action, 2),
        "coaction": _sparse_json(V.coaction, 1),
    }


def module_from_json_dict(data: Mapping) -> YDModule:
    n = _json_dim(data, 3)
    H = bialgebra_from_json_dict(data["bialgebra"])
    return YDModule(H, _json_labels(data, n, "v"),
                    _json_sparse(data["action"], (H.dim, n, n), 2, "action"),
                    _json_sparse(data["coaction"], (n, H.dim, n), 1, "coaction"))
