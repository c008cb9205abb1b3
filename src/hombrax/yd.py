"""Bialgebras, (co)modules, and braidings from Yetter-Drinfel'd structures.

Everything is finite-dimensional.  Each structure map is one operator
between tensor words of the bialgebra H and the module V, built once from
its structure constants: mult H (x) H -> H, unit () -> H, comult
H -> H (x) H, counit H -> (), action H (x) V -> V, coaction V -> H (x) V,
an R-matrix () -> H (x) H and a bilinear form H (x) H -> ().  Sweedler sums
become compositions with swaps, and every axiom is one operator residual
that must vanish.  A Yetter-Drinfel'd module carries an action and a
coaction of H tied together by the compatibility

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

from typing import Mapping, Sequence

from hombrax.scalars import Scalar
from hombrax.tensor import (BasedSpace, TensorOp, _Frozen, _json_dense, _json_dim,
                            _json_labels, _json_sparse, _on, _OnSpace, _sparse_json,
                            as_op, compose, identity_op, residual, swap_op, tensor_product)


class AxiomViolation(ValueError):
    """A bialgebra/module/comodule/R-structure axiom fails."""


class NotYD(ValueError):
    """The Yetter-Drinfel'd compatibility fails."""


def _check(axioms: list[tuple]) -> None:
    """Raise AxiomViolation for the first (message, *residuals) axiom with a
    nonzero residual.  The message names the first failing entry over its
    residuals: {col} and {row} become the comma-joined multi-indices."""
    for message, *residuals in axioms:
        hits = [hit for hit in (r.first_nonzero() for r in residuals) if hit]
        if hits:
            col, row = min(hits)
            raise AxiomViolation(message.format(col=",".join(map(str, col)),
                                                row=",".join(map(str, row))))


class Bialgebra(_OnSpace):
    """Structure-constant presentation of a finite-dimensional bialgebra.

    mult[i][j][k] is the e_k coefficient of e_i e_j; comult[i][j][k] the
    e_j (x) e_k coefficient of Delta(e_i); unit and counit are a vector and
    a covector.  Each is held as an operator (grids or operators accepted).
    """

    # _valid: set once check_axioms() has passed; a failure is never remembered.
    __slots__ = ("space", "mult", "unit", "comult", "counit", "_valid")

    def __init__(self, labels: Sequence[str], mult, unit, comult, counit):
        H = BasedSpace(labels)
        object.__setattr__(self, "space", H)
        object.__setattr__(self, "mult", as_op(mult, (H, H), (H,)))
        object.__setattr__(self, "unit", as_op(unit, (), (H,)))
        object.__setattr__(self, "comult", as_op(comult, (H,), (H, H)))
        object.__setattr__(self, "counit", as_op(counit, (H,), ()))
        object.__setattr__(self, "_valid", False)

    def algebra_mult(self, k: int) -> TensorOp:
        """The multiplication of H^(x)k: (x1..xk)(y1..yk) = x1 y1 (x) ... (x) xk yk."""
        H, m = self.space, self.mult
        if k == 1:
            return m
        rest = (H,) * (k - 1)
        return compose(tensor_product(m, self.algebra_mult(k - 1)),
                       tensor_product(identity_op(H), swap_op(rest, H), identity_op(rest)))

    def axioms(self) -> list[tuple]:
        """Associativity, (co)unitality, coassociativity, and that Delta and
        the counit are algebra maps, as (message, *residuals) in checking order."""
        H, m, u, D, e = self.space, self.mult, self.unit, self.comult, self.counit
        i = identity_op(H)
        return [
            ("associativity fails at ({col})",
             residual((m, tensor_product(m, i)), (m, tensor_product(i, m)))),
            ("unit law fails at {col}", residual((m, tensor_product(u, i)), i),
             residual((m, tensor_product(i, u)), i)),
            ("coassociativity fails at ({col},{row})",
             residual((tensor_product(i, D), D), (tensor_product(D, i), D))),
            ("counit law fails at ({col},{row})", residual((tensor_product(e, i), D), i),
             residual((tensor_product(i, e), D), i)),
            ("Delta is not an algebra map at ({col})",
             residual((D, m), (self.algebra_mult(2), tensor_product(D, D)))),
            ("counit is not an algebra map at ({col})", residual((e, m), tensor_product(e, e))),
            ("Delta(1) != 1 (x) 1", residual((D, u), tensor_product(u, u))),
            ("eps(1) != 1", residual((e, u), identity_op(()))),
        ]

    def check_axioms(self) -> None:
        """Raise AxiomViolation at the first failing axiom; checked once per
        object."""
        if not self._valid:
            _check(self.axioms())
            object.__setattr__(self, "_valid", True)

    def is_cocommutative(self) -> bool:
        return residual((swap_op(self.space), self.comult), self.comult).is_zero()

    def __repr__(self):
        return f"Bialgebra(labels={self.labels})"


def group_bialgebra(m: int) -> Bialgebra:
    """The group bialgebra of Z/m: g^i g^j = g^(i+j mod m), all basis group-like."""
    if m < 1:
        raise ValueError("m must be >= 1")
    labels = tuple(f"g{i}" for i in range(m))
    mult = [[[1 if k == (i + j) % m else 0 for k in range(m)]
             for j in range(m)] for i in range(m)]
    comult = [[[1 if a == i and b == i else 0 for b in range(m)]
               for a in range(m)] for i in range(m)]
    unit = [1 if i == 0 else 0 for i in range(m)]
    counit = [1] * m
    return Bialgebra(labels, mult, unit, comult, counit)


class YDModule(_OnSpace):
    """Module + comodule data over a bialgebra host.

    action[h][i][k] is the v_k coefficient of g_h . v_i; coaction[i][h][k]
    the g_h (x) v_k coefficient of rho(v_i).  Both are held as operators
    H (x) V -> V and V -> H (x) V (grids or operators accepted).
    """

    # _residual: set by the first yd_residual call that passes the axioms; a
    # failure is never remembered.
    __slots__ = ("host", "space", "action", "coaction", "_residual")

    def __init__(self, host: Bialgebra, labels: Sequence[str], action, coaction):
        H, V = host.space, BasedSpace(labels)
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "space", V)
        object.__setattr__(self, "action", as_op(action, (H, V), (V,)))
        object.__setattr__(self, "coaction", as_op(coaction, (V,), (H, V)))
        object.__setattr__(self, "_residual", None)

    def module_axioms(self) -> list[tuple]:
        H, act, v = self.host, self.action, identity_op(self.space)
        return [("(xy).v = x.(y.v) fails at ({col})",
                 residual((act, tensor_product(H.mult, v)),
                          (act, tensor_product(identity_op(H.space), act)))),
                ("1.v = v fails at {col}", residual((act, tensor_product(H.unit, v)), v))]

    def comodule_axioms(self) -> list[tuple]:
        H, co, v = self.host, self.coaction, identity_op(self.space)
        return [("coassociativity of rho fails at ({col},{row})",
                 residual((tensor_product(identity_op(H.space), co), co),
                          (tensor_product(H.comult, v), co))),
                ("counit law of rho fails at {col}",
                 residual((tensor_product(H.counit, v), co), v))]

    def check_module(self) -> None:
        _check(self.module_axioms())

    def check_comodule(self) -> None:
        _check(self.comodule_axioms())

    def __repr__(self):
        return f"YDModule(host={self.host.labels}, labels={self.labels})"


def yd_residual(V: YDModule) -> TensorOp:
    """LHS - RHS of the compatibility as a map H (x) V -> H (x) V, after the
    host, module and comodule axioms are checked (AxiomViolation); built
    once per module."""
    if V._residual is not None:
        return V._residual
    H = V.host
    H.check_axioms()
    V.check_module()
    V.check_comodule()
    h, v = identity_op(H.space), identity_op(V.space)
    m, act, co, D = H.mult, V.action, V.coaction, H.comult
    res = residual((tensor_product(m, act), tensor_product(h, swap_op(H.space), v),
                    tensor_product(D, co)),
                   (tensor_product(m, v), tensor_product(h, swap_op(V.space, H.space)),
                    tensor_product(compose(co, act), h),
                    tensor_product(h, swap_op(H.space, V.space)), tensor_product(D, v)))
    object.__setattr__(V, "_residual", res)
    return res


def yd_condition_residual(V: YDModule) -> list[tuple[tuple[int, int], list[list[Scalar]]]]:
    """``yd_residual`` per column: for each basis (x, v) of H (x) V, the
    H (x) V matrix of LHS - RHS."""
    res = yd_residual(V)
    d, n = V.host.dim, V.dim
    dense = res.dense()
    return [((j // n, j % n), [[dense[h * n + k][j] for k in range(n)] for h in range(d)])
            for j in range(d * n)]


def yd_braiding(V: YDModule) -> TensorOp:
    """B(v (x) w) = sum v_(-1) . w (x) v_0; raises NotYD unless compatible."""
    if not yd_residual(V).is_zero():
        raise NotYD("Yetter-Drinfel'd condition fails")
    W, v = V.space, identity_op(V.space)
    return compose(tensor_product(V.action, v),
                   tensor_product(identity_op(V.host.space), swap_op(W)),
                   tensor_product(V.coaction, v))


def colinearity_residual(alpha: TensorOp, V: YDModule) -> TensorOp:
    """rho(alpha v) - (Id (x) alpha)(rho v) on V."""
    a = _on(alpha, V.space)
    return residual((V.coaction, a), (tensor_product(identity_op(V.host.space), a), V.coaction))


def linearity_residual(alpha: TensorOp, V: YDModule) -> TensorOp:
    """alpha(x . v) - x . alpha(v) on H (x) V."""
    a = _on(alpha, V.space)
    return residual((a, V.action), (V.action, tensor_product(identity_op(V.host.space), a)))


def check_colinearity(alpha: TensorOp, V: YDModule) -> bool:
    return colinearity_residual(alpha, V).is_zero()


def check_linearity(alpha: TensorOp, V: YDModule) -> bool:
    return linearity_residual(alpha, V).is_zero()


# ---------------------------------------------------------------------------
# Quasi-triangular structures: R in H (x) H.
# ---------------------------------------------------------------------------

class QuasiTriangularStructure(_Frozen):
    """An invertible R = sum s_i (x) t_i in H (x) H; r[i][j] is the
    e_i (x) e_j coefficient.  R and its inverse are held as maps () -> H (x) H;
    construction checks the axioms."""

    __slots__ = ("host", "r", "r_inverse")

    def __init__(self, host: Bialgebra, r, r_inverse):
        H = host.space
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "r", as_op(r, (), (H, H)))
        object.__setattr__(self, "r_inverse", as_op(r_inverse, (), (H, H)))
        self.check_axioms()

    def axioms(self) -> list[tuple]:
        H = self.host
        R, S, D, u = self.r, self.r_inverse, H.comult, H.unit
        i, m2, m3 = identity_op(H.space), H.algebra_mult(2), H.algebra_mult(3)
        unit2 = tensor_product(u, u)
        r13 = compose(tensor_product(i, swap_op(H.space)), tensor_product(R, u))
        return [
            ("R R^-1 != 1 (x) 1", residual((m2, tensor_product(R, S)), unit2),
             residual((m2, tensor_product(S, R)), unit2)),
            ("tau(Delta x) R != R Delta x at basis {col}",
             residual((m2, tensor_product(compose(swap_op(H.space), D), R)),
                      (m2, tensor_product(R, D)))),
            ("(Delta (x) Id)(R) != R13 R23",
             residual((tensor_product(D, i), R), (m3, tensor_product(r13, u, R)))),
            ("(Id (x) Delta)(R) != R13 R12",
             residual((tensor_product(i, D), R), (m3, tensor_product(r13, R, u)))),
        ]

    def check_axioms(self) -> None:
        self.host.check_axioms()
        _check(self.axioms())


def trivial_qt(host: Bialgebra) -> QuasiTriangularStructure:
    """R = 1 (x) 1; quasi-triangular exactly when the host is cocommutative."""
    unit2 = tensor_product(host.unit, host.unit)
    return QuasiTriangularStructure(host, unit2, unit2)


def comodule_from_qt(labels: Sequence[str], action, qt: QuasiTriangularStructure) -> YDModule:
    """Equip an H-module with the coaction rho(v) = sum t_i (x) s_i . v."""
    H, V = qt.host.space, BasedSpace(labels)
    act, v = as_op(action, (H, V), (V,)), identity_op(V)
    coaction = compose(tensor_product(identity_op(H), act), tensor_product(swap_op(H), v),
                       tensor_product(qt.r, v))
    out = YDModule(qt.host, labels, act, coaction)
    if not yd_residual(out).is_zero():
        raise AxiomViolation("induced coaction is not Yetter-Drinfel'd")
    return out


def tau_r_operator(labels: Sequence[str], action, qt: QuasiTriangularStructure) -> TensorOp:
    """The direct braiding tau o R: v (x) w -> sum t_i . w (x) s_i . v."""
    H, V = qt.host.space, BasedSpace(labels)
    act, v = as_op(action, (H, V), (V,)), identity_op(V)
    return compose(swap_op(V), tensor_product(act, act),
                   tensor_product(identity_op(H), swap_op(H, V), v),
                   tensor_product(qt.r, v, v))


# ---------------------------------------------------------------------------
# Dual quasi-triangular structures: a bilinear form on H.
# ---------------------------------------------------------------------------

class DualQuasiTriangularStructure(_Frozen):
    """A convolution-invertible form R on H (x) H; form[i][j] = R(e_i (x) e_j).
    The form and its inverse are held as maps H (x) H -> (); construction
    checks the axioms."""

    __slots__ = ("host", "form", "form_inverse")

    def __init__(self, host: Bialgebra, form, form_inverse):
        H = host.space
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "form", as_op(form, (H, H), ()))
        object.__setattr__(self, "form_inverse", as_op(form_inverse, (H, H), ()))
        self.check_axioms()

    def axioms(self) -> list[tuple]:
        H = self.host
        F, G, D, m, e = self.form, self.form_inverse, H.comult, H.mult, H.counit
        i, s = identity_op(H.space), swap_op(H.space)
        # The comultiplication of H (x) H: a (x) b -> a1 (x) b1 (x) a2 (x) b2.
        D2 = compose(tensor_product(i, s, i), tensor_product(D, D))
        return [
            ("form not convolution-invertible at ({col})",
             residual((tensor_product(F, G), D2), tensor_product(e, e)),
             residual((tensor_product(G, F), D2), tensor_product(e, e))),
            ("first dual condition fails at ({col})",
             residual((tensor_product(compose(m, s), F), D2), (tensor_product(F, m), D2))),
            ("second dual condition fails at ({col})",
             residual((F, tensor_product(m, i)),
                      (tensor_product(F, F), tensor_product(i, s, i), tensor_product(i, i, D)))),
            ("third dual condition fails at ({col})",
             residual((F, tensor_product(i, m)),
                      (tensor_product(F, F),
                       tensor_product(i, swap_op((H.space, H.space), H.space)),
                       tensor_product(D, i, i)))),
        ]

    def check_axioms(self) -> None:
        self.host.check_axioms()
        _check(self.axioms())


def module_from_dqt(labels: Sequence[str], coaction,
                    dqt: DualQuasiTriangularStructure) -> YDModule:
    """Equip an H-comodule with the action x . v = R(v_(-1) (x) x) v_0."""
    H, V = dqt.host.space, BasedSpace(labels)
    co, v = as_op(coaction, (V,), (H, V)), identity_op(V)
    action = compose(tensor_product(dqt.form, v), tensor_product(swap_op(H), v),
                     tensor_product(identity_op(H), co))
    out = YDModule(dqt.host, labels, action, co)
    out.check_comodule()
    if not yd_residual(out).is_zero():
        raise AxiomViolation("induced action is not Yetter-Drinfel'd")
    return out


def dqt_braiding_operator(labels: Sequence[str], coaction,
                          dqt: DualQuasiTriangularStructure) -> TensorOp:
    """The direct braiding v (x) w -> sum R(w_(-1) (x) v_(-1)) w_0 (x) v_0."""
    H, V = dqt.host.space, BasedSpace(labels)
    co, v = as_op(coaction, (V,), (H, V)), identity_op(V)
    return compose(tensor_product(dqt.form, v, v),
                   tensor_product(identity_op(H), swap_op(V, H), v),
                   tensor_product(co, co), swap_op(V))


# ---------------------------------------------------------------------------
# The rational gallery.
# ---------------------------------------------------------------------------

def z2_sign_module() -> YDModule:
    """Z/2-graded two-dimensional module: g acts by parity, rho grades."""
    H = group_bialgebra(2)
    action = [
        [[1, 0], [0, 1]],                  # g0 acts as identity
        [[1, 0], [0, -1]],                 # g1 flips the sign of v1
    ]
    coaction = [
        [[1, 0], [0, 0]],                  # rho(v0) = g0 (x) v0
        [[0, 0], [0, 1]],                  # rho(v1) = g1 (x) v1
    ]
    return YDModule(H, ("v0", "v1"), action, coaction)


def z2_bicharacter_dqt() -> DualQuasiTriangularStructure:
    """R(g^i (x) g^j) = (-1)^(i j) on the group bialgebra of Z/2."""
    H = group_bialgebra(2)
    form = [[1, 1], [1, -1]]
    return DualQuasiTriangularStructure(H, form, form)


# ---------------------------------------------------------------------------
# JSON formats.
# ---------------------------------------------------------------------------

def bialgebra_to_json_dict(H: Bialgebra) -> dict:
    return {
        "dim": H.dim,
        "labels": list(H.labels),
        "mult": _sparse_json(H.mult),
        "unit": [str(row[0]) for row in H.unit.dense()],
        "comult": _sparse_json(H.comult),
        "counit": [str(s) for s in H.counit.dense()[0]],
    }


def bialgebra_from_json_dict(data: Mapping) -> Bialgebra:
    d = _json_dim(data, 3)
    H = BasedSpace(_json_labels(data, d, "h"))
    return Bialgebra(H.labels, _json_sparse(data["mult"], (H, H), (H,), "mult"),
                     _json_dense(data["unit"], (d,), "unit"),
                     _json_sparse(data["comult"], (H,), (H, H), "comult"),
                     _json_dense(data["counit"], (d,), "counit"))


def module_to_json_dict(V: YDModule) -> dict:
    return {
        "bialgebra": bialgebra_to_json_dict(V.host),
        "dim": V.dim,
        "labels": list(V.labels),
        "action": _sparse_json(V.action),
        "coaction": _sparse_json(V.coaction),
    }


def module_from_json_dict(data: Mapping) -> YDModule:
    n = _json_dim(data, 3)
    host = bialgebra_from_json_dict(data["bialgebra"])
    H, V = host.space, BasedSpace(_json_labels(data, n, "v"))
    return YDModule(host, V.labels, _json_sparse(data["action"], (H, V), (V,), "action"),
                    _json_sparse(data["coaction"], (V,), (H, V), "coaction"))
