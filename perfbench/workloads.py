"""The four seeded workloads: lists of verdicts with their expected outcomes.

A verdict is one identity check: one residual tested for emptiness, or one
equality of operators or of accept sets -- the unit the CLI prints as one
PASS/FAIL line.  ``build(workload, seed, k, workdir, smoke)`` returns the
verdicts of pass ``k``; every input comes from ``random.Random`` seeded by
(workload, seed, k), so the same seed gives the same inputs and each pass of
a run gets fresh instances (no result can be reused from an earlier pass).

Each verdict's expected outcome is fixed when its inputs are built, from
facts that do not depend on the code under test: identities that hold by
construction, a seeded one-entry perturbation whose residual must be
non-empty exactly at the perturbed column (negative controls, about 10 % of
every pass), and scan totals counted from the family formulas and the
support-pattern combinatorics.  A vacuous PASS (no relation checked, empty
accept set) does not match any expected outcome.

Every pass of a workload lists the same kinds of verdict in the same order
(the seed changes values, perturbation sites and residues, not the slots),
so slot i of one pass is comparable with slot i of the next.

All calls into hombrax go through module attributes (``tensor.compose``),
never through names bound at import time, so the tracer's patches apply.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

from hombrax import braid, cli, homlie, hybe, quantum, tensor, yd
from hombrax.scalars import Scalar

PASS = ("PASS",)

# Spans (or counters) each workload must record; the self-test and every
# traced run check them on the workload's smoke pass.
EXPECTED_SPANS = {
    "rational": (
        "scalars.mul_calls", "scalars.add_calls",
        "tensor.compose", "tensor.invert", "tensor.tensor_product", "tensor.lift",
        "tensor.identity_op", "tensor.power",
        "hybe.compatibility_residual", "hybe.hybe_residual", "hybe.ybe_residual",
        "hybe.twist", "hybe.build_Bi", "hybe.braid_relation_residuals",
        "braid.theta_operator", "braid.tensor_power_solution",
        "quantum.induced_solution", "homlie.extension_build", "homlie.validate"),
    "symbolic": (
        "scalars.mul_calls", "scalars.add_calls",
        "tensor.compose", "tensor.tensor_product", "tensor.lift", "tensor.identity_op",
        "hybe.compatibility_residual", "hybe.hybe_residual", "hybe.ybe_residual",
        "hybe.twist", "hybe.build_Bi", "hybe.braid_relation_residuals",
        "quantum.induced_solution", "homlie.extension_build", "homlie.validate",
        "yd.condition_residual", "yd.braiding"),
    "scan": (
        "quantum.brute_force", "quantum.pattern_accept_set", "homlie.morphism_scan",
        "homlie.classify", "runtime.map_chunks"),
    "pipeline": (
        "scalars.mul_calls", "scalars.add_calls",
        "tensor.compose", "tensor.invert", "tensor.tensor_product", "tensor.lift",
        "tensor.identity_op", "tensor.power", "tensor.op_dumps", "tensor.op_loads",
        "hybe.hybe_residual", "hybe.compatibility_residual", "hybe.build_Bi",
        "braid.theta_operator", "braid.tensor_power_solution",
        "quantum.brute_force", "quantum.pattern_accept_set", "runtime.map_chunks",
        "yd.condition_residual",
        "cli.construct", "cli.verify", "cli.braid", "cli.classify", "cli.yd"),
}


class Check:
    """One verdict: ``run()`` returns the observed outcome, compared with ``expect``.

    ``cli`` marks an in-process CLI command (its outcome starts with the exit
    code); ``candidates`` is the nominal search space a scan verdict covers.
    """

    __slots__ = ("name", "run", "expect", "cli", "candidates")

    def __init__(self, name, run, expect=PASS, cli=False, candidates=0):
        self.name, self.run, self.expect = name, run, expect
        self.cli, self.candidates = cli, candidates


def outcome(res) -> tuple:
    """PASS for an empty residual, else FAIL with the first offending column."""
    hit = res.first_nonzero_column()
    return PASS if hit is None else ("FAIL", hit[0])


def outcome_all(residuals) -> tuple:
    """PASS when every residual of a non-empty list is empty."""
    if not residuals:
        return ("FAIL", "vacuous")
    for k, res in enumerate(residuals):
        hit = res.first_nonzero_column()
        if hit is not None:
            return ("FAIL", k, hit[0])
    return PASS


def perturb(op, row: int, col: int, delta: Fraction):
    """op plus delta at (row, col): differs from op in column col only."""
    cols = list(op.columns)
    cols[col] = cols[col] + ((row, Scalar.rational(delta)),)
    return tensor.TensorOp(op.space, op.arity, cols)


# The seeded rationals of one instance are p/r with every p and r a
# different prime from the head of _PRIMES: a seed only permutes the primes,
# so the heights, and with them the cost of exact arithmetic, stay the same
# from seed to seed (random signs would change which sums cancel, and with
# it the cost).  Distinct primes also keep the family constraints
# (a11 != 1, c != +-1, nonzero determinants, q^2 != 1) from failing by
# coincidence.
_PRIMES = (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def _rationals(rng: random.Random, count: int) -> list[Fraction]:
    primes = rng.sample(_PRIMES[:2 * count], 2 * count)
    return [Fraction(p, r) for p, r in zip(primes[::2], primes[1::2])]


def _site(rng: random.Random, dim: int) -> tuple[int, int, Fraction]:
    return rng.randrange(dim), rng.randrange(dim), _rationals(rng, 1)[0]


# ---------------------------------------------------------------------------
# rational
# ---------------------------------------------------------------------------

def _heisenberg_instance(rng, full: bool = True):
    """A seeded twisted Heisenberg algebra; without ``full`` the Y,Z block of
    alpha is diagonal (a23 = a32 = 0)."""
    if full:
        p = _rationals(rng, 6)
    else:
        a12, a13, a22, a33 = _rationals(rng, 4)
        p = [a12, a13, a22, 0, 0, a33]
    return homlie.yau_twist(homlie.heisenberg(), homlie.heisenberg_morphism(*p))


def _sl2_star_instance(rng):
    """A seeded twisted Poincare algebra (kind 1) whose Y,Z block of alpha is
    diagonal."""
    p = dict(zip(("a21", "a31", "a22", "a33"), _rationals(rng, 4)))
    return homlie.yau_twist(homlie.sl2_star(), homlie.sl2_star_morphism(1, **p))


def _sl2_instance(rng):
    """A seeded twisted sl(2) algebra (kind 1 morphism)."""
    x, y = _rationals(rng, 2)
    return homlie.yau_twist(homlie.sl2(), homlie.sl2_morphism(1, 0, x, y))


def _extension_checks(tag: str, L, rng) -> list[Check]:
    """Twisted identity, closed-form inverse both ways, invert(B) against the
    closed form, the inverse's twisted identity under alpha^-1, and one
    perturbed-inverse control."""
    ctx = {}
    dim2 = (L.dim + 1) ** 2
    row, col, delta = _site(rng, dim2)

    def twisted():
        ctx["B"] = homlie.braiding_on_extension(L)
        ctx["alpha"] = homlie.extended_alpha(L)
        ctx["I"] = tensor.identity_op(ctx["B"].space, 2)
        return outcome(hybe.hybe_residual(ctx["B"], ctx["alpha"]))

    def right_inverse():
        ctx["Binv"] = homlie.braiding_inverse_on_extension(L)
        return outcome(tensor.compose(ctx["B"], ctx["Binv"]) - ctx["I"])

    def left_inverse():
        return outcome(tensor.compose(ctx["Binv"], ctx["B"]) - ctx["I"])

    def invert_matches():
        return outcome(tensor.invert(ctx["B"]) - ctx["Binv"])

    def inverse_twisted():
        return outcome(hybe.hybe_residual(ctx["Binv"], ctx["alpha"].inverse()))

    def control():
        bad = perturb(ctx["Binv"], row, col, delta)
        return outcome(tensor.compose(ctx["B"], bad) - ctx["I"])

    return [Check(f"{tag}/hybe", twisted),
            Check(f"{tag}/B.Binv", right_inverse),
            Check(f"{tag}/Binv.B", left_inverse),
            Check(f"{tag}/invert", invert_matches),
            Check(f"{tag}/Binv-hybe", inverse_twisted),
            Check(f"{tag}/control", control, ("FAIL", col))]


def _induced_checks(pattern, rng) -> tuple[list[Check], Check]:
    """Compatibility, twisted identity and braid relations at n = 4 for the
    bql(3) solution a pattern induces at a seeded rational point."""
    q, lam, *values = _rationals(rng, 2 + len(pattern.support))
    ca = quantum.CompatibleAlpha(pattern, dict(zip(pattern.support, values)))
    point = {"q": q, "l": lam}
    row, col, delta = _site(rng, 9)
    tag = f"induced{pattern.column_rows}"
    ctx = {}

    def compat():
        ctx["B"] = quantum.induced_solution(ca).instantiate(point)
        ctx["alpha"] = ca.to_linear_map()
        return outcome(hybe.compatibility_residual(ctx["B"], ctx["alpha"]))

    checks = [
        Check(f"{tag}/compat", compat),
        Check(f"{tag}/hybe", lambda: outcome(hybe.hybe_residual(ctx["B"], ctx["alpha"]))),
        Check(f"{tag}/braid4", lambda: outcome_all(
            hybe.braid_relation_residuals(ctx["B"], ctx["alpha"], 4))),
    ]

    def closed_form_vs_twist():
        twisted = hybe.twist(quantum.bql(3).instantiate(point), ctx["alpha"])
        return outcome(perturb(ctx["B"], row, col, delta) - twisted)

    return checks, Check(f"{tag}/control", closed_form_vs_twist, ("FAIL", col))


def phi_pair(rng) -> tuple:
    """An invertible rational (B, alpha): phi twisted by a seeded diagonal alpha."""
    a, d, q, lam = _rationals(rng, 4)
    alpha = tensor.LinearMap.diagonal(quantum.PHI_SPACE, [a, d])
    return hybe.twist(quantum.phi(), alpha).instantiate({"q": q, "l": lam}), alpha


def _tensor_power_checks(B, alpha, n: int, rng) -> list[Check]:
    """The tensor-power pair at n: twisted identity, exact inverse, control."""
    ctx = {}
    dim2 = 2 ** (2 * n)
    row, col, delta = _site(rng, dim2)

    def twisted():
        bn, an = braid.tensor_power_solution(B, alpha, n)
        ctx["Bn"] = bn
        ctx["I"] = tensor.identity_op(bn.space, 2)
        return outcome(hybe.hybe_residual(bn, tensor.linear_map_from_op(an)))

    def inverse():
        ctx["inv"] = tensor.invert(ctx["Bn"])
        return outcome(tensor.compose(ctx["Bn"], ctx["inv"]) - ctx["I"])

    def control():
        return outcome(tensor.compose(ctx["Bn"], perturb(ctx["inv"], row, col, delta))
                       - ctx["I"])

    return [Check(f"tensor-power{n}/hybe", twisted),
            Check(f"tensor-power{n}/inverse", inverse),
            Check(f"tensor-power{n}/control", control, ("FAIL", col))]


def build_rational(rng, smoke: bool) -> list[Check]:
    checks = []
    # Many light instances with a diagonal Y,Z block (their twisted-identity
    # checks cost about the same on every seed, so verdict_p90_ms falls inside
    # that group) plus one sl(2) instance.  Every verdict takes at most about
    # 0.1 s: the full-block and sl(2) kind 2 instances and the n = 3 tensor
    # power (0.25-1.4 s each) are left out, because on a shared host a verdict
    # that long is slowed as a whole by other tenants, so its fastest time
    # over a run moves from run to run (see BENCHMARK.md).
    makers = [("heisenberg-diag", lambda r: _heisenberg_instance(r, full=False))]
    if not smoke:
        makers = 4 * [makers[0], ("sl2star-diag", _sl2_star_instance)]
        makers.append(("sl2-kind1", _sl2_instance))
    for i, (tag, make) in enumerate(makers):
        checks += _extension_checks(f"ext{i}-{tag}", make(rng), rng)
    patterns = [p for p in quantum.enumerate_patterns(3) if p.support]
    if smoke:
        patterns = rng.sample(patterns, 2)
    controls = []
    for pattern in patterns:
        positive, control = _induced_checks(pattern, rng)
        checks += positive
        controls.append(control)
    checks += rng.sample(controls, 1 if smoke else 8)
    B, alpha = phi_pair(rng)
    checks += _tensor_power_checks(B, alpha, 2, rng)
    return checks


# ---------------------------------------------------------------------------
# symbolic
# ---------------------------------------------------------------------------

def _symbol(name: str) -> Scalar:
    return Scalar.param(name)


def _twist_checks(tag: str, B0, alpha, braid_ns) -> list[Check]:
    """YBE of the untwisted solution, the twist, its twisted identity and braid relations."""
    ctx = {}

    def twisted():
        ctx["B"] = hybe.twist(B0, alpha)
        return outcome(hybe.hybe_residual(ctx["B"], alpha))

    checks = [Check(f"{tag}/ybe", lambda: outcome(hybe.ybe_residual(B0))),
              Check(f"{tag}/hybe", twisted)]
    for n in braid_ns:
        checks.append(Check(f"{tag}/braid{n}", lambda n=n: outcome_all(
            hybe.braid_relation_residuals(ctx["B"], alpha, n))))
    return checks


def symbolic_sl2_star():
    """Poincare algebra twisted by a kind-1 morphism with four symbolic entries."""
    a, b, c, d = (_symbol(n) for n in "abcd")
    return homlie.yau_twist(homlie.sl2_star(), homlie.sl2_star_morphism(
        1, a21=a, a22=c, a23=b, a33=d))


def symbolic_heisenberg():
    """Heisenberg algebra twisted by a morphism with four symbolic entries."""
    a, b, c, d = (_symbol(n) for n in "abcd")
    return homlie.yau_twist(homlie.heisenberg(),
                            homlie.heisenberg_morphism(b, c, a, 0, 0, d))


def _symbolic_extension_checks(tag: str, L, braid_ns) -> list[Check]:
    ctx = {}

    def relations(n):
        if "B" not in ctx:
            ctx["B"] = homlie.braiding_on_extension(L)
            ctx["alpha"] = homlie.extended_alpha(L)
        return outcome_all(hybe.braid_relation_residuals(ctx["B"], ctx["alpha"], n))

    return [Check(f"{tag}/braid{n}", lambda n=n: relations(n)) for n in braid_ns]


def _yd_checks() -> list[Check]:
    """The Yetter-Drinfel'd galleries: condition, YBE, twisted identity for
    the identity and a symbolic diagonal alpha, and the corollary braidings."""
    one, zero = Scalar.one(), Scalar.zero()
    sign_action = [[[one, zero], [zero, one]], [[one, zero], [zero, -one]]]
    grading = [[[one, zero], [zero, zero]], [[zero, zero], [zero, one]]]
    qt = yd.trivial_qt(yd.group_bialgebra(2))
    dqt = yd.z2_bicharacter_dqt()
    galleries = [("z2", yd.z2_sign_module()),
                 ("qt", yd.comodule_from_qt(("v0", "v1"), sign_action, qt)),
                 ("dqt", yd.module_from_dqt(("v0", "v1"), grading, dqt))]
    checks = []
    for tag, V in galleries:
        ctx = {}
        candidates = [("id", tensor.LinearMap.identity(V.space)),
                      ("diag", tensor.LinearMap.diagonal(V.space, [_symbol("a"), _symbol("d")]))]

        def condition(V=V):
            res = yd.yd_condition_residual(V)
            bad = [pair for pair, mat in res if any(not s.is_zero() for row in mat for s in row)]
            return ("FAIL", bad[0]) if bad else (PASS if res else ("FAIL", "vacuous"))

        def ybe(V=V, ctx=ctx):
            ctx["B"] = yd.yd_braiding(V)
            return outcome(hybe.ybe_residual(ctx["B"]))

        checks += [Check(f"yd-{tag}/condition", condition), Check(f"yd-{tag}/ybe", ybe)]
        for name, alpha in candidates:
            def twisted(V=V, alpha=alpha, ctx=ctx):
                if not (yd.check_colinearity(alpha, V) and yd.check_linearity(alpha, V)):
                    return ("FAIL", "not a YD morphism")
                return outcome(hybe.hybe_residual(ctx["B"], alpha))
            checks.append(Check(f"yd-{tag}/hybe-{name}", twisted))
        if tag == "qt":
            checks.append(Check("yd-qt/tau-r", lambda ctx=ctx: outcome(
                ctx["B"] - yd.tau_r_operator(("v0", "v1"), sign_action, qt))))
        elif tag == "dqt":
            checks.append(Check("yd-dqt/direct", lambda ctx=ctx: outcome(
                ctx["B"] - yd.dqt_braiding_operator(("v0", "v1"), grading, dqt))))
    return checks


def _induced_symbolic_checks(pattern) -> list[Check]:
    """The closed-form induced solution of a pattern with symbolic entries:
    equal to the twist of bql(3), twisted-braid, and braid relations at n=4."""
    ca = quantum.CompatibleAlpha.symbolic(pattern)
    alpha = ca.to_linear_map()
    tag = f"induced-sym{pattern.column_rows}"
    ctx = {}

    def equals_twist():
        ctx["B"] = quantum.induced_solution(ca)
        return outcome(ctx["B"] - hybe.twist(quantum.bql(3), alpha))

    return [Check(f"{tag}/twist", equals_twist),
            Check(f"{tag}/hybe", lambda: outcome(hybe.hybe_residual(ctx["B"], alpha))),
            Check(f"{tag}/braid4", lambda: outcome_all(
                hybe.braid_relation_residuals(ctx["B"], alpha, 4)))]


def _induced_symbolic_control(pattern, row, col, delta) -> Check:
    ca = quantum.CompatibleAlpha.symbolic(pattern)

    def run():
        bad = perturb(quantum.induced_solution(ca), row, col, delta)
        return outcome(bad - hybe.twist(quantum.bql(3), ca.to_linear_map()))

    return Check(f"induced-sym{pattern.column_rows}/control", run, ("FAIL", col))


def build_symbolic(rng, smoke: bool) -> list[Check]:
    checks = []
    phi_alpha = tensor.LinearMap.diagonal(quantum.PHI_SPACE, [_symbol("a"), _symbol("d")])
    checks += _twist_checks("phi-sym", quantum.phi(), phi_alpha, (3,) if smoke else (4, 5))
    if not smoke:
        # The two nilpotent 2x2 shapes.
        for tag, rows in (("b", [[0, _symbol("b")], [0, 0]]), ("c", [[0, 0], [_symbol("c"), 0]])):
            alpha = tensor.LinearMap(quantum.PHI_SPACE, rows)
            checks += _twist_checks(f"phi-sym-{tag}", quantum.phi(), alpha, (4,))
        for N, ns in ((3, (4,)), (4, (3,))):
            diagonal = quantum.SupportPattern(N, {i: i for i in range(1, N + 1)})
            alpha = quantum.CompatibleAlpha.symbolic(diagonal).to_linear_map()
            checks += _twist_checks(f"bql{N}-sym", quantum.bql(N), alpha, ns)
    patterns = quantum.enumerate_patterns(3)
    if smoke:
        patterns = rng.sample(patterns, 2)
    for pattern in patterns:
        checks += _induced_symbolic_checks(pattern)
    for pattern in rng.sample(patterns, 1 if smoke else 6):
        checks.append(_induced_symbolic_control(pattern, *_site(rng, 9)))
    checks += _symbolic_extension_checks("ext-sl2star-sym", symbolic_sl2_star(),
                                         (3,) if smoke else (3, 4))
    if not smoke:
        checks += _symbolic_extension_checks("ext-heisenberg-sym", symbolic_heisenberg(), (3, 4))
    yd_checks = _yd_checks()
    checks += yd_checks[:4] if smoke else yd_checks
    return checks


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _mod_p(x: Fraction, p: int) -> int:
    return x.numerator * pow(x.denominator, -1, p) % p


def family_totals(p: int) -> dict[str, int]:
    """Morphism counts over F_p from the family formulas alone, no scan.

    Heisenberg: six free entries (a11 is the Y,Z-block determinant).
    Poincare: kind 1 has six free entries, kind 2 has a11 != 1 and two free
    entries.  sl(2): the distinct matrices of the four families, evaluated
    at every admissible residue triple and reduced mod p.
    """
    seen = {(0,) * 9}
    for a, b, c in itertools.product(range(p), repeat=3):
        if b and a * c % p == 0:
            for kind in (1, 2):
                m = homlie.sl2_morphism(kind, a, b, c)
                seen.add(tuple(_mod_p(s.constant_value(), p) for row in m.rows for s in row))
        if a and b and c not in (1, p - 1):
            m = homlie.sl2_morphism(3, a, b, c)
            seen.add(tuple(_mod_p(s.constant_value(), p) for row in m.rows for s in row))
    return {"heisenberg": p ** 6, "sl2_star": p ** 6 + (p - 1) * p ** 2, "sl2": len(seen)}


def pattern_count(N: int, p: int) -> int:
    """Size of the compatible accept set over F_p: choose k columns and k
    increasing rows, each carrying a nonzero entry."""
    return sum(comb(N, k) ** 2 * (p - 1) ** k for k in range(N + 1))


def _valid_residues(rng, p: int) -> tuple[int, int]:
    """q with q^2 != 1 and l != 0 mod p.  p = 3 has no such q (q = 2 is -1,
    where bql degenerates); that point is excluded, not benchmarked."""
    q = rng.choice([r for r in range(2, p) if r * r % p != 1])
    return q, rng.randrange(1, p)


def _classify_check(name: str, p: int, want: int) -> Check:
    runner = f"classify_{name}_finite_field"

    def run():
        report = getattr(homlie, runner)(p, strict=True)
        return (report.total_solutions, report.complete)
    return Check(f"classify-{name}-F{p}", run, (want, True), candidates=p ** 9)


def _accept_check(N: int, p: int, q: int, lam: int, ctx: dict) -> Check:
    def run():
        brute = quantum.brute_force_compatible_field(N, p, q, lam)
        ctx[(N, p)] = brute
        return (len(brute), brute == quantum.pattern_accept_set_field(N, p))
    return Check(f"accept-N{N}-F{p}-q{q}-l{lam}", run, (pattern_count(N, p), True),
                 candidates=p ** (N * N))


def build_scan(rng, smoke: bool) -> list[Check]:
    big_p = 3 if smoke else 5
    totals = family_totals(big_p)
    checks = [_classify_check(name, big_p, totals[name])
              for name in ("sl2", "heisenberg", "sl2_star")]
    ctx = {}
    if not smoke:
        checks.append(_accept_check(3, 5, *_valid_residues(rng, 5), ctx))
    primes = (5, 7) if smoke else (5, 7, 11, 13, 17)
    for p in primes:
        checks.append(_accept_check(2, p, *_valid_residues(rng, p), ctx))
    # Control: the brute-force set against the pattern set minus one seeded
    # member must compare unequal.
    p = rng.choice(primes)
    pick = rng.randrange(1 << 30)

    def control():
        brute = ctx[(2, p)]
        pats = quantum.pattern_accept_set_field(2, p)
        pats.discard(sorted(pats)[pick % len(pats)])
        return (len(brute), brute == pats)

    checks.append(Check(f"accept-N2-F{p}/control", control, (pattern_count(2, p), False)))
    return checks


def nominal_candidates(checks: list[Check]) -> int:
    """Sum of p^(N^2) over the scans a pass runs (a staged scan counts in full)."""
    return sum(c.candidates for c in checks)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _cli_check(name: str, argv: list[str], expect: tuple, out: Path | None = None,
               parse=None) -> Check:
    """One in-process ``hombrax`` command.  The observation is the exit code
    and either the last report line or ``parse(output file)``."""
    def run():
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        if out is None or not out.exists():
            return (code,)
        if parse is not None:
            return (code, parse(out))
        lines = out.read_text().splitlines()
        return (code, lines[-1] if lines else "")
    return Check(name, run, expect, cli=True)


def build_pipeline(rng, smoke: bool, workdir: Path) -> list[Check]:
    checks = []
    B, alpha = phi_pair(rng)
    degree = 3 if smoke else 5
    perms = [braid.Permutation(images)
             for images in itertools.permutations(range(1, degree + 1))]
    words = {g: (braid.reduced_word(g, "smallest"), braid.reduced_word(g, "largest"))
             for g in perms}
    for gamma in perms:
        def words_agree(gamma=gamma, w1=words[gamma][0], w2=words[gamma][1]):
            return outcome(braid.theta_operator(gamma, B, alpha, word=w1)
                           - braid.theta_operator(gamma, B, alpha, word=w2))
        checks.append(Check(f"theta{gamma.images}", words_agree))
    for gamma in rng.sample(perms, 1 if smoke else 9):
        row, col, delta = _site(rng, 2 ** degree)

        def control(gamma=gamma, w1=words[gamma][0], w2=words[gamma][1],
                    row=row, col=col, delta=delta):
            return outcome(braid.theta_operator(gamma, B, alpha, word=w1) - perturb(
                braid.theta_operator(gamma, B, alpha, word=w2), row, col, delta))
        checks.append(Check(f"theta{gamma.images}/control", control, ("FAIL", col)))

    def power2():
        b2, a2 = braid.tensor_power_solution(B, alpha, 2)
        return outcome(hybe.hybe_residual(b2, tensor.linear_map_from_op(a2)))

    checks.append(Check("tensor-power2/hybe", power2))
    if not smoke:
        def roundtrip3():
            b3, _ = braid.tensor_power_solution(B, alpha, 3)
            return outcome(tensor.op_loads(tensor.op_dumps(b3), b3.space) - b3)
        checks.append(Check("tensor-power3/json", roundtrip3))

    # CLI round trips through JSON files.
    def f(name: str) -> Path:
        return workdir / name

    a_txt, d_txt = str(alpha.rows[0][0]), str(alpha.rows[1][1])
    pair = f("pair.json")
    pair.write_text(json.dumps({"operator": tensor.op_to_json_dict(B),
                                "alpha": [[str(e) for e in row] for row in alpha.rows]}))
    gamma = braid.Permutation(rng.sample(range(1, 5), 4))
    theta_want = braid.theta_operator(gamma, B, alpha)
    power_want = braid.tensor_power_solution(B, alpha, 2)[0]

    def same_op(path: Path, want) -> bool:
        data = json.loads(path.read_text())
        return tensor.op_from_json_dict(data.get("operator", data), want.space) == want

    sl2_params = ",".join(str(x) for x in (0, *_rationals(rng, 2)))
    heis_params = ",".join(str(x) for x in _rationals(rng, 6))
    steps = [
        ("construct-phi", ["construct", "phi", "--out", f("phi.json")], (0,), None, None),
        ("verify-ybe-phi", ["verify", "ybe", "--in", f("phi.json"), "--out", f("r1.txt")],
         (0, "PASS ybe"), f("r1.txt"), None),
        ("braid-eval", ["braid", "eval", "--perm", ",".join(map(str, gamma.images)),
                        "--in", pair, "--out", f("eval.json")],
         (0, True), f("eval.json"), lambda p: same_op(p, theta_want)),
        ("yd-verify-z2", ["yd", "verify", "--gallery", "z2", "--out", f("r2.txt")],
         (0, "PASS yd"), f("r2.txt"), None),
        ("classify-compatible-F5", ["classify", "compatible", "--dim", "2", "--field", "5",
                                    "--out", f("r3.txt")],
         (0, "PASS field-agreement"), f("r3.txt"), None),
    ]
    if not smoke:
        steps += [
            ("verify-hybe-phi", ["verify", "hybe", "--in", f("phi.json"), "--alpha",
                                 "a,0;0,d", "--out", f("r4.txt")],
             (0, "PASS hybe (induced twist)"), f("r4.txt"), None),
            # phi itself is not a twisted solution for alpha: braid must FAIL.
            ("verify-braid-phi-alpha", ["verify", "braid", "--in", f("phi.json"),
                                        f"--alpha={a_txt},0;0,{d_txt}", "--n", "3",
                                        "--out", f("r5.txt")],
             (1, True), f("r5.txt"), lambda p: p.read_text().startswith("FAIL braid[")),
            ("construct-bql3", ["construct", "bql", "--dim", "3", "--out", f("bql3.json")],
             (0,), None, None),
            ("verify-ybe-bql3", ["verify", "ybe", "--in", f("bql3.json"), "--out", f("r6.txt")],
             (0, "PASS ybe"), f("r6.txt"), None),
            ("construct-heisenberg", ["construct", "homlie", "--algebra", "heisenberg",
                                      f"--params={heis_params}", "--out", f("heis.json")],
             (0,), None, None),
            ("verify-hom-jacobi-heisenberg", ["verify", "hom-jacobi", "--in", f("heis.json"),
                                              "--out", f("r7.txt")],
             (0, "PASS hom-jacobi"), f("r7.txt"), None),
            ("construct-sl2", ["construct", "homlie", "--algebra", "sl2", "--kind", "1",
                               f"--params={sl2_params}", "--out", f("sl2.json")],
             (0,), None, None),
            ("verify-hom-jacobi-sl2", ["verify", "hom-jacobi", "--in", f("sl2.json"),
                                       "--out", f("r8.txt")],
             (0, "PASS hom-jacobi"), f("r8.txt"), None),
            ("construct-tensor-power2", ["construct", "tensor-power", "--n", "2",
                                         "--out", f("tp.json")], (0,), None, None),
            ("verify-hybe-tensor-power2", ["verify", "hybe", "--in", f("tp.json"),
                                           "--out", f("r9.txt")],
             (0, "PASS hybe"), f("r9.txt"), None),
            ("braid-power2", ["braid", "power", "--n", "2", "--in", pair,
                              "--out", f("power.json")],
             (0, True), f("power.json"), lambda p: same_op(p, power_want)),
            ("yd-verify-trivial", ["yd", "verify", "--gallery", "trivial", "--out", f("r10.txt")],
             (0, "PASS yd"), f("r10.txt"), None),
            ("construct-yd-braiding", ["construct", "yd-braiding", "--gallery", "z2",
                                       "--out", f("ydb.json")], (0,), None, None),
            ("verify-ybe-yd", ["verify", "ybe", "--in", f("ydb.json"), "--out", f("r11.txt")],
             (0, "PASS ybe"), f("r11.txt"), None),
        ]
    for name, argv, expect, out, parse in steps:
        checks.append(_cli_check(f"cli/{name}", [str(a) for a in argv], expect, out, parse))
    return checks


# ---------------------------------------------------------------------------

WORKLOADS = ("rational", "symbolic", "scan", "pipeline")


def build(workload: str, seed: int, k: int, workdir: Path, smoke: bool = False) -> list[Check]:
    rng = random.Random(f"{workload}:{seed}:{k}:{'smoke' if smoke else 'full'}")
    if workload == "pipeline":
        return build_pipeline(rng, smoke, workdir)
    builders = {"rational": build_rational, "symbolic": build_symbolic, "scan": build_scan}
    return builders[workload](rng, smoke)
