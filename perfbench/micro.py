"""Kernel micro-benchmarks on operands drawn from the workloads' own operators.

Each pool comes from pass 0 of a workload at the run's seed, so a per-layer
gain measured here can be traced to the end-to-end numbers of that workload.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter, perf_counter_ns

from hombrax import braid, homlie, hybe, quantum, scalars, tensor

import workloads

PAIRS = 4000
REPEATS = 5


def _entries(ops) -> list:
    return [s for op in ops for col in op.columns for _, s in col]


def rational_operators(seed: int) -> list:
    """The shapes of ``rational``: extension braidings, their inverses, the phi pair."""
    rng = random.Random(f"rational:{seed}:0:full")
    ops = []
    for make in (lambda r: workloads._heisenberg_instance(r, full=False),
                 workloads._sl2_star_instance, workloads._sl2_instance):
        L = make(rng)
        ops += [homlie.braiding_on_extension(L), homlie.braiding_inverse_on_extension(L)]
    B, alpha = workloads.phi_pair(rng)
    return ops + [B, braid.tensor_power_solution(B, alpha, 2)[0]]


def symbolic_operators() -> list:
    """The symbolic workload's twisted braidings (phi, bql(3), sl2* extension)."""
    a, d = scalars.Scalar.param("a"), scalars.Scalar.param("d")
    phi_alpha = tensor.LinearMap.diagonal(quantum.PHI_SPACE, [a, d])
    ops = [hybe.twist(quantum.phi(), phi_alpha)]
    for pattern in quantum.maximal_patterns(3):
        ca = quantum.CompatibleAlpha.symbolic(pattern)
        ops.append(quantum.induced_solution(ca))
    ops.append(homlie.braiding_on_extension(workloads.symbolic_sl2_star()))
    return ops


def pipeline_operators(seed: int) -> list:
    """theta operators of the pipeline's (B, alpha) pair: what the CLI writes as text."""
    rng = random.Random(f"pipeline:{seed}:0:full")
    B, alpha = workloads.phi_pair(rng)
    gammas = [braid.Permutation(rng.sample(range(1, 6), 5)) for _ in range(4)]
    return [braid.theta_operator(g, B, alpha) for g in gammas]


def _per_op_ns(fn, pool_pairs) -> float:
    """Median over REPEATS of the mean ns per call of fn over the pool."""
    samples = []
    for _ in range(REPEATS):
        start = perf_counter_ns()
        for x, y in pool_pairs:
            fn(x, y)
        samples.append((perf_counter_ns() - start) / len(pool_pairs))
    return statistics.median(samples)


def _pairs(pool, rng) -> list:
    return [(rng.choice(pool), rng.choice(pool)) for _ in range(PAIRS)]


def scalar_ops(seed: int) -> dict:
    rng = random.Random(f"micro:{seed}")
    out = {}
    for kind, pool in (("rational", _entries(rational_operators(seed))),
                       ("laurent", [s for s in _entries(symbolic_operators())
                                    if not s.is_rational()])):
        pairs = _pairs(pool, rng)
        out[f"scalars.mul_{kind}_ns"] = _per_op_ns(lambda x, y: x * y, pairs)
        out[f"scalars.add_{kind}_ns"] = _per_op_ns(lambda x, y: x + y, pairs)
    pool = _entries(pipeline_operators(seed))
    texts = [(str(s), None) for s in pool]
    out["scalars.str_ns"] = _per_op_ns(lambda s, _: str(s), [(s, None) for s in pool])
    out["scalars.parse_ns"] = _per_op_ns(lambda t, _: scalars.parse_scalar(t), texts)
    return out


def _timed(fn) -> tuple[float, object]:
    start = perf_counter()
    result = fn()
    return perf_counter() - start, result


def _strand_triple(B, alpha):
    """B1 B2 B1 at n = 4: the shape of the braid relations on a 4-dim extension."""
    b1 = hybe.build_Bi(B, alpha, 4, 1)
    b2 = hybe.build_Bi(B, alpha, 4, 2)
    return lambda: tensor.compose(b1, tensor.compose(b2, b1)), b1


def kernels(seed: int) -> tuple[dict, dict]:
    """The 256x256 compose (rational and Laurent) and the 64-dim exact inverse."""
    rng = random.Random(f"rational:{seed}:0:full")
    L = workloads._heisenberg_instance(rng)
    run, b1 = _strand_triple(homlie.braiding_on_extension(L), homlie.extended_alpha(L))
    rational_s, out = _timed(run)
    L = workloads.symbolic_sl2_star()
    run_sym, _ = _strand_triple(homlie.braiding_on_extension(L), homlie.extended_alpha(L))
    laurent_s, _ = _timed(run_sym)
    B, alpha = workloads.phi_pair(random.Random(f"rational:{seed}:0:full:phi"))
    b3, _ = braid.tensor_power_solution(B, alpha, 3)
    invert_s, inv = _timed(lambda: tensor.invert(b3))
    if tensor.compose(b3, inv) != tensor.identity_op(b3.space, 2):
        raise AssertionError("micro-benchmark inverse is wrong")
    sizes = {"compose256_dim": b1.total_dim,
             "compose256_in_nnz": sum(len(c) for c in b1.columns),
             "compose256_out_nnz": sum(len(c) for c in out.columns),
             "invert64_dim": b3.total_dim}
    return {"tensor.compose256_rational_s": rational_s,
            "tensor.compose_laurent_s": laurent_s,
            "tensor.invert64_rational_s": invert_s}, sizes
