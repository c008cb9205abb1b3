"""Per-layer metrics, and the traced run that measures them.

A traced run of workload W makes one untraced pass of W, then the same pass
traced (their verdicts must agree; the wall-time ratio is the tracing
overhead), then a traced smoke-size pass of every other workload, then the
kernel micro-benchmarks.  Each metric below names its home workloads: it is
read from W's traced pass when W is one of them, and otherwise from the
smoke pass of its first home, so every metric is measured on a workload that
loads its layer.  The last column is the end-to-end metric a change to the
layer should move, on those workloads.
"""

from __future__ import annotations

import micro
import spans
import workloads

WORKLOADS = workloads.WORKLOADS
MICRO = None  # value comes from micro.py, not from the spans


def _total(name):
    return lambda s: s.total_s(name)


def _self(name):
    return lambda s: s.self_s(name)


def _calls(name):
    return lambda s: s.calls[name]


def _sum(key):
    return lambda s: s.sums[key]


def _per(child, parent):
    return lambda s: s.nested[(parent, child)] / max(1, s.calls[parent])


R, S, SC, P = "rational", "symbolic", "scan", "pipeline"

# (metric, unit, home workloads, end-to-end metric it should move, extractor)
LAYER_METRICS = [
    ("scalars.mul_rational_ns", "ns", (R, P), "wall_s", MICRO),
    ("scalars.add_rational_ns", "ns", (R, P), "wall_s", MICRO),
    ("scalars.mul_laurent_ns", "ns", (S,), "wall_s", MICRO),
    ("scalars.add_laurent_ns", "ns", (S,), "wall_s", MICRO),
    ("scalars.parse_ns", "ns", (P,), "verdict_p50_ms", MICRO),
    ("scalars.str_ns", "ns", (P,), "verdict_p50_ms", MICRO),
    ("scalars.mul_calls", "count", (R, S), "wall_s", _sum("scalars.mul_calls")),
    ("scalars.add_calls", "count", (R, S), "wall_s", _sum("scalars.add_calls")),
    ("tensor.compose_s", "s", (R, S, P), "wall_s", _total("tensor.compose")),
    ("tensor.compose_calls", "count", (R, S, P), "wall_s", _calls("tensor.compose")),
    ("tensor.compose_out_nnz", "count", (R, S, P), "wall_s", _sum("tensor.compose_out_nnz")),
    ("tensor.compose256_rational_s", "s", (R,), "wall_s", MICRO),
    ("tensor.compose_laurent_s", "s", (S,), "wall_s", MICRO),
    ("tensor.invert_s", "s", (R,), "wall_s", _total("tensor.invert")),
    ("tensor.invert_calls", "count", (R,), "wall_s", _calls("tensor.invert")),
    ("tensor.invert64_rational_s", "s", (R,), "wall_s", MICRO),
    ("tensor.tensor_product_s", "s", (P,), "verdict_p50_ms", _total("tensor.tensor_product")),
    ("tensor.lift_s", "s", (P,), "verdict_p50_ms", _total("tensor.lift")),
    ("tensor.tensor_product_calls", "count", (P,), "verdict_p50_ms",
     _calls("tensor.tensor_product")),
    ("tensor.op_dumps_s", "s", (P,), "verdict_p90_ms", _total("tensor.op_dumps")),
    ("tensor.op_loads_s", "s", (P,), "verdict_p90_ms", _total("tensor.op_loads")),
    ("hybe.hybe_residual_s", "s", (R, S), "wall_s", _self("hybe.hybe_residual")),
    ("hybe.hybe_residual_calls", "count", (R, S), "wall_s", _calls("hybe.hybe_residual")),
    ("hybe.compatibility_residual_s", "s", (R, S), "wall_s",
     _total("hybe.compatibility_residual")),
    ("hybe.ybe_residual_s", "s", (S, R), "wall_s", _total("hybe.ybe_residual")),
    ("hybe.braid_relation_residuals_s", "s", (R, S), "wall_s",
     _total("hybe.braid_relation_residuals")),
    ("hybe.twist_s", "s", (S, R), "wall_s", _total("hybe.twist")),
    ("hybe.build_Bi_s", "s", (P,), "verdict_p50_ms", _total("hybe.build_Bi")),
    ("hybe.build_Bi_calls", "count", (P,), "verdict_p50_ms", _calls("hybe.build_Bi")),
    ("braid.theta_operator_s", "s", (P,), "wall_s", _total("braid.theta_operator")),
    ("braid.theta_operator_calls", "count", (P,), "wall_s", _calls("braid.theta_operator")),
    ("braid.tensor_power_solution_s", "s", (P,), "wall_s",
     _total("braid.tensor_power_solution")),
    ("braid.hybe_per_theta", "ratio", (P,), "verdict_p50_ms",
     _per("hybe.hybe_residual", "braid.theta_operator")),
    ("braid.build_Bi_per_theta", "ratio", (P,), "verdict_p50_ms",
     _per("hybe.build_Bi", "braid.theta_operator")),
    ("quantum.brute_force_s", "s", (SC,), "wall_s", _total("quantum.brute_force")),
    ("quantum.pattern_accept_set_s", "s", (SC,), "wall_s", _total("quantum.pattern_accept_set")),
    ("quantum.candidates", "count", (SC,), "wall_s", _sum("quantum.candidates")),
    ("quantum.accepted", "count", (SC,), "wall_s", _sum("quantum.accepted")),
    ("quantum.accept_ratio", "ratio", (SC,), "wall_s",
     lambda s: s.sums["quantum.accepted"] / max(1, s.sums["quantum.candidates"])),
    ("quantum.induced_solution_s", "s", (S,), "wall_s", _total("quantum.induced_solution")),
    ("homlie.morphism_scan_s", "s", (SC,), "wall_s", _total("homlie.morphism_scan")),
    ("homlie.classify_s", "s", (SC,), "wall_s", _total("homlie.classify")),
    ("homlie.classify_self_s", "s", (SC,), "wall_s", _self("homlie.classify")),
    ("homlie.solutions", "count", (SC,), "wall_s", _sum("homlie.solutions")),
    ("homlie.extension_build_s", "s", (R,), "verdict_p50_ms", _total("homlie.extension_build")),
    ("homlie.validate_calls", "count", (R,), "verdict_p50_ms", _calls("homlie.validate")),
    ("yd.condition_residual_s", "s", (S,), "wall_s", _total("yd.condition_residual")),
    ("yd.braiding_s", "s", (S,), "wall_s", _total("yd.braiding")),
    ("runtime.map_chunks_s", "s", (SC,), "wall_s", _total("runtime.map_chunks")),
    ("runtime.chunks", "count", (SC,), "wall_s", _sum("runtime.chunks")),
    ("runtime.workers", "count", (SC,), "peak_rss_mb", _sum("runtime.workers")),
    ("cli.construct_s", "s", (P,), "verdict_p90_ms", _total("cli.construct")),
    ("cli.verify_s", "s", (P,), "verdict_p90_ms", _total("cli.verify")),
    ("cli.braid_s", "s", (P,), "verdict_p90_ms", _total("cli.braid")),
    ("cli.classify_s", "s", (P,), "verdict_p90_ms", _total("cli.classify")),
    ("cli.yd_s", "s", (P,), "verdict_p90_ms", _total("cli.yd")),
    ("cli.exit_code_mismatches", "count", (P,), "verdict_p90_ms",
     _sum("cli.exit_code_mismatches")),
    ("candidates_per_s", "1/s", (SC,), "wall_s",
     lambda s: s.sums["nominal_candidates"] / s.wall_s),
]

# Measured on W's own passes, whatever W is: traced wall over untraced wall
# minus 1, and the share of the traced wall that outermost spans cover.
OWN_METRICS = [
    ("trace.overhead", "ratio"),
    ("trace.top_coverage", "ratio"),
]

# Every other per-layer metric is better lower.
HIGHER_IS_BETTER = {"quantum.candidates", "quantum.accepted", "quantum.accept_ratio",
                    "homlie.solutions", "runtime.workers", "candidates_per_s",
                    "trace.top_coverage"}


def declared() -> list[dict]:
    """The per_layer entries of BENCHMARK.json."""
    return [{"name": name, "unit": unit,
             "better": "higher" if name in HIGHER_IS_BETTER else "lower"}
            for name, unit, *_ in LAYER_METRICS + OWN_METRICS]


def _stats(tracer, result, checks) -> spans.SpanStats:
    tracer.sums["cli.exit_code_mismatches"] = result.cli_exit_mismatches
    tracer.sums["nominal_candidates"] = workloads.nominal_candidates(checks)
    return spans.SpanStats(tracer.spans, tracer.sums, result.wall_s)


def _coverage(workload, tracer, stats) -> list[str]:
    problems = [f"{workload}: no span recorded for {name}"
                for name in workloads.EXPECTED_SPANS[workload]
                if not (stats.calls[name] or stats.sums[name])]
    missing = set(spans.REQUIRED_BINDINGS) - tracer.bindings
    problems += [f"binding {mod}.{name} was not wrapped" for mod, name in sorted(missing)]
    problems += [f"{name} still wrapped after restore" for name in tracer.still_wrapped()]
    return problems


def _pair(workload: str, seed: int, one_pass, smoke: bool) -> tuple:
    """Pass 0 untraced, then traced: (untraced, traced, stats, problems)."""
    plain, _ = one_pass(workload, seed, 0, smoke=smoke)
    tracer = spans.Tracer(workload)
    traced, checks = one_pass(workload, seed, 0, smoke=smoke, tracer=tracer)
    stats = _stats(tracer, traced, checks)
    problems = _coverage(workload, tracer, stats)
    if plain.observed != traced.observed:
        problems.append(f"{workload}: traced verdicts differ from untraced")
    return plain, traced, stats, problems


def smoke_check(workload: str, seed: int, one_pass) -> list[str]:
    plain, traced, _, problems = _pair(workload, seed, one_pass, smoke=True)
    return problems + plain.failures + traced.failures


def traced_run(workload: str, seed: int, one_pass) -> tuple:
    plain, traced, own, problems = _pair(workload, seed, one_pass, smoke=False)
    stats, passes = {workload: own}, [plain, traced]
    for other in WORKLOADS:
        if other != workload:
            *more, stats[other], extra = _pair(other, seed, one_pass, smoke=True)
            passes += more
            problems += extra
    values = micro.scalar_ops(seed)
    kernel_values, sizes = micro.kernels(seed)
    values.update(kernel_values)

    metrics = {}
    for name, unit, homes, _, extract in LAYER_METRICS:
        if extract is MICRO:
            metrics[name] = (values[name], unit)
        else:
            metrics[name] = (extract(stats[workload if workload in homes else homes[0]]), unit)
    metrics["trace.overhead"] = (traced.wall_s / plain.wall_s - 1.0, "ratio")
    metrics["trace.top_coverage"] = (own.top_ns / 1e9 / traced.wall_s, "ratio")
    detail = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
              "spans": sum(own.calls.values()), "span_table": own.table(),
              "micro_sizes": sizes}
    return passes, metrics, detail, problems
