"""Exact-verification benchmark for hombrax.

    python3 perfbench/run.py --workload rational --seed 1 --seconds 60 --trace 0

Runs one seeded workload against the library in ``src/`` of the checkout
this file sits in, checks every verdict against its expected outcome, and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics (see perfbench/BENCHMARK.md).  The line before it is a JSON record
of the environment and the raw samples.  Load model: closed loop, one
client; the library's scan threads (HOMBRAX_THREADS, pinned per workload)
are the only concurrency.  ``--selftest`` runs every workload at smoke size,
traced and untraced, and checks the wrappers.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROCESSES = 11
# Every workload can be run; BENCHMARK.json declares the two that between them
# load every layer (perfbench/BENCHMARK.md says why not all four).  Traced runs
# measure the layers of the other two on a smoke-size pass of each.
WORKLOADS = ("rational", "symbolic", "scan", "pipeline")
DECLARED = ("rational", "pipeline")
END_TO_END = {"setup_s": "s", "wall_s": "s", "verdict_p50_ms": "ms", "verdict_p90_ms": "ms",
              "peak_rss_mb": "MB"}
# HOMBRAX_THREADS per workload: only the scan workload runs threaded code.
THREADS = {"rational": 1, "symbolic": 1, "scan": 2, "pipeline": 1}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _import_library():
    if not (SRC / "hombrax" / "__init__.py").is_file():
        _fail(f"no hombrax sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import hombrax
    if Path(hombrax.__file__).resolve().parent != (SRC / "hombrax").resolve():
        _fail(f"imported hombrax from {hombrax.__file__}, not from {SRC}")
    return hombrax


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    return {"nproc": _nproc(), "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "HOMBRAX_THREADS": os.environ.get("HOMBRAX_THREADS"),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED")}


# ---------------------------------------------------------------------------
# Running passes.
# ---------------------------------------------------------------------------

class Pass:
    """Outcome of one pass over a workload's verdicts."""

    def __init__(self):
        self.wall_s = 0.0
        self.latencies_ms: list[float] = []
        self.observed: list = []
        self.failures: list[str] = []
        self.cli_exit_mismatches = 0
        self.attempted = 0


def run_checks(checks, tracer=None) -> Pass:
    result = Pass()
    clock = time.perf_counter
    first = clock()
    for vid, check in enumerate(checks):
        if tracer is not None:
            tracer.verdict = vid
        start = clock()
        try:
            observed = check.run()
        except Exception as exc:  # a raising check is a failed verdict, not a crash
            observed = ("EXCEPTION", type(exc).__name__, str(exc)[:200])
        result.latencies_ms.append((clock() - start) * 1e3)
        result.observed.append(observed)
        if observed != check.expect:
            result.failures.append(f"{check.name}: got {observed!r}, want {check.expect!r}")
        if check.cli and observed[0] != check.expect[0]:
            result.cli_exit_mismatches += 1
    result.wall_s = clock() - first
    result.attempted = len(checks)
    if tracer is not None:
        tracer.verdict = None
    return result


def one_pass(workload: str, seed: int, k: int, smoke: bool = False, tracer=None) -> tuple:
    """Build pass k's inputs (untimed), then time its verdicts."""
    from workloads import build
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        checks = build(workload, seed, k, workdir, smoke)
        gc.collect()  # every pass starts without garbage left by the previous one
        if tracer is not None:
            tracer.install()
        try:
            result = run_checks(checks, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result, checks


def measure_setup(args) -> float:
    """One fresh-process set-up time: import hombrax plus building pass 0's inputs."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        _fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def setup_probe(args) -> None:
    start = time.perf_counter()
    _import_library()
    from workloads import build
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        build(args.workload, args.seed, 0, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{time.perf_counter() - start:.9f}")


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method) of the samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args) -> dict:
    from workloads import nominal_candidates
    # The set-up probes run between passes, spread over the run, so that
    # their median, like the slot minima below, is taken across the run
    # rather than over its first seconds.
    setup = [measure_setup(args)]
    passes, candidates = [], 0
    begin = time.perf_counter()
    k = 0
    while True:
        result, checks = one_pass(args.workload, args.seed, k)
        passes.append(result)
        candidates += nominal_candidates(checks)
        k += 1
        walls = [p.wall_s for p in passes]
        while (len(setup) < SETUP_PROCESSES
               and time.perf_counter() - begin >= len(setup) * args.seconds / SETUP_PROCESSES):
            setup.append(measure_setup(args))
        # Stop before a pass that would end past --seconds.
        if time.perf_counter() - begin + statistics.median(walls) > args.seconds:
            break
    setup += [measure_setup(args) for _ in range(SETUP_PROCESSES - len(setup))]
    # Slot i holds the same kind of verdict in every pass.  Its latency is the
    # minimum over the run's passes: on a shared host the vCPU runs up to
    # half as fast as its full speed for milliseconds to minutes at a time,
    # and a short verdict timed once per pass over a minute meets full speed
    # in some pass, where a median over passes or a whole pass would follow
    # the slow stretches.  The percentiles are taken over the slots, a fixed
    # sample per workload, and wall_s is the pass made of every slot at that
    # latency.
    slots = [min(slot) for slot in zip(*(p.latencies_ms for p in passes))]
    values = {"setup_s": statistics.median(setup), "wall_s": math.fsum(slots) / 1e3,
              "verdict_p50_ms": quantile(slots, 50), "verdict_p90_ms": quantile(slots, 90),
              "peak_rss_mb": peak_rss_mb()}
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    detail = {"setup_s": setup, "pass_wall_s": walls, "verdict_slot_ms": slots,
              "verdicts_per_pass": [p.attempted for p in passes],
              "nominal_candidates": candidates,
              "cli_exit_code_mismatches": sum(p.cli_exit_mismatches for p in passes)}
    return _result(passes, metrics, detail)


def _result(passes, metrics, detail, extra_failures=()) -> dict:
    failures = [f for p in passes for f in p.failures] + list(extra_failures)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes) + len(extra_failures)
    detail["failures"] = failures[:20]
    return {"detail": detail,
            "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in metrics.items()}}}


def traced(args) -> dict:
    """Per-layer metrics: see layers.py for what each is and where it comes from."""
    import layers
    passes, metrics, detail, problems = layers.traced_run(args.workload, args.seed, one_pass)
    return _result(passes, metrics, detail, problems)


def declaration_problems(layers) -> list[str]:
    """Differences between BENCHMARK.json and the metrics this script reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(DECLARED):
        problems.append("workload names differ")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END:
        problems.append("end_to_end metrics differ")
    if [{k: m[k] for k in ("name", "unit", "better")} for m in spec["per_layer"]] \
            != layers.declared():
        problems.append("per_layer metrics differ")
    return problems


def selftest() -> int:
    import layers
    problems = declaration_problems(layers)
    print(f"{'PASS' if not problems else 'FAIL'} selftest BENCHMARK.json")
    for line in problems:
        print(f"  {line}")
    ok = not problems
    for workload in layers.WORKLOADS:
        problems = layers.smoke_check(workload, seed=1, one_pass=one_pass)
        print(f"{'PASS' if not problems else 'FAIL'} selftest {workload}")
        for line in problems:
            print(f"  {line}")
        ok = ok and not problems
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    threads = 1 if args.selftest else THREADS[args.workload]
    if threads > _nproc():
        _fail(f"HOMBRAX_THREADS={threads} exceeds nproc={_nproc()}")
    want = {"PYTHONHASHSEED": "0", "HOMBRAX_THREADS": str(threads)}
    if any(os.environ.get(k) != v for k, v in want.items()):
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())]
                  + (sys.argv[1:] if argv is None else list(argv)), {**os.environ, **want})

    if args.setup_probe:
        setup_probe(args)
        return 0
    _import_library()
    if args.selftest:
        return selftest()
    out = traced(args) if args.trace else end_to_end(args)
    out["detail"]["env"] = environment()
    out["detail"]["workload"], out["detail"]["seed"] = args.workload, args.seed
    print(json.dumps(out["detail"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
