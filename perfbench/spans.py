"""Spans recorded from outside hombrax, around the calls into each layer.

The library has no tracing of its own, so the benchmark patches a wrapper
onto every binding of each layer function listed in ``WRAPS``.  Several
modules import kernels by name (``from hombrax.tensor import compose``), so
patching ``hombrax.tensor.compose`` alone would miss the calls those modules
make; ``install`` therefore replaces the original object wherever it is
bound, in every loaded ``hombrax`` module and in the attribute dicts of the
classes that own it (which also catches aliases such as
``Scalar.__rmul__ = __mul__``).  ``Tracer.restore`` puts every binding back.

Scalar arithmetic runs millions of times per pass, so it is counted, not
spanned.  Every other wrapped call records one span: name, start, end,
parent span, workload and verdict id.  Spans stay in memory until the run
reports.
"""

from __future__ import annotations

import importlib
import sys
import threading
from collections import Counter
from time import perf_counter_ns

# (span name, defining module, attribute path).  A dotted path names a
# method on a class of that module.
WRAPS = [
    ("tensor.compose", "hombrax.tensor", "compose"),
    ("tensor.tensor_product", "hombrax.tensor", "tensor_product"),
    ("tensor.lift", "hombrax.tensor", "lift"),
    ("tensor.invert", "hombrax.tensor", "invert"),
    ("tensor.identity_op", "hombrax.tensor", "identity_op"),
    ("tensor.power", "hombrax.tensor", "power"),
    ("tensor.op_dumps", "hombrax.tensor", "op_dumps"),
    ("tensor.op_dumps", "hombrax.tensor", "op_to_json_dict"),
    ("tensor.op_loads", "hombrax.tensor", "op_loads"),
    ("tensor.op_loads", "hombrax.tensor", "op_from_json_dict"),
    ("hybe.compatibility_residual", "hombrax.hybe", "compatibility_residual"),
    ("hybe.ybe_residual", "hombrax.hybe", "ybe_residual"),
    ("hybe.hybe_residual", "hombrax.hybe", "hybe_residual"),
    ("hybe.twist", "hombrax.hybe", "twist"),
    ("hybe.build_Bi", "hombrax.hybe", "build_Bi"),
    ("hybe.braid_relation_residuals", "hombrax.hybe", "braid_relation_residuals"),
    ("braid.theta_operator", "hombrax.braid", "theta_operator"),
    ("braid.tensor_power_solution", "hombrax.braid", "tensor_power_solution"),
    ("quantum.brute_force", "hombrax.quantum", "brute_force_compatible_field"),
    ("quantum.pattern_accept_set", "hombrax.quantum", "pattern_accept_set_field"),
    ("quantum.induced_solution", "hombrax.quantum", "induced_solution"),
    ("homlie.morphism_scan", "hombrax.homlie", "morphism_matrices_mod_p"),
    ("homlie.morphism_scan", "hombrax.homlie", "_sl2_equation_solutions_mod_p"),
    ("homlie.classify", "hombrax.homlie", "classify_sl2_finite_field"),
    ("homlie.classify", "hombrax.homlie", "classify_heisenberg_finite_field"),
    ("homlie.classify", "hombrax.homlie", "classify_sl2_star_finite_field"),
    ("homlie.extension_build", "hombrax.homlie", "braiding_on_extension"),
    ("homlie.extension_build", "hombrax.homlie", "braiding_inverse_on_extension"),
    ("homlie.validate", "hombrax.homlie", "HomLieAlgebra.validate"),
    ("yd.condition_residual", "hombrax.yd", "yd_condition_residual"),
    ("yd.braiding", "hombrax.yd", "yd_braiding"),
    ("runtime.map_chunks", "hombrax.runtime", "map_chunks"),
    ("cli.construct", "hombrax.cli", "cmd_construct"),
    ("cli.verify", "hombrax.cli", "cmd_verify"),
    ("cli.braid", "hombrax.cli", "cmd_braid"),
    ("cli.classify", "hombrax.cli", "cmd_classify"),
    ("cli.yd", "hombrax.cli", "cmd_yd"),
]

# Counted, not spanned: (counter name, module, attribute path).
COUNTS = [
    ("scalars.mul", "hombrax.scalars", "Scalar.__mul__"),
    ("scalars.add", "hombrax.scalars", "Scalar.__add__"),
]

# By-name imports that a wrapper on the defining module alone would miss.
# ``install`` must replace each of these; the self-test checks that it did.
REQUIRED_BINDINGS = [
    (mod, name)
    for mod, names in {
        "hombrax.hybe": ("compose", "tensor_product", "lift", "identity_op"),
        "hombrax.braid": ("compose", "identity_op", "invert", "lift", "power",
                          "build_Bi", "hybe_residual"),
        "hombrax.quantum": ("compose", "lift", "map_chunks"),
        "hombrax.homlie": ("map_chunks",),
        "hombrax": ("compose", "tensor_product", "lift", "invert",
                    "identity_op", "power", "hybe_residual", "build_Bi"),
    }.items()
    for name in names
] + [("hombrax.scalars:Scalar", name)
     for name in ("__mul__", "__rmul__", "__add__", "__radd__")]

LIBRARY_MODULES = ("hombrax", "hombrax.scalars", "hombrax.tensor", "hombrax.hybe",
                   "hombrax.quantum", "hombrax.homlie", "hombrax.braid",
                   "hombrax.yd", "hombrax.runtime", "hombrax.cli")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _note_brute_force(tracer, args, kwargs, result):
    N, p = args[0], args[1]
    tracer.sums["quantum.candidates"] += p ** (N * N)
    tracer.sums["quantum.accepted"] += len(result)


def _note_morphism_scan(tracer, args, kwargs, result):
    tracer.sums["homlie.solutions"] += int(result.shape[0])


def _note_map_chunks(tracer, args, kwargs, result):
    from hombrax.runtime import worker_count
    tracer.sums["runtime.chunks"] += len(args[1])
    tracer.sums["runtime.workers"] = max(tracer.sums["runtime.workers"],
                                         worker_count())


def _note_compose(tracer, args, kwargs, result):
    tracer.sums["tensor.compose_out_nnz"] += sum(len(col) for col in result.columns)


NOTES = {
    "quantum.brute_force": _note_brute_force,
    "homlie.morphism_scan": _note_morphism_scan,
    "runtime.map_chunks": _note_map_chunks,
    "tensor.compose": _note_compose,
}


class Tracer:
    """Holds the spans and counters of one traced pass and the patches that feed them."""

    def __init__(self, workload: str):
        self.workload = workload
        self.verdict = None
        self.spans: list = []
        self.sums: Counter = Counter()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._restored: list[tuple[object, str, object]] = []
        self.bindings: set[tuple[str, str]] = set()

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, local, note = self.spans, self._local, NOTES.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.workload, tracer.verdict)
            if note is not None:
                note(tracer, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        sums = self.sums
        key = name + "_calls"

        def wrapper(*args):
            sums[key] += 1
            return fn(*args)

        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of each wrapped object; ``restore`` undoes it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        plan = [(name, *_resolve(mod, path), self._span_wrapper) for name, mod, path in WRAPS]
        plan += [(name, *_resolve(mod, path), self._count_wrapper)
                 for name, mod, path in COUNTS]
        namespaces = [m for name in LIBRARY_MODULES if (m := sys.modules.get(name))]
        for name, owner, attr, orig, make in plan:
            wrapper = make(name, orig)
            targets = list(namespaces)
            if isinstance(owner, type):
                targets.append(owner)
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is orig:
                        self._patched.append((target, key, orig))
                        setattr(target, key, wrapper)
        self.bindings = {(f"{t.__module__}:{t.__name__}" if isinstance(t, type) else t.__name__, key)
                         for t, key, _ in self._patched}

    def restore(self) -> None:
        for target, key, orig in reversed(self._patched):
            setattr(target, key, orig)
        self._restored, self._patched = self._patched, []

    def still_wrapped(self) -> list[str]:
        """Bindings that ``restore`` did not put back."""
        return [f"{getattr(t, '__name__', t)}.{key}" for t, key, orig in self._restored
                if getattr(t, key) is not orig]


class SpanStats:
    """Aggregates over the spans of one pass: inclusive, self and call counts."""

    def __init__(self, spans: list, sums: Counter, wall_s: float):
        self.sums = sums
        self.wall_s = wall_s
        n = len(spans)
        child_ns = [0] * n
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.top_ns = 0
        # Calls of `child` made (at any depth) inside a span named `ancestor`.
        self.nested: Counter = Counter()
        for idx, (name, start, end, parent, *_) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.self_ns[name] += dur - child_ns[idx]
            if parent < 0:
                self.top_ns += dur
            seen = set()
            p = parent
            while p >= 0:
                seen.add(spans[p][0])
                p = spans[p][3]
            for ancestor in seen:
                self.nested[(ancestor, name)] += 1
            if name not in seen:  # outermost span of this name: no double counting
                self.total_ns[name] += dur

    def total_s(self, name: str) -> float:
        return self.total_ns[name] / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def table(self) -> dict:
        return {name: {"calls": self.calls[name],
                       "total_s": round(self.total_s(name), 6),
                       "self_s": round(self.self_s(name), 6)}
                for name in sorted(self.calls)}
