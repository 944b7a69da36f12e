"""Span tracing of smaralg's layers from outside the program.

``Tracer.install`` replaces the public functions of each layer module
with wrappers, by setting module attributes at run time; nothing in
``src/`` changes.  Calls between modules (``ratmat.mat_mul(...)``) and
within a module (a global name lookup) both go through the module's
namespace, so both are seen.  Functions called once per search
candidate or per output entry only count their calls: a span there
would cost more than the work it measures.

Spans are kept in flat arrays while the benchmark runs and written out
at the end; the per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ["cli", "ringcore", "polylab", "econ", "linalg", "gfmat", "semigroup",
          "ratmat", "intpoly", "semivector"]

COUNT_ONLY = {
    ("semivector", "combine"),
    ("ratmat", "frac_to_json"),
    ("ratmat", "frac_from_json"),
    ("intpoly", "poly_eval"),
    ("gfmat", "poly_eval_mod"),
}

# Function groups reported by inclusive time: (metric, layer, functions).
GROUP_TIMES = [
    ("cli.build_parser_ms", "cli", {"build_parser"}),
    ("cli.main_ms", "cli", {"main"}),
    ("gfmat.elim_ms", "gfmat", {"rref_mod", "nullspace_mod", "inverse_mod", "det_mod"}),
    ("gfmat.charpoly_mod_ms", "gfmat", {"charpoly_mod"}),
    ("gfmat.int_det_ms", "gfmat", {"int_det"}),
    ("semigroup.decompose_invariants_ms", "semigroup", {"decompose_invariants"}),
    ("semigroup.rep_isomorphic_ms", "semigroup", {"rep_isomorphic"}),
    ("semigroup.table_ms", "semigroup", {"validate_table", "find_subgroups"}),
    ("ratmat.rref_ms", "ratmat", {"rref"}),
    ("ratmat.mat_mul_ms", "ratmat", {"mat_mul"}),
    ("intpoly.factor_monic_ms", "intpoly", {"factor_monic"}),
    ("semivector.span_membership_ms", "semivector", {"span_membership"}),
    ("semivector.enumerate_representations_ms", "semivector", {"enumerate_representations"}),
]

# Layer self time; ringcore, polylab and econ keep the short names.
SELF_TIMES = [
    ("cli.self_ms", "cli"), ("ringcore.ms", "ringcore"), ("polylab.ms", "polylab"),
    ("econ.ms", "econ"), ("linalg.self_ms", "linalg"), ("gfmat.self_ms", "gfmat"),
    ("semigroup.self_ms", "semigroup"), ("ratmat.self_ms", "ratmat"),
    ("intpoly.self_ms", "intpoly"), ("semivector.self_ms", "semivector"),
]

CALL_COUNTS = [
    ("linalg.eigen_system_calls", "linalg", "eigen_system"),
    ("gfmat.int_det_calls", "gfmat", "int_det"),
    ("semigroup.decompose_invariants_calls", "semigroup", "decompose_invariants"),
    ("ratmat.rref_calls", "ratmat", "rref"),
    ("ratmat.mat_mul_calls", "ratmat", "mat_mul"),
    ("intpoly.factor_monic_calls", "intpoly", "factor_monic"),
    ("semivector.combine_calls", "semivector", "combine"),
]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit)."""
    return ([(name, "ms") for name, _ in SELF_TIMES]
            + [(name, "ms") for name, _, _ in GROUP_TIMES]
            + [(name, "count") for name, _, _ in CALL_COUNTS])


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []  # function id -> (layer, name)
        self.fn = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: Counter = Counter()  # (layer, name) -> calls
        self.current_job = -1
        self._stack = [-1]
        self._restore = []

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"smaralg.{layer}")
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                if (layer, name) in COUNT_ONLY:
                    wrapper = self._counter(layer, name, obj)
                else:
                    wrapper = self._span(layer, name, obj)
                self._restore.append((module, name, obj))
                setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._restore):
            setattr(module, name, obj)
        self._restore.clear()

    def _counter(self, layer, name, fn):
        calls = self.calls
        key = (layer, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _span(self, layer, name, fn):
        fid = len(self.names)
        self.names.append((layer, name))
        stack, calls, key = self._stack, self.calls, (layer, name)
        fns, parents, jobs, starts, ends = self.fn, self.parent, self.job, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            jobs.append(self.current_job)
            starts.append(0.0)
            ends.append(0.0)
            calls[key] += 1
            stack.append(idx)
            starts[idx] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """One line per span: job, span id, parent, layer.function, start,
        end (seconds, perf_counter clock)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("job\tspan\tparent\tfunction\tstart_s\tend_s\n")
            for i in range(len(self.fn)):
                layer, name = self.names[self.fn[i]]
                out.write(f"{self.job[i]}\t{i}\t{self.parent[i]}\t{layer}.{name}\t"
                          f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")

    def metrics(self, jobs: int) -> dict[str, float]:
        """Per-job per-layer metrics from the recorded spans and counts."""
        count = len(self.fn)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_time: Counter = Counter()
        group_time: Counter = Counter()
        groups = {(layer, fn): metric for metric, layer, fns in GROUP_TIMES for fn in fns}
        for i in range(count):
            key = self.names[self.fn[i]]
            dur = self.end[i] - self.start[i]
            self_time[key[0]] += dur - child[i]
            metric = groups.get(key)
            if metric is None:
                continue
            p = self.parent[i]
            # inclusive time of the outermost span of the group only
            while p >= 0 and groups.get(self.names[self.fn[p]]) != metric:
                p = self.parent[p]
            if p < 0:
                group_time[metric] += dur
        out = {}
        for name, layer in SELF_TIMES:
            out[name] = 1000.0 * self_time[layer] / jobs
        for name, _, _ in GROUP_TIMES:
            out[name] = 1000.0 * group_time[name] / jobs
        for name, layer, fn in CALL_COUNTS:
            out[name] = self.calls[(layer, fn)] / jobs
        return out
