"""Per-layer spans for the traced benchmark run, recorded from outside.

Each layer's public entry point is wrapped where it is *looked up*: the
pipeline binds names such as ``run_program`` or ``pack_entries`` at
import time (``from repro.runtime.interp import run_program``), so
patching only the defining module would miss those call sites.  The
wrapper is therefore written into the defining module *and* into every
loaded ``repro.*`` module that holds the same function object.  Methods
are wrapped on their class, which every instance looks up.

A span's *self time* is its duration minus the time of the wrapped spans
nested inside it (``compile_source`` contains ``optimize_program``,
``partition_program`` contains ``certify_partition``), so self times
never double count and, with ``bench.unattributed_s``, sum to the wall
time of the traced phase.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

#: Modules that bind layer functions at import time; they must be loaded
#: before patching so that their copies of the names are found.
BINDING_MODULES = (
    "repro.bench.harness",
    "repro.experiments.runner",
    "repro.gen.fuzz",
    "repro.workloads",
)

#: Every span name; each is reported as ``<span>_s``.
SPANS = (
    "minic.compile",
    "opt.optimize",
    "runtime.profile",
    "runtime.traced",
    "partition.partition",
    "analysis.certify",
    "regalloc.allocate",
    "lint.lint",
    "trace.pack",
    "trace.store_put",
    "trace.store_get",
    "sim.simulate",
    "bench.cache_put",
    "bench.cache_get",
    "gen.build",
)


def _runtime_span(args, kwargs) -> str:
    # run_program(program, entry, fuel, collect_trace, profile)
    traced = kwargs.get("collect_trace", args[3] if len(args) > 3 else False)
    return "runtime.traced" if traced else "runtime.profile"


def _count_run(counts, args, kwargs, result) -> None:
    counts["runtime.instructions"] += result.instructions


def _count_pack(counts, args, kwargs, result) -> None:
    counts["trace.packed_rows"] += result.n


def _count_store_put(counts, args, kwargs, result) -> None:
    store, key = args[0], args[1]
    try:
        counts["trace.store_bytes"] += store.path_for(key).stat().st_size
    except OSError:
        pass


def _count_store_get(counts, args, kwargs, result) -> None:
    counts["trace.store_hits" if result is not None else "trace.store_misses"] += 1


def _count_sim(counts, args, kwargs, result) -> None:
    counts["sim.cycles"] += result.cycles
    counts["sim.retired"] += result.retired


class Tracer:
    """Accumulates span self times, call counts and layer counters."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        # one accumulator of nested-span seconds per open span
        self._open: list[list[float]] = []
        # total duration of the outermost spans; all self times must sum
        # to it (a check of the nesting accounting)
        self.outer_s = 0.0

    def wrap(self, span, fn, count=None):
        """``fn`` timed as ``span`` (a name, or ``(args, kwargs) -> name``)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = [0.0]
            tracer._open.append(nested)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._open.pop()
                if tracer._open:
                    tracer._open[-1][0] += elapsed
                else:
                    tracer.outer_s += elapsed
                name = span(args, kwargs) if callable(span) else span
                tracer.self_s[name] += elapsed - nested[0]
                tracer.calls[name] += 1
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer entry point; call once per process."""
        for name in BINDING_MODULES:
            importlib.import_module(name)
        from repro.analysis.certify import certify_partition
        from repro.bench.cache import ResultCache
        from repro.gen.build import build_program
        from repro.lint.runner import lint_program
        from repro.minic.compile import compile_source
        from repro.opt.pipeline import optimize_program
        from repro.partition.advanced import advanced_partition
        from repro.partition.basic import basic_partition
        from repro.partition.program import partition_program
        from repro.partition.rewrite import apply_partition
        from repro.regalloc.linear_scan import allocate_program
        from repro.runtime.interp import run_program
        from repro.sim.pipeline import TimingSimulator
        from repro.trace.pack import pack_entries
        from repro.trace.store import TraceStore

        functions = (
            (compile_source, "minic.compile", None),
            (optimize_program, "opt.optimize", None),
            (run_program, _runtime_span, _count_run),
            (partition_program, "partition.partition", None),
            (basic_partition, "partition.partition", None),
            (advanced_partition, "partition.partition", None),
            (apply_partition, "partition.partition", None),
            (certify_partition, "analysis.certify", None),
            (allocate_program, "regalloc.allocate", None),
            (lint_program, "lint.lint", None),
            (pack_entries, "trace.pack", _count_pack),
            (build_program, "gen.build", None),
        )
        for fn, span, count in functions:
            _rebind(fn, self.wrap(span, fn, count))
        methods = (
            (TraceStore, "put", "trace.store_put", _count_store_put),
            (TraceStore, "get", "trace.store_get", _count_store_get),
            (TimingSimulator, "run", "sim.simulate", _count_sim),
            (ResultCache, "put", "bench.cache_put", None),
            (ResultCache, "get", "bench.cache_get", None),
        )
        for cls, attr, span, count in methods:
            setattr(cls, attr, self.wrap(span, getattr(cls, attr), count))

    def report(self, wall_s: float, pool_stats: dict) -> dict[str, float]:
        """Per-layer metrics for a traced phase of ``wall_s`` seconds."""
        s = self.self_s
        c = self.counts
        out = {f"{span}_s": s[span] for span in SPANS}
        runtime_s = s["runtime.profile"] + s["runtime.traced"]
        store_gets = c["trace.store_hits"] + c["trace.store_misses"]
        pool_gets = pool_stats["hits"] + pool_stats["misses"]
        out.update(
            {
                "runtime.profile_calls": self.calls["runtime.profile"],
                "runtime.traced_calls": self.calls["runtime.traced"],
                "runtime.kips": _rate(c["runtime.instructions"], runtime_s),
                "trace.packed_rows": c["trace.packed_rows"],
                "trace.store_bytes": c["trace.store_bytes"],
                "trace.store_hit_ratio": c["trace.store_hits"] / store_gets
                if store_gets
                else 0.0,
                "trace.pool_hit_ratio": pool_stats["hits"] / pool_gets
                if pool_gets
                else 0.0,
                "sim.calls": self.calls["sim.simulate"],
                "sim.kcycles_per_s": _rate(c["sim.cycles"], s["sim.simulate"]),
                "sim.kips": _rate(c["sim.retired"], s["sim.simulate"]),
                "lint.calls": self.calls["lint.lint"],
                "bench.unattributed_s": wall_s - sum(s[span] for span in SPANS),
            }
        )
        return out


def _rate(count: float, seconds: float) -> float:
    """Thousands per second (0 when the layer did not run)."""
    return count / 1000.0 / seconds if seconds > 0 else 0.0


def _rebind(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` in every loaded repro module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
