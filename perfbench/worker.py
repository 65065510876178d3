"""One repetition of a benchmark workload, in a fresh process.

``perfbench/run.py`` starts this script once per repetition, so the
harness memo, the trace pool and the store singletons start empty and
the peak RSS is the repetition's own.  It reads one JSON request from
``argv[1]`` and prints one JSON reply as the last line of stdout.

A request has a ``kind``:

``cells``  run a cell set through ``repro.bench.harness.run_cells``
           (``jobs`` workers, default 1: serial and in-process; no
           timeout) and report every cell's result;
``fuzz``   generate each program with ``repro.gen.build.build_program``
           and check it with the default ``DifferentialOracle``;

and a ``mode``: ``run`` times that phase, ``ready`` only imports the
pipeline and prepares the inputs (a set-up probe).  With ``"trace":
true`` every layer entry point is wrapped first (see ``layers.py``) and
the reply carries the per-layer metrics.  Times in the reply are scaled
to reference speed (see ``speed.py``).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import replace

from speed import Meter

#: Per-workload scales of the benchmark's cell sets.  The defaults make
#: a cold Figure 9 sweep take about a minute; these keep every surrogate
#: and scheme but cut it to about a third (500k instead of 1.4M dynamic
#: instructions per scheme; gcc, go, ijpeg and perl are at their smallest
#: scale).
BENCH_SCALES = {
    "compress": 150,
    "gcc": 1,
    "go": 1,
    "ijpeg": 1,
    "li": 3,
    "m88ksim": 2,
    "perl": 1,
}


def cell_set(name: str, size: str):
    """The cells of ``name`` (``fig9-cold``, ``replay-sweep``, ``fig8``)
    at ``size`` (``bench``, ``smoke`` or ``default`` scales)."""
    from repro.bench.matrix import suite_cells

    if size == "smoke":
        cells = suite_cells("smoke")
        if name == "replay-sweep":
            cells += [replace(cell, width=8) for cell in cells]
        return cells
    suites = {
        "fig9-cold": ("fig9",),
        "replay-sweep": ("fig9", "fig10"),
        "fig8": ("fig8",),
    }[name]
    cells = [cell for suite in suites for cell in suite_cells(suite)]
    if size == "bench":
        cells = [replace(cell, scale=BENCH_SCALES[cell.workload]) for cell in cells]
    return cells


def _prepare(request: dict):
    """Import what the request needs; returns the timed-phase callable."""
    if request["kind"] == "cells":
        from repro.bench.cache import ResultCache
        from repro.bench.harness import run_cells

        cells = cell_set(request["set"], request["size"])
        cache_dir = request.get("cache_dir")
        cache = ResultCache(cache_dir) if cache_dir else None

        def phase(tracer):
            items = []
            last = [time.monotonic()]

            def record(outcome):
                # a cell's latency runs from the previous cell's outcome to
                # its own, so it includes the cache write
                now = time.monotonic()
                item = {
                    "start": last[0],
                    "end": now,
                    "label": outcome.cell.label,
                    "workload": outcome.cell.workload,
                    "width": outcome.cell.width,
                    "status": outcome.status,
                }
                last[0] = now
                if outcome.ok:
                    result = outcome.result
                    item.update(
                        checksum=result.checksum,
                        cycles=result.cycles,
                        dynamic_instructions=result.dynamic_instructions,
                        offload_fraction=result.offload_fraction,
                    )
                else:
                    item["error"] = outcome.error.as_dict() if outcome.error else None
                items.append(item)

            run_cells(cells, jobs=request.get("jobs", 1), cache=cache, progress=record)
            return items

        return phase

    import repro.gen.build as gen_build
    from repro.gen.fuzz import DifferentialOracle

    seeds = request["seeds"]
    oracle = DifferentialOracle()

    def phase(tracer):
        items = []
        for seed in seeds:
            retired = tracer.counts["sim.retired"] if tracer else 0
            start = time.monotonic()
            # looked up on the module at call time, so a traced run sees
            # the wrapped generator
            source = gen_build.build_program(seed)
            case = oracle.check_source(source, seed=seed)
            item = {
                "label": f"fuzz:{seed}",
                "seed": seed,
                "start": start,
                "end": time.monotonic(),
                "status": "ok" if case.ok else "failed",
                "violations": [f"[{v.kind}] {v.detail}" for v in case.violations],
            }
            if tracer:
                item["sim_instructions"] = tracer.counts["sim.retired"] - retired
            items.append(item)
        return items

    return phase


def main() -> None:
    request = json.loads(sys.argv[1])
    phase = _prepare(request)
    tracer = None
    if request.get("trace"):
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    import repro

    reply = {"repro_file": repro.__file__, "ready": time.monotonic()}
    if request["mode"] != "ready":
        meter = Meter()
        if tracer is not None:
            # bursts become nested spans, so no layer's self time holds them
            meter.tick = tracer.wrap("bench.calibration", meter.tick)
        cpu0 = time.process_time()
        with meter:
            start = time.monotonic()
            items = phase(tracer)
            end = time.monotonic()
        cpu = time.process_time() - cpu0
        busy, speed = meter.measure(start, end)
        # each item at its own speed; the gaps between items at the
        # phase's
        wall = busy * speed
        for item in items:
            item_busy, item_speed = meter.measure(item.pop("start"), item.pop("end"))
            item["seconds"] = item_busy * item_speed
            wall += item["seconds"] - item_busy * speed
        reply.update(
            wall_s=wall,
            raw_wall_s=busy,
            # the phase's CPU share of its busy time, applied to the
            # per-item scaled wall time: one phase-wide factor for the CPU
            # seconds would miss the speed changes inside the phase
            cpu_s=wall * (cpu - meter.cpu_spent) / busy,
            speed=speed,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            items=items,
        )
        if tracer is not None:
            from repro.trace.store import trace_pool

            reply["layers"] = tracer.report(busy, trace_pool().stats())
            reply["span_totals"] = {
                "self_s": sum(tracer.self_s.values()),
                "outer_s": tracer.outer_s,
            }
    sys.stdout.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()
