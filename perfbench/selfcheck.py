"""Self-check of the benchmark at smoke size (run from the repository root).

    python3 perfbench/selfcheck.py

Runs every workload on the ``smoke`` suite and two fuzz programs, once
untraced and once traced, and asserts that

* every end-to-end and per-layer metric named in ``BENCHMARK.json`` is
  emitted, with the unit declared there, and nothing else;
* the layer self times plus ``bench.unattributed_s`` sum to the traced
  wall time, none of them is negative, all self times together equal the
  total of the outermost spans, and each layer is non-zero on the
  workload that exercises it;
* ``trace.store_hit_ratio`` is 1.0 on ``replay-sweep``;
* a tampered reference value makes ``failed_frac`` positive.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys

from layers import SPANS
from run import HERE, WORKLOADS, load_json, run_workload

#: Layer metrics that must be non-zero on each workload.
EXERCISED = {
    "fig9-cold": (
        "runtime.profile_s", "runtime.traced_s", "trace.pack_s",
        "trace.store_put_s", "trace.store_bytes", "sim.simulate_s",
        "bench.cache_put_s", "bench.cache_get_s",
    ),
    "replay-sweep": ("runtime.profile_s", "trace.store_get_s", "sim.simulate_s"),
    "fuzz-oracle": (
        "lint.lint_s", "opt.optimize_s", "minic.compile_s",
        "partition.partition_s", "analysis.certify_s", "regalloc.allocate_s",
        "gen.build_s", "runtime.traced_s", "sim.simulate_s",
    ),
}


def _declared(key: str) -> dict[str, str]:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[key]}


def main() -> int:
    problems: list[str] = []

    def check(ok: bool, message: str) -> None:
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            problems.append(message)

    end_to_end, per_layer = _declared("end_to_end"), _declared("per_layer")
    for workload in WORKLOADS:
        for trace, declared in ((False, end_to_end), (True, per_layer)):
            result = run_workload(workload, 1, 0.0, trace, size="smoke")
            metrics = result["metrics"]
            units = {name: m["unit"] for name, m in metrics.items()}
            check(units == declared,
                  f"{workload} trace={int(trace)}: metrics and units as declared")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace={int(trace)}: failed_frac 0")
            if not trace:
                continue
            values = {name: m["value"] for name, m in metrics.items()}
            total = sum(values[f"{span}_s"] for span in SPANS)
            total += values["bench.unattributed_s"]
            check(abs(total - values["bench.traced_wall_s"]) < 1e-6,
                  f"{workload}: layer self times + unattributed = traced wall_s")
            # the identity above holds by construction; these do not: a
            # nesting or double-counting error shows as a negative time or
            # as self times that miss the outermost spans' total
            check(all(values[f"{span}_s"] >= 0 for span in SPANS)
                  and values["bench.unattributed_s"] >= 0,
                  f"{workload}: every self time and unattributed_s >= 0")
            totals = result["details"]["span_totals"]
            check(abs(totals["self_s"] - totals["outer_s"]) < 1e-6,
                  f"{workload}: all self times sum to the outermost spans' total")
            for name in EXERCISED[workload]:
                check(values[name] > 0, f"{workload}: {name} > 0")
            if workload == "replay-sweep":
                check(values["trace.store_hit_ratio"] == 1.0,
                      "replay-sweep: trace.store_hit_ratio == 1.0")

    tampered = copy.deepcopy(load_json("reference.json"))
    label = next(k for k in tampered["cells"] if k.startswith("compress/basic/4-way@150"))
    tampered["cells"][label]["cycles"] += 1
    result = run_workload("fig9-cold", 1, 0.0, False, size="smoke", reference=tampered)
    check(result["details"]["failed_frac"] > 0 and not result["correct"],
          f"tampered reference for {label}: failed_frac > 0")

    print("self-check", "passed" if not problems else f"FAILED ({len(problems)})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
