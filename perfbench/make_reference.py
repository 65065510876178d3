"""Regenerate the benchmark's reference data (run from the repository root).

    python3 perfbench/make_reference.py cells   # writes perfbench/reference.json
    python3 perfbench/make_reference.py fuzz    # writes perfbench/fuzz_catalog.json

``cells`` records every cell the benchmark runs (the bench and smoke
sizes of ``replay-sweep``, which include the ``fig9-cold`` cells):
checksum, cycles, dynamic instructions and offload fraction.  The cells
are computed cold, then replayed from the captured trace store; the two
must agree.  Before writing, the 14 Figure 8 cells at the workloads'
default scales are recomputed through the same worker and checked against
``benchmarks/baseline.json``, so the reference comes from a pipeline
that still reproduces the pinned figures.  Nothing is written on a
mismatch.

``fuzz`` checks generator seeds ``0 .. CATALOG_PROGRAMS-1`` with the default
differential oracle in one traced worker and records each passing
program's time (the key the fuzz-oracle draw orders programs by) and
simulated instruction count (the work behind its ``pipeline_kips``).
Times are in reference seconds (see ``speed.py``); only their order
matters.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

from run import HERE, Workers

FIELDS = ("checksum", "cycles", "dynamic_instructions", "offload_fraction")
#: Generator seeds ``0 .. CATALOG_PROGRAMS-1`` make up the fuzz catalog.
CATALOG_PROGRAMS = 200


def _results(workers: Workers, cell_set: str, size: str, store: Path) -> dict:
    request = {"mode": "run", "kind": "cells", "set": cell_set, "size": size}
    reply, _, _ = workers.spawn(request, store)
    out = {}
    for item in reply["items"]:
        if item["status"] != "ok":
            sys.exit(f"{item['label']} failed: {item.get('error')}")
        out[item["label"]] = {k: item[k] for k in FIELDS}
    return out


def _check_baseline(workers: Workers) -> int:
    baseline = json.loads((workers.root / "benchmarks" / "baseline.json").read_text())
    pinned = {
        (c["workload"], c["scheme"], c["width"]): c["result"]
        for c in baseline["cells"]
        if c.get("scale") is None
    }
    request = {"mode": "run", "kind": "cells", "set": "fig8", "size": "default"}
    reply, _, _ = workers.spawn(request, workers.fresh_dir())
    for item in reply["items"]:
        workload, scheme, width = item["label"].split("/")
        expected = pinned[(workload, scheme, int(width.split("-")[0]))]
        wrong = [k for k in FIELDS if item.get(k) != expected[k]]
        if item["status"] != "ok" or wrong:
            sys.exit(f"{item['label']} disagrees with benchmarks/baseline.json: {wrong}")
    return len(reply["items"])


def make_cells(workers: Workers) -> dict:
    checked = _check_baseline(workers)
    cells = {}
    for size in ("bench", "smoke"):
        store = workers.fresh_dir()
        cold = _results(workers, "fig9-cold", size, store)
        warm = _results(workers, "replay-sweep", size, store)
        for label, values in cold.items():
            if warm[label] != values:
                sys.exit(f"{label}: replayed result differs from the cold one")
        cells.update(warm)
    return {
        "about": "per-cell reference of perfbench; regenerate with "
        "perfbench/make_reference.py cells",
        "baseline_cells_checked": checked,
        "cells": dict(sorted(cells.items())),
    }


def make_fuzz(workers: Workers) -> dict:
    request = {"mode": "run", "kind": "fuzz", "seeds": list(range(CATALOG_PROGRAMS)),
               "trace": True}
    reply, _, _ = workers.spawn(request)
    failed = [item["seed"] for item in reply["items"] if item["status"] != "ok"]
    return {
        "about": "generator seeds checked by the default DifferentialOracle; "
        "regenerate with perfbench/make_reference.py fuzz",
        "host": f"{platform.machine()} {platform.python_implementation()} "
        f"{platform.python_version()}",
        "failed_seeds": failed,
        "programs": [
            {
                "seed": item["seed"],
                "cost_s": round(item["seconds"], 4),
                "sim_instructions": item["sim_instructions"],
            }
            for item in reply["items"]
            if item["status"] == "ok"
        ],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="regenerate perfbench reference data")
    parser.add_argument("part", choices=("cells", "fuzz"))
    args = parser.parse_args()
    workers = Workers(Path.cwd().resolve(), deadline_s=7200.0)
    try:
        if args.part == "cells":
            doc, name = make_cells(workers), "reference.json"
        else:
            doc, name = make_fuzz(workers), "fuzz_catalog.json"
    finally:
        workers.close()
    (HERE / name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE.name}/{name}")


if __name__ == "__main__":
    main()
