"""Wall-clock benchmark of the reproduction pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig9-cold --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each

Workloads (see ``README.md`` next to this file for why each was chosen):

``fig9-cold``     the Figure 9 cells (7 INT surrogates x 3 schemes, 4-way)
                  through ``run_cells`` with an empty result cache and an
                  empty trace store;
``replay-sweep``  the Figure 9 + Figure 10 cells (4-way and 8-way) with the
                  result cache off, replaying a trace store captured during
                  set-up;
``fuzz-oracle``   generated MiniC programs, drawn by ``--seed`` from
                  ``fuzz_catalog.json``, checked by the default
                  ``DifferentialOracle``.

Every repetition runs in a fresh ``worker.py`` process with the inherited
``REPRO_*`` variables cleared, ``PYTHONHASHSEED`` pinned and fresh store
directories under ``.perfbench-tmp/`` that are deleted afterwards.
Repetitions continue until their timed phases add up to ``--seconds``.
Each item's result is checked against ``reference.json`` (cells) or the
oracle (fuzz); a mismatch counts as a failed item and does not stop the
run.  ``--trace 1`` makes one untraced and one traced repetition and
reports the per-layer metrics of the traced one.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any set-up error exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_UNIT_S, burst

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fig9-cold", "replay-sweep", "fuzz-oracle")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "item_p50_s": "s",
    "peak_rss_mb": "MB",
}


def _layer_unit(name: str) -> str:
    if name.endswith("calls"):
        return "count"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "frac"
    if name.endswith("kips"):
        return "kinstr/s"
    if name.endswith("kcycles_per_s"):
        return "kcycles/s"
    if name == "trace.packed_rows":
        return "rows"
    if name == "trace.store_bytes":
        return "bytes"
    return "s"


#: Set-up probes per run; ``setup_s`` is their median.  A probe's time,
#: about 0.2 s, is scaled by only the two short bursts around it, so it
#: takes this many to keep the run-to-run spread near 5-10%.
SETUP_PROBES = 15
#: Whole-run deadline, just under the three minutes a run may take; a
#: child still running then is killed, so none outlives the run.  The
#: longest run, a traced replay-sweep, takes about 70 s at 0.6x of the
#: reference speed, so this leaves room down to about 0.25x.
DEADLINE_S = 175.0
#: fuzz-oracle draw: ``FUZZ_PER_WINDOW`` programs from each of this many
#: windows of ``FUZZ_WINDOW`` neighbours, centred on evenly spaced
#: quantiles of the catalog ordered by measured cost ...
FUZZ_WINDOWS = 9
FUZZ_WINDOW = 5
FUZZ_PER_WINDOW = 2
#: ... leaving out programs that cost more than this when catalogued, or
#: simulate more instructions (the largest trace sets the peak RSS).
FUZZ_COST_CAP_S = 2.0
FUZZ_INSTRUCTION_CAP = 30_000


class BenchError(Exception):
    """The benchmark cannot run here (exit status 2, no result line)."""


def load_json(name: str) -> dict:
    with open(HERE / name, encoding="utf-8") as handle:
        return json.load(handle)


def fuzz_seeds(seed: int, size: str, catalog: dict) -> list[int]:
    """Generator seeds of the programs ``--seed`` selects.

    The eligible catalog programs are ordered by their recorded cost; the
    run takes ``FUZZ_PER_WINDOW`` programs from each of ``FUZZ_WINDOWS``
    narrow windows spread evenly over that order, so every seed draws
    different programs with nearly the same cost profile.  The smoke size
    takes two programs from the cheapest window.
    """
    eligible = sorted(
        (p for p in catalog["programs"]
         if p["cost_s"] <= FUZZ_COST_CAP_S and p["sim_instructions"] <= FUZZ_INSTRUCTION_CAP),
        key=lambda p: (p["cost_s"], p["seed"]),
    )
    n = len(eligible)
    windows = []
    for k in range(FUZZ_WINDOWS):
        centre = (2 * k + 1) * n / (2 * FUZZ_WINDOWS)
        lo = max(0, min(n - FUZZ_WINDOW, round(centre - FUZZ_WINDOW / 2)))
        windows.append(eligible[lo:lo + FUZZ_WINDOW])
    rng = random.Random(seed)
    if size == "smoke":
        return [p["seed"] for p in rng.sample(windows[0], 2)]
    return [p["seed"] for window in windows for p in rng.sample(window, FUZZ_PER_WINDOW)]


def central_mean(values: list[float]) -> float:
    """The median, smoothed: the mean of the central fifth of ``values``.

    Cell costs cluster, so the plain median of 21 or 42 latencies jumps
    between two clusters on run-to-run noise; averaging the few latencies
    around it keeps it a median-like statistic without the jumps.
    """
    ordered = sorted(values)
    k = max(1, round(len(ordered) / 5))
    lo = (len(ordered) - k) // 2
    return statistics.fmean(ordered[lo:lo + k])


def check_items(items: list[dict], reference: dict | None) -> list[str]:
    """One message per failed item (an error, or a result that disagrees
    with the reference); an empty list when every item is correct.

    Cells must match their reference entry and share one checksum across
    the schemes of each (workload, width); fuzz programs must pass the
    oracle.
    """
    failures: dict[str, str] = {}
    groups: dict[tuple, set] = {}
    for item in items:
        label = item["label"]
        if item["status"] != "ok":
            failures[label] = f"{label}: {item['status']} {item.get('error') or item.get('violations')}"
            continue
        if reference is None:
            continue
        expected = reference["cells"].get(label)
        if expected is None:
            failures[label] = f"{label}: no reference entry"
            continue
        wrong = [k for k, v in expected.items() if item.get(k) != v]
        if wrong:
            failures[label] = f"{label}: differs from the reference in {wrong}"
        groups.setdefault((item["workload"], item["width"]), set()).add(item["checksum"])
    for item in items:
        key = (item.get("workload"), item.get("width"))
        if len(groups.get(key, ())) > 1 and item["label"] not in failures:
            failures[item["label"]] = f"{item['label']}: checksums differ across schemes"
    return list(failures.values())


class Workers:
    """Child processes and scratch directories of one benchmark run."""

    def __init__(self, root: Path, deadline_s: float = DEADLINE_S) -> None:
        self.root = root
        src = root / "src"
        if not (src / "repro" / "__init__.py").is_file():
            raise BenchError(f"no repro package under {src}; run from the repository root")
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONPATH"] = str(src)
        self.tmp = root / ".perfbench-tmp" / f"run-{os.getpid()}-{time.time_ns()}"
        self.deadline = time.monotonic() + deadline_s
        self.dirs = 0

    def fresh_dir(self) -> Path:
        self.dirs += 1
        path = self.tmp / f"d{self.dirs}"
        path.mkdir(parents=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass

    def spawn(self, request: dict, store: Path | None = None) -> tuple[dict, float, float]:
        """Run one worker; returns (reply, spawn time, exit time)."""
        env = dict(self.env)
        if store is not None:
            env["REPRO_TRACE_CACHE"] = str(store)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(request)],
                cwd=self.root, env=env, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {request['mode']} passed the run deadline") from exc
        end = time.monotonic()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(
                f"worker {request} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        reply = json.loads(lines[-1])
        if not Path(reply["repro_file"]).resolve().is_relative_to(self.root / "src"):
            raise BenchError(f"worker imported repro from {reply['repro_file']}")
        return reply, start, end


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "bench",
    reference: dict | None = None,
) -> dict:
    """One benchmark run from the current directory; returns the result
    object (plus ``details``)."""
    workers = Workers(Path.cwd().resolve())
    try:
        return _run(workers, workload, seed, seconds, trace, size, reference)
    finally:
        workers.close()


def _run(workers, workload, seed, seconds, trace, size, reference) -> dict:
    if workload == "fuzz-oracle":
        catalog = load_json("fuzz_catalog.json")
        seeds = fuzz_seeds(seed, size, catalog)
        instructions = {p["seed"]: p["sim_instructions"] for p in catalog["programs"]}
        base = {"kind": "fuzz", "seeds": seeds}
        reference = None
    else:
        if reference is None:
            reference = load_json("reference.json")
        base = {"kind": "cells", "set": workload, "size": size}

    def rep_request(mode: str, traced: bool = False) -> tuple[dict, Path | None]:
        request = dict(base, mode=mode, trace=traced)
        if workload == "fig9-cold":
            scratch = workers.fresh_dir()
            request["cache_dir"] = str(scratch / "results")
            return request, scratch / "traces"
        return request, store

    # set-up is the start-up of a fresh worker, from spawn until it is
    # ready for its timed phase, plus on replay-sweep the capture of the
    # trace store by a cold Figure 9 run.  The capture is timed like a
    # repetition, in one serial worker whose start-up stands for the
    # probes (the capture dwarfs it).  Set-up time is an end-to-end metric
    # only, so a traced run skips the probes and captures on both cores.
    capture_s = 0.0
    store = None
    ready = []
    if workload == "replay-sweep":
        store = workers.fresh_dir()
        request = {"mode": "run", "kind": "cells", "set": "fig9-cold", "size": size,
                   "jobs": 2 if trace else 1}
        reply, start, _ = workers.spawn(request, store)
        capture_s = reply["wall_s"]
        ready.append((reply["ready"] - start) * reply["speed"])
    elif not trace:
        # each probe is scaled by the bursts just before and after it
        bursts = [burst(0.05)]
        for _ in range(SETUP_PROBES):
            reply, start, _ = workers.spawn(*rep_request("ready"))
            bursts.append(burst(0.05))
            factor = 2.0 * REFERENCE_UNIT_S / (bursts[-2] + bursts[-1])
            ready.append((reply["ready"] - start) * factor)
    startup_s = statistics.median(ready) if ready else 0.0
    setup_s = capture_s + startup_s

    reps = []
    if trace:
        reps.append(workers.spawn(*rep_request("run"))[0])
        traced = workers.spawn(*rep_request("run", traced=True))[0]
    else:
        timed = 0.0
        while not reps or timed < seconds:
            reps.append(workers.spawn(*rep_request("run"))[0])
            timed += reps[-1]["wall_s"]

    checked = reps + ([traced] if trace else [])
    items = [item for rep in checked for item in rep["items"]]
    failures = check_items(items, reference)

    def kinstr(rep: dict) -> float:
        if workload == "fuzz-oracle":
            return sum(instructions[i["seed"]] for i in rep["items"]) / 1000.0
        return sum(i.get("dynamic_instructions", 0) for i in rep["items"]) / 1000.0

    first = reps[0]
    details = {
        "reps": len(reps),
        "items_per_rep": len(first["items"]),
        "startup_s": startup_s,
        "capture_s": capture_s,
        "raw_wall_s": [r["raw_wall_s"] for r in reps],
        "speed": [r["speed"] for r in reps],
        "failed_frac": len(failures) / len(items),
        "max_item_share": max(i["seconds"] for i in first["items"]) / first["wall_s"],
        # thousand modelled dynamic instructions per second: fixed work
        # over wall_s on the cell workloads, so it is reported but not
        # bounded; on fuzz-oracle it mostly reflects which programs a
        # seed drew, since their cost is compilation, not execution
        "pipeline_kips": statistics.median(kinstr(r) / r["wall_s"] for r in reps),
        "failures": failures,
    }
    if workload == "fuzz-oracle":
        details["programs"] = seeds
    if trace:
        details["span_totals"] = traced["span_totals"]
        metrics = dict(traced["layers"])
        metrics["bench.traced_wall_s"] = traced["raw_wall_s"]
        metrics["bench.trace_overhead_s"] = traced["wall_s"] - first["wall_s"]
        metrics["bench.max_item_share"] = details["max_item_share"]
        metrics["bench.pipeline_kips"] = details["pipeline_kips"]
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "item_p50_s": central_mean([i["seconds"] for r in reps for i in r["items"]]),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        }
        units = END_TO_END
    return {
        "correct": not failures,
        "attempted": len(items),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "details": details,
    }


def print_table(workload: str, result: dict) -> None:
    details = result["details"]
    print(f"== {workload}: {details['reps']} repetition(s) of "
          f"{details['items_per_rep']} items (the item_p50_s samples), "
          f"{result['attempted']} checked")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'failed_frac':28s} {details['failed_frac']:14.6g} frac "
          f"({result['failed']} of {result['attempted']})")
    print(f"  {'max_item_share':28s} {details['max_item_share']:14.6g} frac")
    print(f"  {'pipeline_kips':28s} {details['pipeline_kips']:14.6g} kinstr/s")
    print(f"  setup: {details['capture_s']:.3f} s trace capture + "
          f"{details['startup_s']:.3f} s worker start-up")
    if "programs" in details:
        print(f"  generator seeds drawn: {details['programs']}")
    raw = ", ".join(f"{w:.3f}" for w in details["raw_wall_s"])
    speed = ", ".join(f"{f:.3f}" for f in details["speed"])
    print(f"  unscaled wall_s per repetition: {raw} (speed factor {speed})")
    for message in details["failures"]:
        print(f"  FAILED {message}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, result in results.items():
        print_table(name, result)
    if args.workload == "all":
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        line = {k: v for k, v in results[args.workload].items() if k != "details"}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
