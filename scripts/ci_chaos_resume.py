#!/usr/bin/env python
"""CI kill-and-resume scenario: a fig8 sweep survives a crashing worker
and an always-hanging cell, then gates against the baseline.

Pass 1 (faults injected) runs the full fig8 suite with two injected
disasters:

* ``gcc/advanced`` crashes its worker (``os._exit``) at the execute
  stage.  Fault budgets are per process and every retry runs in a fresh
  worker, so the retry crashes too: the cell must be recorded as
  ``failed`` with type ``BrokenProcessPool``, while its innocent
  siblings in the same pool still finish ``ok``.
* ``li/basic`` hangs forever at the simulate stage.  The progress-aware
  watchdog must kill it (twice, exhausting its attempts), and the two
  consecutive failures must open the family's circuit breaker, which
  the BENCH document records.

Pass 2 (no faults) resumes the same sweep from the run journal: only
the two failed cells recompute, and the completed document must gate
cleanly against ``benchmarks/baseline.json`` — results of a sweep that
lost workers are bit-identical to healthy ones, which is the whole
point.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "baseline.json"
OUTPUT = "BENCH_fig8_chaos.json"
CACHE_DIRS = (".repro-bench-cache-chaos", ".repro-trace-cache-chaos")

CRASH_CELL = ("gcc", "advanced")
HANG_CELL = ("li", "basic")


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def bench(*args: str, faults: str | None = None) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_FAULTS", None)
    if faults is not None:
        env["REPRO_FAULTS"] = faults
    command = [sys.executable, "-m", "repro", "bench", *args]
    print(f"+ {' '.join(command)}" + (f"  [REPRO_FAULTS={faults}]" if faults else ""))
    return subprocess.run(command, cwd=ROOT, env=env).returncode


def main() -> None:
    faults = (
        f"execute:crash:match={'/'.join(CRASH_CELL)};"
        f"simulate:hang:secs=3600:match={'/'.join(HANG_CELL)}"
    )

    # start cold: a result cached by an earlier run would let the crash
    # cell skip its worker and pass 1 would prove nothing
    for name in CACHE_DIRS:
        shutil.rmtree(ROOT / name, ignore_errors=True)

    # -- pass 1: the sweep under fire ----------------------------------
    code = bench(
        "--suite", "fig8", "--jobs", "4",
        "--timeout", "60", "--retries", "1", "--breaker-threshold", "2",
        "--cache-dir", ".repro-bench-cache-chaos",
        "--trace-cache", ".repro-trace-cache-chaos",
        "--output", OUTPUT, "--max-failures", "2",
        faults=faults,
    )
    if code != 0:
        fail(f"chaos pass exited {code}; expected 0 (two tolerated failures)")

    doc = json.loads((ROOT / OUTPUT).read_text())
    failures = {(f["workload"], f["scheme"]): f for f in doc["failures"]}

    if set(failures) != {CRASH_CELL, HANG_CELL}:
        fail(f"expected exactly {CRASH_CELL} and {HANG_CELL} to fail, "
             f"got {sorted(failures)}")
    if any(c["status"] != "ok" for c in doc["cells"]):
        fail("a surviving cell is not ok: "
             f"{[(c['workload'], c['scheme'], c['status']) for c in doc['cells']]}")

    crashed = failures[CRASH_CELL]
    if crashed["status"] != "failed":
        fail(f"crashed cell recorded as {crashed['status']!r}, expected failed")
    if crashed["error"]["type"] != "BrokenProcessPool":
        fail(f"crashed cell's error type is {crashed['error']['type']!r}, "
             "expected BrokenProcessPool")

    hung = failures[HANG_CELL]
    if hung["status"] != "timeout":
        fail(f"hung cell recorded as {hung['status']!r}, expected timeout")
    if hung.get("attempts") != 2:
        fail(f"hung cell spent {hung.get('attempts')} attempts, expected 2")
    if "progress" not in hung:
        fail("hung cell's failure record carries no progress heartbeat")

    family = "/".join(HANG_CELL)
    breaker = doc.get("breakers", {}).get(family)
    if not breaker or breaker.get("state") != "open":
        fail(f"breaker for {family} not open in the BENCH document: {breaker}")

    print("pass 1 ok: crashed cell isolated, hung family's breaker open")

    # -- pass 2: clean resume, gated against the committed baseline ----
    code = bench(
        "--suite", "fig8", "--jobs", "4", "--resume",
        "--cache-dir", ".repro-bench-cache-chaos",
        "--trace-cache", ".repro-trace-cache-chaos",
        "--output", OUTPUT,
        "--baseline", str(BASELINE), "--tolerance", "10",
    )
    if code != 0:
        fail(f"resume pass exited {code}; resumed sweep did not gate clean")

    doc = json.loads((ROOT / OUTPUT).read_text())
    if doc["failures"]:
        fail(f"resume pass still has failures: {doc['failures']}")
    sources = {(c["workload"], c["scheme"]): c["source"] for c in doc["cells"]}
    recomputed = {cell for cell, source in sources.items() if source != "journal"}
    if recomputed != {CRASH_CELL, HANG_CELL}:
        fail("resume pass should recompute exactly the two failed cells, "
             f"recomputed {sorted(recomputed)}")
    print("pass 2 ok: resumed sweep complete and within baseline tolerance")


if __name__ == "__main__":
    main()
