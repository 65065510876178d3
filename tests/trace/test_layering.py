"""The trace layer sits below the bench layer: it must not import it.

The result cache's key extends the trace key, so :mod:`repro.bench`
depends on :mod:`repro.trace`, never the other way round.  A fresh
interpreter is the only place the check means anything: in the test
process every module is already loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

PROBE = """
import json, sys
import repro.trace
from repro.trace import trace_key
trace_key("compress", "advanced", 150)
print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro."))))
"""


def test_trace_key_loads_no_bench_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    loaded = json.loads(proc.stdout)
    assert "repro.trace.store" in loaded
    assert [name for name in loaded if name.startswith("repro.bench")] == []
