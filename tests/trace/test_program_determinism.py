"""A trace key determines its program, in any process.

A replayed pack is trusted on its key alone: nothing re-derives the
program to compare it with the pack.  That holds only if preparing a
cell is a pure function of the key — in particular, independent of the
per-process ``str`` hash salt that orders every ``set`` of RDG nodes.
These tests prepare programs in two subprocesses under different
``PYTHONHASHSEED`` values and require identical results.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.workloads import WORKLOADS

#: Smoke scales (``repro.bench.matrix``) on top of every default scale.
SMOKE = {"compress": 150, "m88ksim": 2}

_PREPARE = """
import json, sys
from repro.experiments.runner import prepare_program
from repro.trace.pack import program_fingerprint
out = {}
for name, scale, scheme in json.loads(sys.argv[1]):
    artifacts = prepare_program(name, scheme, scale=scale)
    out[f"{name}@{scale}/{scheme}"] = program_fingerprint(artifacts.program)
print(json.dumps(out))
"""


def under_hash_seeds(script: str, arg, seeds=("0", "123")) -> list:
    """Run ``script`` once per hash seed, concurrently; parsed stdout."""
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, json.dumps(arg)],
            env={**os.environ, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in seeds
    ]
    outputs = [proc.communicate(timeout=600)[0] for proc in procs]
    assert all(proc.returncode == 0 for proc in procs)
    return [json.loads(out) for out in outputs]


def test_paper_programs_do_not_depend_on_the_hash_seed():
    cells = sorted(
        {
            (name, scale, scheme)
            for name in WORKLOADS
            for scale in (None, SMOKE.get(name))
            for scheme in ("basic", "advanced")
        },
        key=str,
    )
    first, second = under_hash_seeds(_PREPARE, cells)
    assert len(first) == len(cells)
    assert first == second


#: Generated programs whose advanced partition once followed the hash
#: seed: phase 1 seeded its work-list, and the copy/duplicate pass its
#: demand queue, by iterating a ``set`` of nodes.
GENERATED_SEEDS = [7, 105, 118, 188]

_PARTITION = """
import json, sys
from repro.gen.build import build_program
from repro.ir.printer import print_program
from repro.minic.compile import compile_source
from repro.partition.program import partition_program
from repro.runtime.interp import run_program
out = {}
for seed in json.loads(sys.argv[1]):
    program = compile_source(build_program(seed), optimize=True)
    profile = run_program(program).profile
    partition_program(program, "advanced", profile=profile)
    out[seed] = print_program(program)
print(json.dumps(out))
"""


def test_advanced_partition_does_not_depend_on_the_hash_seed():
    first, second = under_hash_seeds(_PARTITION, GENERATED_SEEDS)
    assert sorted(first) == sorted(str(seed) for seed in GENERATED_SEEDS)
    for seed in first:
        assert first[seed] == second[seed], f"generated seed {seed}"
