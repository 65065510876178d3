"""Every lint diagnostic and every value-range fact, pinned byte for byte.

For each target — the ``examples/*.mc`` programs, every workload at its
default scale and a fixed slice of generator seeds — :func:`target_record`
lints the optimized program unpartitioned and under the basic and the
advanced scheme through the shared partition pipeline (partition-level
rules before the rewrite, the rest after it), and records each diagnostic
in order with every field.  It also records what the value-range
analysis proves about every function of the unpartitioned and the two
rewritten programs: the fixpoint's iteration count, each block's
reachability, and the value of every register operand just before its
instruction.  :data:`GOLDEN` holds the SHA-256 of each group's record;
the digests were computed with the dict-per-state value-range analysis,
so the analysis's state representation may change but not one answer.
Run this file as a script to print the current digests.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path

import pytest

from repro.analysis.valueclass import analyze_values
from repro.gen.build import build_program
from repro.ir.program import Program
from repro.lint import lint_program
from repro.minic.compile import compile_source
from repro.partition.program import audit_and_rewrite, plan_partitions
from repro.workloads import WORKLOADS, workload_source

from tests.opt.test_golden_ir import CATALOG_SLICE

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _value_facts(program: Program) -> list[str]:
    lines = []
    for func in program.functions.values():
        values = analyze_values(func)
        lines.append(f"{func.name} iterations={values.fixpoint.iterations}")
        for blk in func.blocks:
            lines.append(f"{blk.label} reachable={values.reachable(blk.label)}")
            for instr in blk.instructions:
                for reg in instr.uses:
                    info = values.value_at(instr, reg)
                    lines.append(
                        f"  #{instr.uid} {reg} {info.interval} {sorted(info.origins)}"
                    )
    return lines


def _diagnostics(result) -> list[str]:
    return [json.dumps(d.to_dict()) for d in result.diagnostics]


def _scheme_record(program: Program, scheme: str) -> list[str]:
    result = plan_partitions(program, scheme)
    audit_and_rewrite(program, result, lint=True)
    return [f"scheme {scheme}", *_diagnostics(result.lint), *_value_facts(program)]


def target_record(source: str) -> list[str]:
    program = compile_source(source, optimize=True)
    frozen = pickle.dumps(program, pickle.HIGHEST_PROTOCOL)
    record = ["scheme none", *_diagnostics(lint_program(program))]
    record += _value_facts(program)
    for scheme in ("basic", "advanced"):
        record += _scheme_record(pickle.loads(frozen), scheme)
    return record


def _sources(group: str) -> list[str]:
    if group == "examples":
        return [path.read_text() for path in sorted(EXAMPLES.glob("*.mc"))]
    if group == "catalog":
        return [build_program(seed) for seed in CATALOG_SLICE]
    return [workload_source(group.removeprefix("workload:"))]


def group_digest(group: str) -> str:
    lines = []
    for source in _sources(group):
        lines += target_record(source)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


GROUPS = ["examples", *(f"workload:{name}" for name in sorted(WORKLOADS)), "catalog"]

#: group -> digest of its diagnostics and value-range facts.
GOLDEN = {
    "examples": "e2cdff796985d32fae8c498ceffec316f9f7ec74f9fcf76c0804651efe14eea8",
    "workload:compress": "f93b9d635ce57893129dbb38ef77844a8106d5f9ce50ef84b022d0adc0887137",
    "workload:ear": "9b4196ed7155b2f9d7572a0803720ba9ae0cdd0d01527c2a587f1cb3711ecc7d",
    "workload:gcc": "af6abd6f31db47373e46e436e5211fe17a484fbd2b48ff8b3dd1b9ec5833ffbb",
    "workload:go": "f0180d126038f98cc05f704749b32e8e3e99f5698d16c1c1cf2a004ef6abe17b",
    "workload:ijpeg": "0f0bcb77b2c50b16bb0272e550c5ca0f715c627d49ff254aae3cf61d3489927b",
    "workload:li": "00c057b13641e0866c65f0ab4aeb59cd0056128ac2b598faeeeca8eaf1861f2f",
    "workload:m88ksim": "d5056d95ef2b05bb173160591f49c96ca6c7360bb4b5a5eae6734aba41d58fca",
    "workload:perl": "3afbcebc0b20ac724725805a2a07be546795b411008d6d904419f09ac2c0fc9f",
    "workload:swim": "7cbd45fc0be1a4daf735b7564cb5d812fb49e43937706305659a07920934dc8e",
    "catalog": "f39a62043d0152d584ba228eedb413e9c23d07970eedff21a7467db329b5f3df",
}


@pytest.mark.parametrize("group", GROUPS)
def test_diagnostics_and_value_facts_are_pinned(group):
    assert group_digest(group) == GOLDEN[group]


if __name__ == "__main__":
    for group in GROUPS:
        print(f"    {group!r}: {group_digest(group)!r},")
