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
instruction.  :data:`GOLDEN` holds the SHA-256 of each group's record,
so the analysis's state representation may change but not one answer.
The iteration counts are the exception: they are those of the
live-register states, which stop comparing dead registers and so
converge in as many or fewer visits than the earlier states over every
register did, with every other line of the record unchanged.
Run this file as a script (with the repository root and ``src`` on
``PYTHONPATH``) to print the current digests.
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
    "workload:compress": "759f2806f875eee0a532378ebdea06229a47d09ff7feb6529f673df482d60b85",
    "workload:ear": "ba63f85ff1967141b8c5b8aa061c5a61002ddf4ec83ce306e2dd33a4f552b69e",
    "workload:gcc": "d7191b38028b1f87a7ec60cba3af7a7a05ff3129d523b7a67d8d612faeef9101",
    "workload:go": "3658fa5a57a1f4494a6077f1f4850ee445b2818941f0e2d2ee189ad53d1ac8ff",
    "workload:ijpeg": "0f0bcb77b2c50b16bb0272e550c5ca0f715c627d49ff254aae3cf61d3489927b",
    "workload:li": "00c057b13641e0866c65f0ab4aeb59cd0056128ac2b598faeeeca8eaf1861f2f",
    "workload:m88ksim": "d5056d95ef2b05bb173160591f49c96ca6c7360bb4b5a5eae6734aba41d58fca",
    "workload:perl": "a39cdc9d1c38937337e74d6e1443e30babdf750cdddff803945b3bd002f7a116",
    "workload:swim": "c26ee18dab3ca647b88c1863079caf9910cddaeac9e5b22c20607d72e9dd0444",
    "catalog": "3584e7d3d9311ab93cc8f18bb0c0512242c27ca525ca3f3eb6b2eb307fafa8b2",
}


@pytest.mark.parametrize("group", GROUPS)
def test_diagnostics_and_value_facts_are_pinned(group):
    assert group_digest(group) == GOLDEN[group]


if __name__ == "__main__":
    for group in GROUPS:
        print(f'    "{group}": "{group_digest(group)}",')
