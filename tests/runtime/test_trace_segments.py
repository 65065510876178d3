"""A traced run writes the trace a straight-line segment at a time.

Segments start at block starts and just after calls and control
instructions, so the places where one ends are where a packing slip
would show: a call ending a block or in its middle, a return to a
mid-block call site, loads and stores patching their ``mem_addr`` slot,
a mid-block branch (taken, and not taken so that execution falls into
the rest of its block), a mid-block jump, and the final ``ret``.
:data:`GOLDEN` pins the pack of a small program for each, and the
second half checks that tracing never changes what a run computes.
"""

from __future__ import annotations

import hashlib
import sys

import pytest

from repro.errors import ExecutionError, FuelExhausted
from repro.gen.build import build_program
from repro.ir.parser import parse_program
from repro.minic.compile import compile_source
from repro.runtime.interp import run_program
from repro.trace.pack import pack_entries

#: A call with a destination and one without, two calls in one block,
#: a call as a block's last instruction, an empty block, ``lb``/``sb``
#: after a return to a mid-block call site, and a final ``ret``.
CALLS = """
global buf 8

func leaf(1) returns {
entry:
  v0 = param 0
  v1 = addiu v0, 3
  ret v1
}

func poke(1) {
entry:
  v0 = param 0
  v1 = li @buf
  sb v0, v1, 5
  ret
}

func main(0) {
entry:
  v0 = li 7
  v1 = call leaf(v0)
  call poke(v1)
  v2 = li @buf
  v3 = lb v2, 5
  v4 = call leaf(v3)
empty:
next:
  v5 = lbu v2, 5
  v6 = addu v4, v5
  ret v6
}
"""

#: Recursion with a mid-block recursive call, a spill slot stored
#: before it and reloaded after it, and a final ``ret`` with no value.
RECURSION = """
global out 1

func count(1) returns {
entry:
  v0 = param 0
  sw v0, $sp, 0
  blez v0, base
rec:
  v3 = addiu v0, -1
  v4 = call count(v3)
  v5 = lw $sp, 0
  v6 = addu v4, v5
  ret v6
base:
  ret v0
}

func main(0) {
entry:
  v0 = li 6
  v1 = call count(v0)
  v2 = li @out
  sw v1, v2, 0
  ret
}
"""

#: Unverified: a mid-block branch taken on odd counts and not taken on
#: even ones, and a mid-block jump with dead code after it.
UNVERIFIED = """
func main(0) {
entry:
  v0 = li 5
  v1 = li 0
loop:
  v1 = addu v1, v0
  v2 = andi v0, 1
  bgtz v2, odd
  v1 = addiu v1, 10
  j tail
  v1 = addiu v1, 100
odd:
  v1 = addiu v1, 1
tail:
  v0 = addiu v0, -1
  bgtz v0, loop
exit:
  ret v1
}
"""

#: name -> (program text, ``$sp`` frame sizes, value, sha256 of
#: ``packed.to_bytes()``) on a little-endian host; the digests were
#: computed with the interpreter that appended the columns one
#: instruction at a time.
GOLDEN = {
    "calls": (
        CALLS,
        {},
        23,
        "d5de518c93fa8b0289178f8ab8b5b0e64e1e7eedf51c1011fba8d985a28e26c5",
    ),
    "recursion": (
        RECURSION,
        {"count": 8},
        None,
        "9ea89a43dcd0b79efd91316f10db28f159bd77de369c9f5715dd3a001d8f531b",
    ),
    "unverified": (
        UNVERIFIED,
        {},
        38,
        "fb7e8a2ffce05093aaa9a2ea0b25a399a224998329a16fe4337ac729d72e8ac2",
    ),
}


def _program(text, frames):
    program = parse_program(text)
    for name, size in frames.items():
        program.function(name).frame_size = size
    return program


@pytest.mark.skipif(sys.byteorder != "little", reason="digest pins little-endian arrays")
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_segment_boundaries_are_pinned(name):
    text, frames, value, digest = GOLDEN[name]
    program = _program(text, frames)
    run = run_program(program, collect_trace=True)
    assert run.value == value
    packed = run.packed
    assert packed.n == run.instructions
    assert hashlib.sha256(packed.to_bytes()).hexdigest() == digest
    repacked = pack_entries(packed.unpack_entries(program), value=packed.value)
    assert repacked.to_bytes() == packed.to_bytes()


def test_mid_block_branch_outcomes_and_addresses_land_on_their_entries():
    program = _program(UNVERIFIED, {})
    entries = run_program(program, collect_trace=True).packed.unpack_entries(program)
    # the mid-block bgtz tests v0 & 1 for v0 = 5, 4, 3, 2, 1
    mid = [e.taken for e in entries if e.instr.target == "odd"]
    assert mid == [True, False, True, False, True]
    program = _program(CALLS, {})
    entries = run_program(program, collect_trace=True).packed.unpack_entries(program)
    base = program.global_address("buf")
    assert [(e.instr.op.name, e.mem_addr) for e in entries if e.mem_addr is not None] == [
        ("SB", base + 5),
        ("LB", base + 5),
        ("LBU", base + 5),
    ]
    assert all(e.mem_addr is None for e in entries if e.instr.op.name not in ("SB", "LB", "LBU"))


# ---------------------------------------------------------------------------
# tracing does not perturb execution
# ---------------------------------------------------------------------------

SEEDS = range(30)


def _outcome(program, **kwargs):
    run = run_program(program, **kwargs)
    return (
        run.value,
        run.instructions,
        list(run.profile.counts.items()),
        sorted(run.state.memory._words.items()),
    )


def _failure(program, **kwargs):
    try:
        run_program(program, **kwargs)
    except (ExecutionError, FuelExhausted) as exc:
        return type(exc), str(exc)
    raise AssertionError("the run did not fail")


@pytest.mark.parametrize("seed", SEEDS)
def test_traced_and_untraced_runs_agree(seed):
    program = compile_source(build_program(seed), optimize=True)
    untraced = _outcome(program)
    assert _outcome(program, collect_trace=True) == untraced
    # a fuel budget that runs out partway through the run
    fuel = untraced[1] // 2
    assert _failure(program, fuel=fuel, collect_trace=True) == _failure(program, fuel=fuel)


@pytest.mark.parametrize(
    "body,message",
    [
        # each failing instruction sits in the middle of its segment
        (["v0 = li 4098", "v1 = li 1", "v2 = lw v0, 0", "v3 = li 2", "ret v3"],
         "unaligned word load at 0x1002"),
        (["v0 = li 1", "v1 = addu v0, v9", "v2 = li 2", "ret v2"],
         "main: read of undefined register v9"),
        (["v0 = li 1", "v1 = call leaf(v0)", "v2 = li 0", "v3 = div v1, v2", "ret v3"],
         "integer division by zero"),
    ],
)
def test_a_failure_inside_a_segment_is_the_same_traced(body, message):
    lines = "\n".join(f"  {line}" for line in body)
    program = parse_program(
        f"""
func leaf(1) returns {{
entry:
  v0 = param 0
  ret v0
}}

func main(0) {{
entry:
{lines}
}}
"""
    )
    failure = _failure(program)
    assert failure == (ExecutionError, message)
    assert _failure(program, collect_trace=True) == failure
