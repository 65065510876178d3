"""A traced run writes the trace a straight-line segment at a time.

Segments start at block starts and just after calls and control
instructions, so the places where one ends are where a packing slip
would show: a call ending a block or in its middle, a return to a
mid-block call site, loads and stores patching their ``mem_addr`` slot,
a mid-block branch (taken, and not taken so that execution falls into
the rest of its block), a mid-block jump, and the final ``ret``.
:data:`GOLDEN` pins the pack of a small program for each (its encoding,
and in :data:`GOLDEN_TOKENS` the token columns the encoding does not
hold), and the second half checks that tracing never changes what a
run computes.
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
from tests.trace.test_golden_pack import token_digest

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
#: ``packed.to_bytes()``) on a little-endian host.
GOLDEN = {
    "calls": (
        CALLS,
        {},
        23,
        "944d614e669bd9b3a230de5c0284a0dbcc51d72692722f14cfb881f9e1b69b3e",
    ),
    "recursion": (
        RECURSION,
        {"count": 8},
        None,
        "5abd424e497121c668b778a5c66738e22a8e1a8c386636e75244021adb88ad91",
    ),
    "unverified": (
        UNVERIFIED,
        {},
        38,
        "4dddd8edcdccc5c3d6feaa37864f02f601f22bcb228b09f05570ce5462fad402",
    ),
}

#: name -> :func:`~tests.trace.test_golden_pack.token_digest` of the
#: traced run's pack, on a little-endian host.
GOLDEN_TOKENS = {
    "calls": "88a1f69d71f402db73e809560f218d7492e3c897b5b82f8dde3a2efb6253b3cd",
    "recursion": "d4ec6dcb55dc546e8479b3c0ab288c27873ec01490449b01f143f999da8f9c59",
    "unverified": "1c1cdc9efee105b37512ba0290a58e078f170108b987f7d334fbbc09255c0544",
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
    assert token_digest(repacked) == token_digest(packed)


@pytest.mark.skipif(sys.byteorder != "little", reason="digest pins little-endian arrays")
@pytest.mark.parametrize("name", sorted(GOLDEN_TOKENS))
def test_segment_token_columns_are_pinned(name):
    text, frames, _, _ = GOLDEN[name]
    run = run_program(_program(text, frames), collect_trace=True)
    assert token_digest(run.packed) == GOLDEN_TOKENS[name]


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
