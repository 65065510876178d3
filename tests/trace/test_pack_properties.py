"""Property-based pack/unpack losslessness over random MiniC programs.

Reuses the MiniC generators from the frontend test suites
(``tests.minic``): random expression trees drive program shapes —
straight-line arithmetic, loops over arrays, and recursion-heavy call
chains that exercise the per-activation frame-id token interning.  For
every generated program, the pack a traced run returns must survive
``unpack`` → :func:`pack_entries` byte for byte, in its encoding and
in its in-memory token columns (so the interpreter's
direct packing and the entry-stream packer agree), the encoding must
round-trip byte-stably, and the packed summary/simulation must match
the entry-stream ones.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.minic.compile import compile_source
from repro.runtime.interp import run_program
from repro.sim.config import four_way
from repro.sim.pipeline import simulate_trace
from repro.trace.pack import TOKEN_LAYOUT, PackedTrace, pack_entries

from tests.minic.test_properties import int_expr
from tests.trace.test_replay_equivalence import entry_mix


def _capture(source: str):
    program = compile_source(source)
    run = run_program(program, collect_trace=True)
    return program, run


def _assert_lossless(program, run):
    """The run's entries; checks the pack round-trips through them."""
    pack = run.packed
    entries = pack.unpack_entries(program)
    assert len(entries) == run.instructions
    data = pack.to_bytes()
    repacked = pack_entries(entries, value=run.value)
    assert repacked.to_bytes() == data
    # the encoding holds no tokens: compare the in-memory columns too
    for name, _ in TOKEN_LAYOUT:
        assert getattr(repacked, name) == getattr(pack, name), name
    assert repacked.names == pack.names
    assert PackedTrace.from_bytes(data).to_bytes() == data
    assert pack.dynamic_mix() == entry_mix(entries)
    return entries


@settings(max_examples=25, deadline=None)
@given(int_expr())
def test_straightline_roundtrip(expr):
    source = f"int main() {{ return ({expr.text}) & 0xffff; }}"
    program, run = _capture(source)
    _assert_lossless(program, run)


@settings(max_examples=15, deadline=None)
@given(int_expr(), st.integers(1, 12))
def test_loopy_program_roundtrip_and_replay(expr, n):
    """Loops + array traffic: packed replay must also be bit-identical."""
    source = f"""
int a[16];
int main() {{
    int i;
    int acc;
    acc = ({expr.text}) & 255;
    for (i = 0; i < {n}; i = i + 1) {{
        a[i] = acc + i;
        acc = acc + a[i];
    }}
    return acc & 0xffff;
}}
"""
    program, run = _capture(source)
    entries = _assert_lossless(program, run)
    fresh = simulate_trace(entries, four_way())
    replayed = simulate_trace(run.packed, four_way())
    assert replayed.to_counters() == fresh.to_counters()


@settings(max_examples=15, deadline=None)
@given(int_expr(), st.integers(2, 10))
def test_recursive_program_exercises_frame_interning(expr, depth):
    """Recursion gives the same register name a fresh frame id per
    activation; interning must keep those tokens distinct."""
    source = f"""
int rec(int n, int acc) {{
    if (n <= 0) {{
        return acc + (({expr.text}) & 63);
    }}
    return rec(n - 1, acc + n);
}}
int main() {{
    return rec({depth}, 0) & 0xffff;
}}
"""
    program, run = _capture(source)
    entries = _assert_lossless(program, run)
    pack = run.packed
    frames = {frame for frame, _name in
              (pack.token(t) for t in range(len(pack.token_frames)))}
    assert len(frames) > depth, "recursive activations share frame ids"
    fresh = simulate_trace(entries, four_way())
    replayed = simulate_trace(pack, four_way())
    assert replayed.to_counters() == fresh.to_counters()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.booleans())
def test_mem_addr_and_taken_sentinels_roundtrip(addr, taken):
    """-1 sentinels never collide with real values: None, 0 and real
    addresses/outcomes all survive the dynamic columns."""
    from repro.ir.instructions import Instruction
    from repro.ir.opcodes import Opcode
    from repro.ir.registers import virtual_reg
    from repro.runtime.trace import Subsystem, TraceEntry

    load = Instruction(Opcode.LW, defs=[virtual_reg(1)], uses=[virtual_reg(0)])
    branch = Instruction(Opcode.BNE, uses=[virtual_reg(1)] * 2, target="x")
    alu = Instruction(Opcode.ADDU, defs=[virtual_reg(2)], uses=[virtual_reg(1)] * 2)
    entries = [
        TraceEntry(load, 0x400000, Subsystem.INT, ((0, "r0"),), ((0, "r1"),),
                   mem_addr=addr),
        TraceEntry(branch, 0x400004, Subsystem.INT, ((0, "r1"),), (),
                   taken=taken),
        TraceEntry(alu, 0x400008, Subsystem.INT, ((0, "r1"),), ((0, "r2"),)),
    ]
    pack = pack_entries(entries)
    assert pack.mem_addr[0] == addr
    assert pack.mem_addr[1] == -1 and pack.mem_addr[2] == -1
    assert pack.taken[1] == (1 if taken else 0)
    assert pack.taken[0] == -1 and pack.taken[2] == -1
    data = pack.to_bytes()
    assert PackedTrace.from_bytes(data).to_bytes() == data
