"""Trace format 5: ``instr_ids`` and ``mem_addr`` held narrow, per pack.

A fresh pack writes both columns as ``'q'``; encoding and
:meth:`~repro.trace.pack.PackedTrace.drop_tokens` narrow them to the
smallest typecode that fits the pack (``instr_ids`` by its static-row
count, ``mem_addr`` by its range), and the manifest records the choice.
Every allowed typecode must round-trip byte for byte, a manifest naming
any other is a store miss, the pooled fresh pack must match its decoded
copy column for column, and narrowing must not move a single simulator
counter.  :func:`~repro.workloads.compile_workload` compiles each
workload once per process, so its copies must stay independent.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.errors import TracePackError
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.printer import print_program
from repro.ir.registers import virtual_reg
from repro.minic.compile import compile_source
from repro.runtime.interp import run_program
from repro.runtime.trace import Subsystem, TraceEntry
from repro.sim.config import eight_way, four_way
from repro.sim.pipeline import simulate_trace
from repro.trace.pack import (
    ARRAY_LAYOUT,
    MAGIC,
    PackedTrace,
    addr_typecode,
    ids_typecode,
    pack_entries,
)
from repro.trace.store import TRACE_CACHE_ENV, TraceStore, store_trace, trace_pool
from repro.workloads import compile_workload, workload_source

KEY = "cd" + "0" * 62

LOAD = Instruction(Opcode.LW, defs=[virtual_reg(1)], uses=[virtual_reg(0)])
ALU = Instruction(Opcode.ADDU, defs=[virtual_reg(2)], uses=[virtual_reg(1)] * 2)


def _pack(rows: int, addrs: list[int]) -> PackedTrace:
    """A hand-built pack: ``rows`` ALU rows, one entry each, then a load
    per address (one more row)."""
    entries = [
        TraceEntry(ALU, 0x400000 + 4 * i, Subsystem.INT, ((0, "r1"),), ((0, "r2"),))
        for i in range(rows)
    ]
    entries += [
        TraceEntry(LOAD, 0x300000, Subsystem.INT, ((0, "r0"),), ((0, "r1"),),
                   mem_addr=addr)
        for addr in addrs
    ]
    return pack_entries(entries, value=3)


@pytest.mark.parametrize(
    "rows,ids_code",
    [(0, "B"), (1, "B"), (256, "B"), (257, "H"), (65536, "H"), (65537, "q")],
)
def test_ids_typecode_follows_the_row_count(rows, ids_code):
    assert ids_typecode(rows) == ids_code


@pytest.mark.parametrize(
    "low,high,addr_code",
    [
        (-1, -1, "b"), (-128, 127, "b"), (-129, 0, "h"), (0, 128, "h"),
        (-(1 << 15), (1 << 15) - 1, "h"), (0, 1 << 15, "i"),
        (-(1 << 31), (1 << 31) - 1, "i"), (-1, 0x7FFFEFF4, "i"),
        (-(1 << 31) - 1, 0, "q"), (-1, 1 << 31, "q"),
    ],
)
def test_addr_typecode_is_the_narrowest_signed_fit(low, high, addr_code):
    assert addr_typecode(low, high) == addr_code


@pytest.mark.parametrize(
    "rows,addrs,ids_code,addr_code",
    [
        (3, [], "B", "b"),
        (255, [-128, 127], "B", "b"),
        (300, [1000], "H", "h"),
        (3, [-(1 << 15), 0x7FFFEFF4], "B", "i"),
        (3, [-(1 << 31) - 8], "B", "q"),
        (3, [1 << 31], "B", "q"),
        (65536, [0], "q", "b"),
    ],
    ids=["empty-mem", "byte-bounds", "rows-300", "stack", "below-int",
         "above-int", "rows-65537"],
)
def test_every_allowed_typecode_round_trips(rows, addrs, ids_code, addr_code):
    pack = _pack(rows, addrs)
    ids, mem = pack.instr_ids.tolist(), pack.mem_addr.tolist()
    assert (pack.instr_ids.typecode, pack.mem_addr.typecode) == ("q", "q")
    data = pack.to_bytes()
    assert (pack.instr_ids.typecode, pack.mem_addr.typecode) == (ids_code, addr_code)
    decoded = PackedTrace.from_bytes(data)
    assert (decoded.instr_ids.typecode, decoded.mem_addr.typecode) == (
        ids_code, addr_code,
    )
    assert decoded.instr_ids.tolist() == ids
    assert decoded.mem_addr.tolist() == mem
    assert decoded.to_bytes() == data
    assert pack.to_bytes() == data


def _with_manifest_typecode(data: bytes, column: str, typecode: str) -> bytes:
    """``data`` with ``column``'s manifest typecode replaced and the
    digest recomputed, so only the typecode check can reject it."""
    prefix = len(MAGIC) + 32 + 4
    header_len = int.from_bytes(data[prefix - 4:prefix], "big")
    doc = json.loads(data[prefix:prefix + header_len])
    for row in doc["arrays"]:
        if row[0] == column:
            row[1] = typecode
    header = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    payload = data[prefix + header_len:]
    digest = hashlib.sha256(header + payload).digest()
    return MAGIC + digest + len(header).to_bytes(4, "big") + header + payload


@pytest.mark.parametrize(
    "column,typecode",
    [("instr_ids", "b"), ("instr_ids", "i"), ("mem_addr", "B"),
     ("mem_addr", "H"), ("mem_addr", "d"), ("taken", "B"), ("pcs", "i"),
     ("first_producer", "B")],
)
def test_manifest_typecode_outside_the_allowed_set_is_a_miss(
    tmp_path, column, typecode
):
    data = _pack(3, [0x1000]).to_bytes()
    bad = _with_manifest_typecode(data, column, typecode)
    with pytest.raises(TracePackError, match=f"bad manifest entry for '{column}'"):
        PackedTrace.from_bytes(bad)
    store = TraceStore(tmp_path)
    store.put(KEY, _pack(3, [0x1000]))
    assert store.get(KEY) is not None
    store.path_for(KEY).write_bytes(bad)
    assert store.get(KEY) is None


MEMORY_SOURCE = """
int a[64];
int main() {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < 64; i = i + 1) {
        a[i] = acc + i;
        if (i & 1) {
            acc = acc + a[i];
        }
    }
    return acc & 0xffff;
}
"""


def _traced():
    program = compile_source(MEMORY_SOURCE)
    return program, run_program(program, collect_trace=True)


def test_pooled_fresh_pack_matches_its_decoded_copy(tmp_path, monkeypatch):
    monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
    _, run = _traced()
    fresh = run.packed
    store_trace(KEY, fresh)
    assert trace_pool().get(KEY) is fresh
    assert fresh.read_tokens is None
    decoded = TraceStore(tmp_path).get(KEY)
    assert decoded is not None
    assert (fresh.instr_ids.typecode, fresh.mem_addr.typecode) == ("B", "h")
    for name, _ in ARRAY_LAYOUT:
        assert getattr(fresh, name).typecode == getattr(decoded, name).typecode, name
        assert getattr(fresh, name) == getattr(decoded, name), name
    assert fresh.producer_columns() == decoded.producer_columns()
    assert fresh.front_end_events() == decoded.front_end_events()


def test_narrowing_leaves_every_counter_unchanged():
    program, run = _traced()
    entries = run.packed.unpack_entries(program)
    wide = pack_entries(entries)
    narrow = pack_entries(entries)
    narrow.drop_tokens()
    assert (wide.instr_ids.typecode, wide.mem_addr.typecode) == ("q", "q")
    assert (narrow.instr_ids.typecode, narrow.mem_addr.typecode) == ("B", "h")
    decoded = PackedTrace.from_bytes(narrow.to_bytes())
    for config in (four_way(), eight_way()):
        for perfect in (False, True):
            expected = simulate_trace(wide, config, perfect).to_counters()
            assert simulate_trace(narrow, config, perfect).to_counters() == expected
            assert simulate_trace(decoded, config, perfect).to_counters() == expected
    assert narrow.dynamic_mix() == wide.dynamic_mix()


def test_compiled_workloads_are_independent_copies():
    first = compile_workload("compress", 150)
    second = compile_workload("compress", 150)
    assert first is not second
    main = first.functions["main"]
    main.blocks[0].instructions.clear()
    del main.blocks[1:]
    first.functions.clear()
    third = compile_workload("compress", 150)
    fresh = compile_source(workload_source("compress", 150))
    assert print_program(third) == print_program(fresh)
    assert print_program(second) == print_program(fresh)
