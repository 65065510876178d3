"""The producer-distance columns a pack carries for the timing simulator.

:meth:`~repro.trace.pack.PackedTrace.producer_columns` resolves, once
per pack, which earlier entry last wrote each token an entry reads; the
encoding stores the result, so a decoded pack derives nothing.  These
tests check the derivation against a direct token -> last-writer walk
over the entry stream, at the ``0xFFFF`` clip and for a read of a token
the same entry writes; that a decoded pack carries the columns a fresh
derivation gives and simulates like a fresh pack; that a damaged
producer section is rejected; and that the encoding holds only what
replay reads, so a decoded pack refuses to unpack.
"""

from __future__ import annotations

import json
from array import array

import pytest
from hypothesis import given, settings

from repro.errors import TracePackError
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.registers import virtual_reg
from repro.minic.compile import compile_source
from repro.runtime.interp import run_program
from repro.runtime.trace import Subsystem, TraceEntry
from repro.sim.config import config_for_width
from repro.sim.pipeline import simulate_trace
from repro.trace.pack import (
    MAGIC,
    NO_PRODUCER,
    TABLE1_FRONT_END,
    PackedTrace,
    _producer_distances,
    pack_entries,
)
from tests.sim.test_golden_counters import GOLDEN
from tests.sim.test_golden_counters import smoke_packs  # noqa: F401 (fixture)
from tests.sim.test_reference_equivalence import MANY_ARGS_SOURCE, many_args_pack
from tests.sim.test_sim_properties import random_trace

_ADD = Instruction(Opcode.ADDU, defs=[virtual_reg(0)], uses=[virtual_reg(1)] * 2)


def _entry(reads=(), writes=()) -> TraceEntry:
    return TraceEntry(
        _ADD,
        0x400000,
        Subsystem.INT,
        tuple((0, name) for name in reads),
        tuple((0, name) for name in writes),
    )


def _naive(entries: list[TraceEntry]) -> list[list[int]]:
    """Each entry's producer distance per read, clipped like the columns."""
    last: dict = {}
    out = []
    for s, entry in enumerate(entries):
        out.append(
            [min(s - last.get(token, -NO_PRODUCER), NO_PRODUCER) for token in entry.reads]
        )
        for token in entry.writes:
            last[token] = s
    return out


def _flatten(pack: PackedTrace) -> list[list[int]]:
    first, second, more = pack.producer_columns()
    reads = [b - a for a, b in zip(pack.read_offsets, pack.read_offsets[1:])]
    return [
        ([first[s]] if k > 0 else [])
        + ([second[s]] if k > 1 else [])
        + more.get(s, [])
        for s, k in enumerate(reads)
    ]


@settings(max_examples=40, deadline=None)
@given(random_trace())
def test_columns_match_a_last_writer_walk(trace):
    pack = pack_entries(trace)
    first, second, more = pack.producer_columns()
    assert len(first) == len(second) == len(trace)
    assert _flatten(pack) == _naive(trace)
    # a missing read is "no producer"; only entries with 3+ reads overflow
    for s, entry in enumerate(trace):
        if len(entry.reads) < 2:
            assert second[s] == NO_PRODUCER
        if not entry.reads:
            assert first[s] == NO_PRODUCER
        assert (s in more) == (len(entry.reads) > 2)


def test_writer_at_or_beyond_the_clip_reads_as_none():
    far = NO_PRODUCER + 1
    entries = [_entry(writes=["x"])] + [_entry() for _ in range(far + 1)]
    # readers of x at distances 0xFFFE, 0xFFFF and 0x10000, in every position
    entries[NO_PRODUCER - 1] = _entry(reads=["x", "x", "x"])
    entries[NO_PRODUCER] = _entry(reads=["x", "x", "x"])
    entries[far] = _entry(reads=["x", "x", "x"])
    first, second, more = pack_entries(entries).producer_columns()
    near = NO_PRODUCER - 1
    assert (first[near], second[near], more[near]) == (near, near, [near])
    for s in (NO_PRODUCER, far):
        assert (first[s], second[s], more[s]) == (NO_PRODUCER,) * 2 + ([NO_PRODUCER],)


def test_read_of_own_write_sees_the_earlier_writer():
    entries = [
        _entry(writes=["i"]),
        _entry(writes=["j"]),
        _entry(reads=["i", "j", "i"], writes=["i"]),  # i = i + j
        _entry(reads=["i"], writes=["i"]),
        _entry(reads=["k"], writes=["k"]),  # no earlier writer of k
    ]
    first, second, more = pack_entries(entries).producer_columns()
    assert (first[2], second[2], more[2]) == (2, 1, [2])
    assert first[3] == 1
    assert first[4] == NO_PRODUCER


SMOKE_CELLS = sorted({(workload, scheme) for workload, scheme, _ in GOLDEN})


@pytest.mark.parametrize(
    "cell", SMOKE_CELLS + [None], ids=[f"{w}/{s}" for w, s in SMOKE_CELLS] + ["many-args"]
)
def test_decoded_pack_carries_fresh_columns(smoke_packs, cell):  # noqa: F811
    pack = many_args_pack() if cell is None else smoke_packs[cell]
    data = pack.to_bytes()
    decoded = PackedTrace.from_bytes(data)
    assert decoded._producers is not None  # nothing left to derive
    assert decoded.producer_columns() == _producer_distances(pack)
    assert decoded.to_bytes() == data


def test_decoded_and_fresh_packs_simulate_alike():
    """Stored columns on both widths, against columns derived for the
    4-way run and reused by the 8-way one."""
    decoded = PackedTrace.from_bytes(many_args_pack().to_bytes())
    fresh = many_args_pack()
    derived = []
    for width in (4, 8):
        config = config_for_width(width)
        assert (
            simulate_trace(decoded, config).to_counters()
            == simulate_trace(fresh, config).to_counters()
        )
        derived.append(fresh._producers)
    assert derived[0] is not None and derived[1] is derived[0]


def _damaged(edit) -> bytes:
    """The many-argument pack, encoded with ``edit`` applied to its
    columns: a well-formed file whose producer section is wrong."""
    pack = many_args_pack()
    pack._producers = edit(*_producer_distances(pack))
    return pack.to_bytes()


@pytest.mark.parametrize(
    ("edit", "match"),
    [
        (lambda f, s, m: (f[:-1], s, m), "n entries"),
        (lambda f, s, m: (f, s + array("H", [0]), m), "n entries"),
        (lambda f, s, m: (f, s, {-1: [1], **m}), "out of range"),
        (lambda f, s, m: (f, s, {**m, len(f): [1]}), "out of range"),
        (lambda f, s, m: (f, s, dict(reversed(m.items()))), "unsorted"),
    ],
    ids=[
        "short-first", "long-second", "negative-entry", "entry-past-n",
        "unsorted-entries",
    ],
)
def test_damaged_producer_section_is_rejected(edit, match):
    with pytest.raises(TracePackError, match=match):
        PackedTrace.from_bytes(_damaged(edit))


def test_short_front_end_section_is_rejected():
    pack = many_args_pack()
    pack._front_end[TABLE1_FRONT_END] = pack.front_end_events()[:-1]
    with pytest.raises(TracePackError, match="front-end column must have n entries"):
        PackedTrace.from_bytes(pack.to_bytes())


def test_encoding_holds_only_what_replay_reads():
    data = many_args_pack().to_bytes()
    prefix = len(MAGIC) + 32 + 4
    header_len = int.from_bytes(data[prefix - 4:prefix], "big")
    header = json.loads(data[prefix:prefix + header_len])
    assert header["version"] == 5
    assert [name for name, _, _ in header["arrays"]] == [
        "pcs", "kinds", "fp_side", "int_defs", "fp_defs",
        "instr_ids", "mem_addr", "taken",
        "first_producer", "second_producer", "more_entries", "more_distances",
        "front_end",
    ]
    assert "names" not in header


def test_decoded_pack_refuses_to_unpack():
    program = compile_source(MANY_ARGS_SOURCE)
    fresh = run_program(program, collect_trace=True).packed
    assert len(fresh.unpack_entries(program)) == fresh.n
    decoded = PackedTrace.from_bytes(fresh.to_bytes())
    with pytest.raises(TracePackError, match="replay-only"):
        decoded.unpack_entries(program)
