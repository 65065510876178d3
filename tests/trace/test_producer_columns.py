"""The producer-distance columns a pack derives for the timing simulator.

:meth:`~repro.trace.pack.PackedTrace.producer_columns` resolves, once
per pack, which earlier entry last wrote each token an entry reads.
These tests check it against a direct token -> last-writer walk over
the entry stream, at the ``0xFFFF`` clip, for a read of a token the
same entry writes, and that the cached columns give the same
simulation as fresh ones and stay out of the encoding.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.registers import virtual_reg
from repro.runtime.trace import Subsystem, TraceEntry
from repro.sim.config import config_for_width
from repro.sim.pipeline import simulate_trace
from repro.trace.pack import NO_PRODUCER, PackedTrace, pack_entries
from tests.sim.test_reference_equivalence import many_args_pack
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


def test_columns_are_cached_and_never_serialized():
    pack = many_args_pack()
    data = pack.to_bytes()
    columns = pack.producer_columns()
    assert pack.producer_columns() is columns
    assert pack.to_bytes() == data
    assert PackedTrace.from_bytes(data)._producers is None


def test_one_pack_on_both_widths_matches_fresh_packs():
    """The 8-way run reuses the columns the 4-way run derived."""
    data = many_args_pack().to_bytes()
    shared = PackedTrace.from_bytes(data)
    for width in (4, 8):
        config = config_for_width(width)
        fresh = PackedTrace.from_bytes(data)
        assert (
            simulate_trace(shared, config).to_counters()
            == simulate_trace(fresh, config).to_counters()
        )
        assert shared._producers is not None
