"""Tests for pipeline timeline recording and rendering."""

import pytest

from repro.ir.parser import parse_program
from repro.runtime.interp import run_program
from repro.sim.config import four_way
from repro.sim.timeline import render_timeline, simulate_with_timeline


@pytest.fixture
def small_trace():
    program = parse_program(
        """
global g 16

func main(0) {
entry:
  v0 = li @g
  v1 = li 5
  sw v1, v0, 0
  v2 = lw v0, 0
  v3 = addiu v2, 1
  v4 = mult v3, v3
  sw v4, v0, 4
  ret
}
"""
    )
    return run_program(program, collect_trace=True).packed.unpack_entries(program)


class TestRecording:
    def test_timeline_covers_every_instruction(self, small_trace):
        stats, timeline = simulate_with_timeline(small_trace, four_way())
        assert len(timeline) == len(small_trace)
        assert stats.retired == len(small_trace)

    def test_stage_ordering_invariants(self, small_trace):
        _, timeline = simulate_with_timeline(small_trace, four_way())
        for dyn in timeline:
            assert 0 < dyn.fetched_at <= dyn.dispatched_at
            assert dyn.dispatched_at < dyn.issued_at  # dispatch->issue takes a cycle
            assert dyn.issued_at < dyn.complete
            assert dyn.complete <= dyn.retired_at

    def test_retirement_in_program_order(self, small_trace):
        _, timeline = simulate_with_timeline(small_trace, four_way())
        retire_cycles = [dyn.retired_at for dyn in timeline]
        assert retire_cycles == sorted(retire_cycles)

    def test_multiply_latency_visible(self, small_trace):
        _, timeline = simulate_with_timeline(small_trace, four_way())
        mult = next(d for d in timeline if d.entry.instr.op.value == "mult")
        assert mult.complete - mult.issued_at == 6

    def test_dependent_load_waits_for_store(self, small_trace):
        _, timeline = simulate_with_timeline(small_trace, four_way())
        store = next(d for d in timeline if d.entry.instr.op.value == "sw")
        load = next(d for d in timeline if d.entry.instr.op.value == "lw")
        assert load.issued_at > store.issued_at

    def test_not_recorded_by_default(self, small_trace):
        from repro.sim.pipeline import TimingSimulator

        sim = TimingSimulator(four_way())
        sim.run(small_trace)
        assert sim.timeline == []


class TestRendering:
    def test_render_contains_stage_letters(self, small_trace):
        _, timeline = simulate_with_timeline(small_trace, four_way())
        text = render_timeline(timeline)
        for letter in "FDICR":
            assert letter in text
        assert "mult" in text

    def test_render_empty(self):
        assert "empty" in render_timeline([])

    def test_render_truncates(self, small_trace):
        _, timeline = simulate_with_timeline(small_trace, four_way())
        text = render_timeline(timeline, max_instructions=2)
        assert "more instructions" in text
