"""The generic abstract-interpretation engine."""

from __future__ import annotations

from repro.analysis.absint import AbstractDomain, interpret
from repro.ir.opcodes import OpKind
from repro.ir.parser import parse_function

DIAMOND = """
func f(1) returns {
entry:
  v0 = param 0
  v1 = li 0
  blez v0, low
high:
  v2 = li 10
  j join
low:
  v2 = li 20
join:
  v3 = addu v2, v1
  ret v3
}
"""

LOOP = """
func f(0) {
entry:
  v0 = li 0
loop:
  v0 = addiu v0, 1
  v1 = slti v0, 10
  v2 = li 0
  bne v1, v2, loop
exit:
  ret
}
"""

UNREACHABLE = """
func f(0) returns {
entry:
  v0 = li 1
  ret v0
dead:
  v1 = li 2
  ret v1
}
"""


class DefCountDomain(AbstractDomain[int]):
    """Counts definitions along the path (joins with max)."""

    def entry_state(self, func):
        return 0

    def join(self, a, b):
        return max(a, b)

    def transfer_instruction(self, instr, state):
        return state + len(instr.defs)


class WideningProbe(AbstractDomain[int]):
    """Strictly increasing transfer: terminates only through widening
    (join = max, widen jumps to a sentinel top)."""

    TOP = 1 << 20

    def entry_state(self, func):
        return 0

    def join(self, a, b):
        return max(a, b)

    def widen(self, old, new):
        return self.TOP if new > old else old

    def transfer_instruction(self, instr, state):
        return min(state + 1, self.TOP)


class LiveDefsBackward(AbstractDomain[frozenset]):
    """Backward toy analysis: registers read below this point."""

    forward = False

    def entry_state(self, func):
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer_instruction(self, instr, state):
        state = state - frozenset(instr.defs)
        return state | frozenset(instr.uses)


class BranchPruner(DefCountDomain):
    """Marks every branch-taken edge infeasible."""

    def transfer_edge(self, func, src, dst_label, state):
        term = src.terminator
        if term is not None and term.kind is OpKind.BRANCH and term.target == dst_label:
            return None
        return state


class TestForward:
    def test_diamond_joins(self):
        func = parse_function(DIAMOND)
        result = interpret(func, DefCountDomain())
        # both arms define 2 (entry) + 1 values before the join
        assert result.in_states["join"] == 3
        assert result.out_states["join"] == 4

    def test_all_blocks_reachable(self):
        func = parse_function(DIAMOND)
        result = interpret(func, DefCountDomain())
        assert all(result.reachable(b.label) for b in func.blocks)

    def test_cfg_unreachable_block_is_bottom(self):
        func = parse_function(UNREACHABLE)
        result = interpret(func, DefCountDomain())
        assert not result.reachable("dead")
        assert result.in_states["dead"] is None

    def test_widening_terminates_infinite_ascent(self):
        func = parse_function(LOOP)
        result = interpret(func, WideningProbe())
        assert result.reachable("exit")
        assert result.iterations < 50

    def test_infeasible_edge_prunes_block(self):
        func = parse_function(DIAMOND)
        result = interpret(func, BranchPruner())
        assert not result.reachable("low")  # only reached via the taken edge
        assert result.reachable("high")
        assert result.reachable("join")


class TestBackward:
    def test_live_registers(self):
        func = parse_function(DIAMOND)
        result = interpret(func, LiveDefsBackward())
        # backward: out_states holds the state at the block *start*
        live_into_join = result.out_states["join"]
        names = {reg.name for reg in live_into_join}
        assert "v2" in names and "v1" in names
