"""Interval + origin-class abstract interpretation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.absint import AbstractDomain
from repro.analysis.liveness import compute_liveness
from repro.analysis.valueclass import (
    BOOL,
    Interval,
    ValueClassDomain,
    ValueInfo,
    _UNBOUND,
    _UNKNOWN,
    add_interval,
    analyze_values,
    const,
    join_interval,
    meet_interval,
    mul_interval,
    shift_left_interval,
    sub_interval,
    widen_interval,
)
from repro.analysis.warnings import analyze_function
from repro.gen.build import build_program
from repro.ir.opcodes import Opcode, OpKind
from repro.ir.parser import parse_function, parse_program
from repro.ir.registers import ZERO, Reg, RegClass
from repro.minic.compile import compile_source


def instr_named(func, op):
    return next(i for i in func.instructions() if i.op is op)


class TestIntervalAlgebra:
    def test_join(self):
        assert join_interval(const(3), const(7)) == Interval(3, 7)
        assert join_interval(Interval(None, 5), const(7)) == Interval(None, 7)

    def test_meet_empty(self):
        assert meet_interval(Interval(0, 3), Interval(5, 9)) is None
        assert meet_interval(Interval(0, 5), Interval(5, 9)) == const(5)

    def test_arith(self):
        assert add_interval(Interval(1, 2), Interval(10, 20)) == Interval(11, 22)
        assert sub_interval(Interval(1, 2), Interval(10, 20)) == Interval(-19, -8)
        assert mul_interval(Interval(-2, 3), Interval(4, 5)) == Interval(-10, 15)
        assert shift_left_interval(Interval(1, 3), 4) == Interval(16, 48)

    def test_widen(self):
        assert widen_interval(Interval(0, 10), Interval(0, 11)) == Interval(0, None)
        assert widen_interval(Interval(0, 10), Interval(-1, 10)) == Interval(None, 10)
        assert widen_interval(Interval(0, 10), Interval(0, 10)) == Interval(0, 10)

    def test_overflow_clamps_to_infinity(self):
        big = Interval(1, (1 << 31) - 1)
        out = add_interval(big, const(1))
        assert out.hi is None  # wrapped bound dropped, stays sound
        assert out.lo == 2


class TestTransfer:
    def test_constant_propagation(self):
        func = parse_function(
            """
func f(0) returns {
entry:
  v0 = li 5
  v1 = addiu v0, 3
  v2 = sll v1, 1
  ret v2
}
"""
        )
        values = analyze_values(func)
        ret = instr_named(func, Opcode.RET)
        assert values.value_at(ret, ret.uses[0]).interval == const(16)

    def test_branch_refinement(self):
        func = parse_function(
            """
func f(1) returns {
entry:
  v0 = param 0
  blez v0, nonpos
pos:
  ret v0
nonpos:
  ret v0
}
"""
        )
        values = analyze_values(func)
        rets = [i for i in func.instructions() if i.op is Opcode.RET]
        block_of = func.block_of()
        for ret in rets:
            interval = values.value_at(ret, ret.uses[0]).interval
            if block_of[ret.uid] == "pos":
                assert interval.lo == 1 and interval.hi is None
            else:
                assert interval.hi == 0 and interval.lo is None

    def test_loop_widening_keeps_lower_bound(self):
        func = parse_function(
            """
func f(0) returns {
entry:
  v0 = li 0
loop:
  v0 = addiu v0, 1
  v1 = slti v0, 10
  v2 = li 0
  bne v1, v2, loop
exit:
  ret v0
}
"""
        )
        values = analyze_values(func)
        ret = instr_named(func, Opcode.RET)
        interval = values.value_at(ret, ret.uses[0]).interval
        assert interval.lo is not None and interval.lo >= 0

    def test_infeasible_branch_prunes_block(self):
        func = parse_function(
            """
func f(0) returns {
entry:
  v0 = li 0
  bne v0, v0, dead
live:
  v1 = li 3
  ret v1
dead:
  v2 = li 9
  ret v2
}
"""
        )
        values = analyze_values(func)
        assert values.reachable("live")
        assert not values.reachable("dead")


class TestOrigins:
    def test_fpa_def_tags_origin(self):
        program = parse_program(
            """
global g 8
func main(0) returns {
entry:
  vf0 = li.a 5
  v1 = cp_from_comp vf0
  ret v1
}
"""
        )
        func = program.functions["main"]
        values = analyze_values(func)
        ret = instr_named(func, Opcode.RET)
        origins = values.value_at(ret, ret.uses[0]).origins
        li_a = instr_named(func, Opcode.LI_A)
        assert li_a.uid in origins

    def test_origins_survive_laundering_chain(self):
        program = parse_program(
            """
global g 64
func main(0) returns {
entry:
  vf0 = li.a @g
  vf1 = addiu.a vf0, 4
  v2 = cp_from_comp vf1
  v3 = addiu v2, 0
  v4 = move v3
  ret v4
}
"""
        )
        func = program.functions["main"]
        values = analyze_values(func)
        ret = instr_named(func, Opcode.RET)
        origins = values.value_at(ret, ret.uses[0]).origins
        assert len(origins) == 2  # li.a and addiu.a

    def test_load_is_fresh_barrier(self):
        program = parse_program(
            """
global g 64
func main(0) returns {
entry:
  vf0 = li.a @g
  v1 = cp_from_comp vf0
  v2 = lw v1, 0
  ret v2
}
"""
        )
        func = program.functions["main"]
        values = analyze_values(func)
        ret = instr_named(func, Opcode.RET)
        assert not values.value_at(ret, ret.uses[0]).origins

    def test_cp_to_comp_is_a_pure_move(self):
        """cp_to_comp writes the FP file but creates no FPa *value*: it
        only relays its INT input, so it contributes no origin itself."""
        func = parse_function(
            """
func f(0) returns {
entry:
  v0 = li 5
  vf1 = cp_to_comp v0
  v2 = cp_from_comp vf1
  ret v2
}
"""
        )
        values = analyze_values(func)
        ret = instr_named(func, Opcode.RET)
        assert not values.value_at(ret, ret.uses[0]).origins

    def test_copy_interval_follows_source(self):
        func = parse_function(
            """
func f(0) returns {
entry:
  v0 = li 7
  vf1 = cp_to_comp v0
  v2 = cp_from_comp vf1
  ret v2
}
"""
        )
        values = analyze_values(func)
        ret = instr_named(func, Opcode.RET)
        assert values.value_at(ret, ret.uses[0]).interval == const(7)


# -- lattice operations against a naive reference ------------------------

def _naive_join(a, b):
    """Reference join: every register of either side, joined field-wise
    (a register bound on one side only joins with the unknown value)."""
    out = {}
    for reg in a.keys() | b.keys():
        va = a.get(reg, ValueInfo())
        vb = b.get(reg, ValueInfo())
        out[reg] = ValueInfo(
            interval=join_interval(va.interval, vb.interval),
            origins=va.origins | vb.origins,
        )
    return out


def _naive_widen(old, new):
    out = {}
    for reg in old.keys() | new.keys():
        vo = old.get(reg, ValueInfo())
        vn = new.get(reg, ValueInfo())
        out[reg] = ValueInfo(
            interval=widen_interval(vo.interval, join_interval(vo.interval, vn.interval)),
            origins=vo.origins | vn.origins,
        )
    return out


_POOL = [Reg(f"v{i}") for i in range(6)] + [Reg(f"vf{i}", RegClass.FP) for i in range(2)]
_BOUND = st.one_of(st.none(), st.integers(-3, 3))
_VALUE = st.builds(
    ValueInfo,
    interval=st.builds(Interval, _BOUND, _BOUND),
    origins=st.frozensets(st.integers(0, 3), max_size=2),
)


def _pool_domain():
    """A domain with one state slot per register of ``_POOL``."""
    body = "".join(f"  {reg} = li 0\n" for reg in _POOL)
    return ValueClassDomain(parse_function(f"func f(0) {{\nentry:\n{body}  ret\n}}"))


def _sparse(domain, state):
    """Slot-keyed form of a register -> ValueInfo dict (absent = unbound)."""
    return {domain.slot[reg]: value for reg, value in state.items()}


def _as_dict(domain, sparse):
    """Register -> ValueInfo dict of the bound slots of ``sparse``."""
    return {reg: sparse[index] for reg, index in domain.slot.items() if index in sparse}


@st.composite
def _state_pair(draw):
    """Two states over a small register pool that share some ValueInfo
    objects, bind some registers on one side only, and are sometimes the
    very same dict."""
    shared = draw(st.lists(_VALUE, min_size=1, max_size=4))
    value = st.one_of(st.sampled_from(shared), _VALUE)
    a = draw(st.dictionaries(st.sampled_from(_POOL), value, max_size=len(_POOL)))
    if draw(st.integers(0, 4)) == 0:
        return a, a
    b = draw(st.dictionaries(st.sampled_from(_POOL), value, max_size=len(_POOL)))
    return a, b


def _sparse_pair(domain, pair):
    """Both states of ``pair`` in slot-keyed form; one dict when they are
    the same dict."""
    a, b = pair
    sa = _sparse(domain, a)
    return sa, sa if b is a else _sparse(domain, b)


def _kept_registers(liveness, blk):
    """Registers a block's out-state must keep, from the register-level
    liveness solver: live on exit, plus the terminator's operands."""
    term = blk.terminator
    operands = {reg for reg in (term.uses if term else []) if reg != ZERO}
    return liveness.live_out[blk.label] | operands


class TestLattice:
    @settings(max_examples=300, deadline=None)
    @given(_state_pair())
    def test_join_matches_naive_reference(self, pair):
        domain = _pool_domain()
        got = _as_dict(domain, domain.join(*_sparse_pair(domain, pair)))
        want = _naive_join(*pair)
        assert set(got) == set(want)
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(_state_pair())
    def test_widen_matches_naive_reference(self, pair):
        domain = _pool_domain()
        got = _as_dict(domain, domain.widen(*_sparse_pair(domain, pair)))
        want = _naive_widen(*pair)
        assert set(got) == set(want)
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(_state_pair())
    def test_state_equality_matches_dict_equality(self, pair):
        """State equality, the engine's convergence test, is equality of
        the register -> value maps."""
        domain = _pool_domain()
        a, b = pair
        sa, sb = _sparse_pair(domain, pair)
        assert domain.equal(sa, sb) == (a == b)

    def test_unbound_is_not_unknown_but_reads_as_it(self):
        """An unbound register (no key) differs from one bound to the
        unknown value, yet both read as unknown."""
        domain = _pool_domain()
        reg = _POOL[0]
        unbound = domain.entry_state(domain.func)
        assert domain.slot[reg] not in unbound
        assert _UNBOUND != ValueInfo() and ValueInfo() != _UNBOUND
        bound = _sparse(domain, {reg: ValueInfo()})
        assert not domain.equal(bound, unbound)
        assert domain.value_of(unbound, reg) is _UNKNOWN
        assert domain.value_of(bound, reg) == _UNKNOWN

    def test_def_value_is_memoized_on_input_identity(self):
        func = parse_function(
            """
func f(1) returns {
entry:
  v0 = param 0
  v1 = addiu v0, 1
  ret v1
}
"""
        )
        domain = ValueClassDomain(func)
        add = instr_named(func, Opcode.ADDIU)
        state = _sparse(domain, {add.uses[0]: ValueInfo(interval=const(4))})
        first = domain.transfer_instruction(add, state)
        second = domain.transfer_instruction(add, state.copy())
        slot = domain.slot[add.defs[0]]
        assert first[slot] is second[slot]
        assert first[slot].interval == const(5)
        moved = _sparse(domain, {add.uses[0]: ValueInfo(interval=const(9))})
        assert domain.transfer_instruction(add, moved)[slot].interval == const(10)

    def test_block_transfer_matches_instruction_fold(self):
        """Evaluating a block in one local map gives the per-instruction
        fold, cut down to the live-out registers and the terminator's
        operands; and every fixpoint in-state holds only live-in
        registers (both sets from the register-level liveness solver)."""
        for seed in (0, 5):
            program = compile_source(build_program(seed), optimize=True)
            for func in program.functions.values():
                domain = ValueClassDomain(func)
                fixpoint = analyze_values(func).fixpoint
                liveness = compute_liveness(func)
                for blk in func.blocks:
                    state = fixpoint.in_states[blk.label]
                    if state is None:
                        continue
                    assert set(_as_dict(domain, state)) <= liveness.live_in[blk.label]
                    folded = AbstractDomain.transfer_block(domain, func, blk, state)
                    got = _as_dict(domain, domain.transfer_block(func, blk, state))
                    kept = _kept_registers(liveness, blk)
                    want = {
                        reg: value
                        for reg, value in _as_dict(domain, folded).items()
                        if reg in kept
                    }
                    assert got == want


# -- sparse states: dead branch operands and dead loop temporaries --------

def _assert_dead_after_branch(values, label, reg):
    """``reg`` is bound in ``label``'s out-state but live into no block,
    so no in-state holds it."""
    slot = values.domain.slot[reg]
    assert slot in values.fixpoint.out_states[label]
    for state in values.fixpoint.in_states.values():
        assert state is None or slot not in state


class TestSparseStates:
    def test_dead_zero_compare_operand_proves_edge_infeasible(self):
        func = parse_function(
            """
func f(0) returns {
entry:
  v0 = li 5
  blez v0, dead
live:
  v1 = li 1
  ret v1
dead:
  v2 = li 2
  ret v2
}
"""
        )
        values = analyze_values(func)
        _assert_dead_after_branch(values, "entry", Reg("v0"))
        assert values.reachable("live")
        assert not values.reachable("dead")

    def test_dead_equal_constants_prove_disequality_edge_infeasible(self):
        func = parse_function(
            """
func f(0) returns {
entry:
  v0 = li 3
  v1 = li 3
  beq v0, v1, same
differ:
  v2 = li 1
  ret v2
same:
  v3 = li 2
  ret v3
}
"""
        )
        values = analyze_values(func)
        _assert_dead_after_branch(values, "entry", Reg("v0"))
        _assert_dead_after_branch(values, "entry", Reg("v1"))
        assert values.reachable("same")
        assert not values.reachable("differ")

    def test_dead_exit_operand_proves_loop_unbounded(self):
        """The unbounded-loop warning re-runs ``transfer_edge`` on the
        fixpoint's out-states, so those must keep the branch operand."""
        func = parse_function(
            """
func f(0) returns {
entry:
  v0 = li 0
loop:
  v1 = li 7
  bgtz v1, loop
exit:
  ret v0
}
"""
        )
        values = analyze_values(func)
        _assert_dead_after_branch(values, "loop", Reg("v1"))
        kinds = {(w.kind, w.block) for w in analyze_function(func)}
        assert ("unbounded-loop", "loop") in kinds
        assert ("unreachable-block", "exit") in kinds

    def test_dead_loop_temporary_does_not_drag_the_tail_along(self):
        """The counter ``v0`` changes on every trip and is dead once the
        loop exits.  A state over every register carried each new value
        into ``exit`` and ``tail`` and revisited ``tail`` on every trip
        (14 iterations); live-only states stop at the loop exit and
        converge in 12, with the same facts."""
        func = parse_function(
            """
func f(0) returns {
entry:
  v0 = li 0
loop:
  v1 = slti v0, 4
  blez v1, exit
body:
  v0 = addiu v0, 1
  j loop
exit:
  v2 = li 5
tail:
  ret v2
}
"""
        )
        values = analyze_values(func)
        assert values.fixpoint.iterations == 12
        in_states = values.fixpoint.in_states
        assert set(_as_dict(values.domain, in_states["loop"])) == {Reg("v0")}
        assert in_states["exit"] == {}
        assert set(_as_dict(values.domain, in_states["tail"])) == {Reg("v2")}
        compare = instr_named(func, Opcode.SLTI)
        assert values.value_at(compare, Reg("v0")).interval == Interval(0, None)
        branch = instr_named(func, Opcode.BLEZ)
        assert values.value_at(branch, Reg("v1")).interval == BOOL
        step = instr_named(func, Opcode.ADDIU)
        assert values.value_at(step, Reg("v0")).interval == Interval(0, None)
        ret = instr_named(func, Opcode.RET)
        assert values.value_at(ret, Reg("v2")).interval == const(5)


class TestValueAt:
    FUNC = """
func f(1) returns {
entry:
  v0 = param 0
  v1 = li 4
  bgtz v1, live
dead:
  v2 = addiu v0, 1
  ret v2
live:
  v3 = addu v0, v1
  ret v3
}
"""

    def test_answers_every_use_operand(self):
        func = parse_function(self.FUNC)
        values = analyze_values(func)
        add = instr_named(func, Opcode.ADDU)
        assert values.reached(add)
        assert values.value_at(add, Reg("v1")).interval == const(4)
        assert values.value_at(add, Reg("v0")) is _UNKNOWN

    def test_unreachable_instruction_reads_unknown(self):
        func = parse_function(self.FUNC)
        values = analyze_values(func)
        dead = instr_named(func, Opcode.ADDIU)
        assert not values.reached(dead)
        assert values.value_at(dead, Reg("v0")) is _UNKNOWN

    def test_non_use_register_is_an_error(self):
        func = parse_function(self.FUNC)
        values = analyze_values(func)
        add = instr_named(func, Opcode.ADDU)
        with pytest.raises(ValueError):
            values.value_at(add, Reg("v3"))  # its def, not a use
        with pytest.raises(ValueError):
            values.value_at(instr_named(func, Opcode.ADDIU), Reg("v1"))
