"""Interpreter tests: opcode semantics, calls, tracing, profiling."""

import pytest

from repro.errors import ExecutionError, FuelExhausted
from repro.ir.parser import parse_program
from repro.runtime.interp import run_program
from repro.runtime.state import STACK_BASE
from repro.runtime.trace import Subsystem


def _run_body(body, globals_text="", **kwargs):
    program = parse_program(
        f"""{globals_text}
func main(0) {{
entry:
{body}
}}
"""
    )
    return run_program(program, **kwargs)


def _eval(lines):
    """Run instruction lines ending with `ret vN` and return the value."""
    body = "\n".join(f"  {line}" for line in lines)
    return _run_body(body).value


class TestAluSemantics:
    @pytest.mark.parametrize(
        "lines,expected",
        [
            (["v0 = li 5", "v1 = addiu v0, -3", "ret v1"], 2),
            (["v0 = li 5", "v1 = li 3", "v2 = subu v0, v1", "ret v2"], 2),
            (["v0 = li 2147483647", "v1 = addiu v0, 1", "ret v1"], -2147483648),
            (["v0 = li 6", "v1 = li 3", "v2 = and v0, v1", "ret v2"], 2),
            (["v0 = li 6", "v1 = li 3", "v2 = nor v0, v1", "ret v2"], ~7),
            (["v0 = li -8", "v1 = sra v0, 1", "ret v1"], -4),
            (["v0 = li -8", "v1 = srl v0, 1", "ret v1"], 0x7FFFFFFC),
            (["v0 = li 3", "v1 = sll v0, 4", "ret v1"], 48),
            (["v0 = li -1", "v1 = sltiu v0, 1", "ret v1"], 0),  # unsigned
            (["v0 = li -1", "v1 = slti v0, 1", "ret v1"], 1),
            (["v0 = lui 2", "ret v0"], 0x20000),
            (["v0 = li -7", "v1 = li 2", "v2 = div v0, v1", "ret v2"], -3),
            (["v0 = li -7", "v1 = li 2", "v2 = rem v0, v1", "ret v2"], -1),
            (["v0 = li 5", "v1 = li 3", "v2 = sllv v0, v1", "ret v2"], 40),
            (["v0 = li -16", "v1 = li 2", "v2 = srav v0, v1", "ret v2"], -4),
        ],
    )
    def test_int_ops(self, lines, expected):
        assert _eval(lines) == expected

    def test_fpa_twins_match_int_semantics(self):
        int_result = _eval(["v0 = li 21", "v1 = addiu v0, 21", "ret v1"])
        program = parse_program(
            """
func main(0) {
entry:
  vf0 = li.a 21
  vf1 = addiu.a vf0, 21
  v2 = cp_from_comp vf1
  ret v2
}
"""
        )
        assert run_program(program).value == int_result == 42

    def test_float_ops(self):
        program = parse_program(
            """
func main(0) {
entry:
  vf0 = li.s 2.5
  vf1 = li.s 4.0
  vf2 = mul.s vf0, vf1
  vf3 = cvt.w.s vf2
  v4 = cp_from_comp vf3
  ret v4
}
"""
        )
        assert run_program(program).value == 10

    def test_division_by_zero_raises(self):
        with pytest.raises(ExecutionError, match="zero"):
            _eval(["v0 = li 1", "v1 = li 0", "v2 = div v0, v1", "ret v2"])

    def test_undefined_register_read_raises(self):
        with pytest.raises(ExecutionError, match="undefined"):
            _eval(["v1 = addiu v99, 1", "ret v1"])


class TestControlAndCalls:
    def test_branch_taken_and_not_taken(self):
        program = parse_program(
            """
func main(0) {
entry:
  v0 = li 5
  bltz v0, neg
pos:
  v1 = li 1
  ret v1
neg:
  v1 = li 2
  ret v1
}
"""
        )
        assert run_program(program).value == 1

    def test_fuel_exhaustion(self):
        program = parse_program(
            """
func main(0) {
entry:
  j entry
}
"""
        )
        with pytest.raises(FuelExhausted):
            run_program(program, fuel=100)

    def test_nested_calls_with_independent_frames(self):
        program = parse_program(
            """
func inner(1) returns {
entry:
  v0 = param 0
  v1 = addiu v0, 100
  ret v1
}

func outer(1) returns {
entry:
  v0 = param 0
  v1 = call inner(v0)
  v2 = addu v0, v1
  ret v2
}

func main(0) {
entry:
  v0 = li 5
  v1 = call outer(v0)
  ret v1
}
"""
        )
        # outer(5) = 5 + inner(5) = 5 + 105
        assert run_program(program).value == 110

    def test_recursion_depth(self):
        program = parse_program(
            """
func count(1) returns {
entry:
  v0 = param 0
  v1 = slti v0, 1
  v2 = li 0
  beq v1, v2, rec
base:
  ret v2
rec:
  v3 = addiu v0, -1
  v4 = call count(v3)
  v5 = addiu v4, 1
  ret v5
}

func main(0) {
entry:
  v0 = li 50
  v1 = call count(v0)
  ret v1
}
"""
        )
        assert run_program(program).value == 50

    def test_fell_off_function_end(self):
        program = parse_program(
            """
func main(0) {
entry:
  v0 = li 1
}
"""
        )
        with pytest.raises(ExecutionError, match="fell off"):
            run_program(program)


class TestProfileAndTrace:
    def test_profile_counts_block_entries(self, vector_sum_program):
        result = run_program(vector_sum_program)
        assert result.profile.block_count("main", "loop") == 16
        assert result.profile.block_count("main", "entry") == 1
        assert result.profile.block_count("main", "exit") == 1

    def test_trace_length_matches_dynamic_count(self, vector_sum_program):
        result = run_program(vector_sum_program, collect_trace=True)
        trace = result.packed.unpack_entries(vector_sum_program)
        assert len(trace) == result.instructions

    def test_trace_has_memory_addresses(self, vector_sum_program):
        result = run_program(vector_sum_program, collect_trace=True)
        trace = result.packed.unpack_entries(vector_sum_program)
        loads = [t for t in trace if t.instr.op.value == "lw"]
        assert loads and all(t.mem_addr is not None for t in loads)

    def test_trace_branch_outcomes(self, vector_sum_program):
        result = run_program(vector_sum_program, collect_trace=True)
        trace = result.packed.unpack_entries(vector_sum_program)
        branches = [t for t in trace if t.instr.op.value == "bne"]
        assert len(branches) == 16
        assert sum(t.taken for t in branches) == 15  # falls out once

    def test_dependence_tokens_unique_per_frame(self):
        program = parse_program(
            """
func id(1) returns {
entry:
  v0 = param 0
  ret v0
}

func main(0) {
entry:
  v0 = li 1
  v1 = call id(v0)
  v2 = call id(v1)
  ret v2
}
"""
        )
        result = run_program(program, collect_trace=True)
        trace = result.packed.unpack_entries(program)
        param_entries = [t for t in trace if t.instr.op.value == "param"]
        frames = {t.writes[0][0] for t in param_entries}
        assert len(frames) == 2  # two activations, two distinct frames

    def test_subsystem_classification(self):
        program = parse_program(
            """
global g 8

func main(0) {
entry:
  v0 = li @g
  vf1 = li.a 7
  s.s vf1, v0, 0
  vf2 = l.s v0, 0
  ret
}
"""
        )
        result = run_program(program, collect_trace=True)
        trace = result.packed.unpack_entries(program)
        by_op = {t.instr.op.value: t for t in trace}
        assert by_op["li"].subsystem is Subsystem.INT
        assert by_op["li.a"].subsystem is Subsystem.FP
        # memory ops stay in INT even with FP data registers
        assert by_op["s.s"].subsystem is Subsystem.INT
        assert by_op["l.s"].subsystem is Subsystem.INT

    def test_dynamic_mix(self, vector_sum_program):
        result = run_program(vector_sum_program, collect_trace=True)
        mix = result.packed.dynamic_mix()
        assert mix["loads"] == 32
        assert mix["stores"] == 16
        assert mix["branches"] == 16
        assert mix["fp_executed"] == 0
        assert mix["total"] == result.instructions

    def test_dynamic_mix_is_a_copy_of_the_memo(self, vector_sum_program):
        packed = run_program(vector_sum_program, collect_trace=True).packed
        first = packed.dynamic_mix()
        assert packed.dynamic_mix() == first
        first["loads"] = -1
        del first["stores"]
        assert packed.dynamic_mix()["loads"] == 32
        assert packed.dynamic_mix()["stores"] == 16

    def test_global_initialization(self):
        result = _run_body(
            "  v0 = li @t\n  v1 = lw v0, 4\n  ret v1",
            globals_text="global t 12 = 7 8 9",
        )
        assert result.value == 8


class TestErrorPaths:
    """What a failing or unusual run reports, and the register conventions
    the interpreter's decoding relies on."""

    def test_undefined_register_names_function_and_register(self):
        program = parse_program(
            """
func helper(0) returns {
entry:
  v1 = addu v7, v7
  ret v1
}

func main(0) {
entry:
  v0 = call helper()
  ret v0
}
"""
        )
        with pytest.raises(ExecutionError, match=r"^helper: read of undefined register v7$"):
            run_program(program)

    @pytest.mark.parametrize(
        "lines,message",
        [
            (["v0 = li 4098", "v1 = lw v0, 0", "ret v1"], "unaligned word load at 0x1002"),
            (["v0 = li 4096", "v1 = li 5", "sw v1, v0, 3", "ret v1"],
             "unaligned word store at 0x1003"),
        ],
    )
    def test_unaligned_word_access_names_the_address(self, lines, message):
        with pytest.raises(ExecutionError, match=message):
            _eval(lines)

    def test_zero_source_reads_zero(self):
        assert _eval(["v0 = li 7", "v1 = addu v0, $zero", "v2 = subu $zero, v1", "ret v2"]) == -7

    def test_zero_reads_zero_after_a_write(self):
        # the verifier rejects this program; the interpreter must not
        # let the write through to later reads
        assert _eval(["$zero = li 5", "v1 = addiu $zero, 1", "ret v1"]) == 1

    def test_sp_spill_slots_survive_recursion(self):
        # each activation spills its argument to its own frame and reloads
        # it after the recursive call: sum(1..10) only if $sp is per frame
        program = parse_program(
            """
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
  v0 = li 10
  v1 = call count(v0)
  ret v1
}
"""
        )
        program.function("count").frame_size = 8
        result = run_program(program)
        assert result.value == 55
        assert result.state.sp == STACK_BASE

    def test_fuel_boundary_is_exact(self, vector_sum_program):
        needed = run_program(vector_sum_program).instructions
        assert run_program(vector_sum_program, fuel=needed).instructions == needed
        with pytest.raises(FuelExhausted):
            run_program(vector_sum_program, fuel=needed - 1)

    def test_branch_to_missing_label_is_not_a_register_error(self):
        program = parse_program(
            """
func main(0) {
entry:
  v0 = li 1
  bgtz v0, nowhere
  ret v0
}
"""
        )
        with pytest.raises(ExecutionError, match="nowhere") as caught:
            run_program(program)
        assert "register" not in str(caught.value)

    def test_missing_label_on_a_path_not_taken_is_harmless(self):
        program = parse_program(
            """
func main(0) {
entry:
  v0 = li 1
  bltz v0, nowhere
  ret v0
}
"""
        )
        assert run_program(program).value == 1
