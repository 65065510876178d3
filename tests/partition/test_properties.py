"""Property-based tests: partitioning preserves semantics and legality.

Random MiniC programs (loops over locals and a global array, arbitrary
integer expressions) are compiled, partitioned with both schemes, and
re-executed: the checksum must be identical and the partition legal.
This is the end-to-end invariant the whole paper rests on — offloading
is a pure performance transformation.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st, HealthCheck

from repro.minic.compile import compile_source
from repro.ir.verify import verify_program
from repro.lint import Severity, lint_program, partition_rule_ids, render_text
from repro.partition.advanced import advanced_partition
from repro.partition.basic import basic_partition
from repro.partition.cost import CostParams
from repro.partition.partition import check_partition, partition_stats
from repro.partition.rewrite import apply_partition
from repro.runtime.interp import run_program

_VARS = ["a", "b", "c", "d"]
_BINOPS = ["+", "-", "*", "&", "|", "^"]


@st.composite
def expression(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return str(draw(st.integers(-100, 100)))
        if choice == 1:
            return draw(st.sampled_from(_VARS))
        return f"arr[{draw(st.sampled_from(_VARS))} & 31]"
    op = draw(st.sampled_from(_BINOPS + ["<<", ">>"]))
    left = draw(expression(depth=depth + 1))
    if op in ("<<", ">>"):
        return f"(({left}) {op} {draw(st.integers(0, 4))})"
    right = draw(expression(depth=depth + 1))
    return f"(({left}) {op} ({right}))"


@st.composite
def statement(draw, depth=0):
    kind = draw(st.integers(0, 3 if depth == 0 else 2))
    if kind == 0:
        return f"{draw(st.sampled_from(_VARS))} = {draw(expression())};"
    if kind == 1:
        return f"arr[{draw(st.sampled_from(_VARS))} & 31] = {draw(expression())};"
    if kind == 2:
        cmp_op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        cond = f"({draw(expression(depth=2))}) {cmp_op} ({draw(expression(depth=2))})"
        body = draw(statement(depth=depth + 1))
        return f"if ({cond}) {{ {body} }}"
    inner = " ".join(draw(st.lists(statement(depth=1), min_size=1, max_size=3)))
    return f"{{ {inner} }}"


@st.composite
def minic_program(draw):
    statements = draw(st.lists(statement(), min_size=1, max_size=5))
    body = "\n        ".join(statements)
    return f"""
int arr[32];

int main() {{
    int a = 3; int b = -7; int c = 11; int d = 0;
    int i;
    for (i = 0; i < 32; i = i + 1) {{ arr[i] = i * 5 - 64; }}
    for (i = 0; i < 6; i = i + 1) {{
        {body}
        d = d + 1;
    }}
    return (a ^ b ^ c ^ d ^ arr[3] ^ arr[17]) & 0xffffff;
}}
"""


def _partition_and_run(source: str, scheme: str, params=None):
    program = compile_source(source)
    for func in program.functions.values():
        if scheme == "basic":
            partition = basic_partition(func)
        else:
            partition = advanced_partition(func, params=params)
        check_partition(partition)
        apply_partition(func, partition)
    verify_program(program)
    return run_program(program, fuel=2_000_000).value


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(minic_program())
def test_basic_partition_preserves_semantics(source):
    baseline = run_program(compile_source(source), fuel=2_000_000).value
    assert _partition_and_run(source, "basic") == baseline


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(minic_program())
def test_advanced_partition_preserves_semantics(source):
    baseline = run_program(compile_source(source), fuel=2_000_000).value
    assert _partition_and_run(source, "advanced") == baseline


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(minic_program(), st.sampled_from([(3.0, 1.5), (4.0, 2.0), (6.0, 3.0), (6.0, 1.5)]))
def test_cost_parameters_never_break_semantics(source, params):
    """Any (o_copy, o_dupl) in the paper's ranges yields a correct
    program — the cost model only moves the performance needle."""
    o_copy, o_dupl = params
    baseline = run_program(compile_source(source), fuel=2_000_000).value
    got = _partition_and_run(source, "advanced", CostParams(o_copy=o_copy, o_dupl=o_dupl))
    assert got == baseline


#: A drawn program whose advanced partition copies a constant 0 into the
#: FP file and has a copy in a block the value ranges prove unreachable.
_DEAD_COPY_SOURCE = """
int arr[32];
int main() {
    int a = 3; int b = -7; int c = 11; int d = 0;
    int i;
    for (i = 0; i < 32; i = i + 1) { arr[i] = i * 5 - 64; }
    for (i = 0; i < 6; i = i + 1) {
        a = ((((((0) + (0))) + (((0) + (0))))) + (((((0) + (0))) + (((0) + (c))))));
        if ((((0) + (0))) == (a)) { b = a; }
        a = arr[a & 31];
        d = d + 1;
    }
    return (a ^ b ^ c ^ d ^ arr[3] ^ arr[17]) & 0xffffff;
}
"""


def _is_dead_copy_warning(diag) -> bool:
    """The value-range rule's proved-dead-copy warning: wasted but legal
    communication, which the fuzz oracle's lint contract also accepts."""
    return (
        diag.rule == "value-range"
        and diag.severity is Severity.WARNING
        and "copy is never executed" in diag.message
    )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(source=minic_program(), scheme=st.sampled_from(["basic", "advanced"]))
@example(source=_DEAD_COPY_SOURCE, scheme="advanced")
def test_partitioned_programs_lint_clean(source, scheme):
    """Every partitioned+rewritten random program passes all lint rules:
    the partition-level rules on the pre-rewrite partitions and the
    dataflow rules on the rewritten IR.  Notes, and the value-range
    warning for a copy proved never executed, are allowed; any other
    warning fails."""
    program = compile_source(source)
    partitions = {}
    for name, func in program.functions.items():
        if scheme == "basic":
            partitions[name] = basic_partition(func)
        else:
            partitions[name] = advanced_partition(func)
    pre = lint_program(
        program, partitions=partitions, scheme=scheme, rules=partition_rule_ids()
    )
    assert not pre.diagnostics, render_text(pre)
    for name, func in program.functions.items():
        apply_partition(func, partitions[name])
    verify_program(program)
    post = lint_program(program, scheme=scheme)
    unexpected = [
        diag
        for diag in post.diagnostics
        if diag.severity >= Severity.WARNING and not _is_dead_copy_warning(diag)
    ]
    assert not unexpected, render_text(post)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(minic_program())
def test_advanced_offloads_at_least_basic(source):
    """§6: copies and duplication can only grow the FPa partition."""
    program_b = compile_source(source)
    program_a = compile_source(source)
    basic_total = advanced_total = 0
    for name in program_b.functions:
        basic_total += partition_stats(basic_partition(program_b.functions[name]))[
            "offloaded_instructions"
        ]
        advanced_total += partition_stats(
            advanced_partition(program_a.functions[name])
        )["offloaded_instructions"]
    assert advanced_total >= basic_total
