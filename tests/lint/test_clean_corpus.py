"""The acceptance bar: every example program and benchmark workload
lints clean — partition-level rules on the pre-rewrite partitions,
program-level rules on the rewritten IR — under both schemes."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import Severity, lint_program, partition_rule_ids, render_text
from repro.minic.compile import compile_source
from repro.partition.program import (
    audit_and_rewrite,
    partition_program,
    plan_partitions,
)
from repro.workloads import WORKLOADS, compile_workload

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.mc"))


def test_examples_exist():
    assert EXAMPLES, "examples/*.mc is the lint CI corpus; do not remove it"


@pytest.mark.parametrize("scheme", ["basic", "advanced"])
@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_examples_lint_clean(path, scheme):
    program = compile_source(path.read_text())
    result = audit_and_rewrite(program, plan_partitions(program, scheme), lint=True)
    pre = [d for d in result.lint.diagnostics if d.rule in partition_rule_ids()]
    assert not pre, render_text(result.lint)
    assert not result.lint.failed(Severity.WARNING), render_text(result.lint)


@pytest.mark.parametrize("scheme", ["basic", "advanced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workloads_lint_clean(name, scheme):
    program = compile_workload(name, scale=3)
    # lint=True makes partition_program itself run the partition-level
    # rules pre-rewrite and the dataflow rules post-rewrite, raising on
    # any error diagnostic.
    partition_program(program, scheme, lint=True)
    result = lint_program(program, scheme=scheme)
    assert result.ok, render_text(result)


def test_interprocedural_pipeline_lints_clean():
    program = compile_workload("li", scale=3)
    partition_program(program, "advanced", interprocedural=True, lint=True)
    result = lint_program(program, scheme="advanced")
    assert result.ok, render_text(result)
