"""The shared partition pipeline: the debug-mode lint hook inside
:func:`partition_program`, and certification running once per advanced
function on every path through it."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import PartitionError, ReproError
from repro.gen.build import build_program
from repro.gen.fuzz import DifferentialOracle
from repro.minic.compile import compile_source
from repro.partition.program import partition_program
from repro.rdg.graph import Pin

SOURCE = """
int arr[64];

int main() {
    int i;
    int s = 0;
    for (i = 0; i < 32; i = i + 1) {
        arr[i] = (i * 7) & 255;
        s = s + arr[i];
    }
    return s;
}
"""


def _sabotaging_advanced_partition(monkeypatch):
    """Patch the partitioner so its result assigns an INT-pinned node to
    FPa — an illegal partition the pre-rewrite lint must reject."""
    import repro.partition.program as program_module

    real = program_module.advanced_partition

    def sabotage(func, **kwargs):
        partition = real(func, **kwargs)
        pinned = next(
            (
                node
                for node, pin in partition.rdg.pin.items()
                if pin is Pin.INT and node not in partition.fp
            ),
            None,
        )
        if pinned is not None:
            partition.fp.add(pinned)
        return partition

    monkeypatch.setattr(program_module, "advanced_partition", sabotage)


def test_lint_flag_accepts_clean_pipeline():
    partition_program(compile_source(SOURCE), "advanced", lint=True)


def test_lint_flag_rejects_illegal_partition(monkeypatch):
    # the sabotaged pin also fails certification, which the pre-rewrite
    # lint runs through its profit-certification rule: the error is a
    # PartitionError whose message is the pre-rewrite lint
    _sabotaging_advanced_partition(monkeypatch)
    with pytest.raises(PartitionError, match="pre-rewrite lint failed"):
        partition_program(compile_source(SOURCE), "advanced", lint=True)


def test_lint_failure_message_carries_diagnostics(monkeypatch):
    _sabotaging_advanced_partition(monkeypatch)
    with pytest.raises(ReproError, match="INT-pinned but assigned to FPa"):
        partition_program(compile_source(SOURCE), "advanced", lint=True)


def test_certifier_rejects_illegal_partition_by_default(monkeypatch):
    _sabotaging_advanced_partition(monkeypatch)
    with pytest.raises(PartitionError, match="failed independent profit"):
        partition_program(compile_source(SOURCE), "advanced")


def count_certifications(monkeypatch) -> Counter:
    """Count ``certify_partition`` calls per (scheme, function), through
    both of its bindings: the certifier module and the lint rule."""
    import repro.analysis.certify as certify_module
    import repro.lint.rules_absint as rules_module

    calls: Counter = Counter()
    real = certify_module.certify_partition

    def counting(partition, **kwargs):
        calls[partition.scheme, partition.rdg.func.name] += 1
        return real(partition, **kwargs)

    monkeypatch.setattr(certify_module, "certify_partition", counting)
    monkeypatch.setattr(rules_module, "certify_partition", counting)
    return calls


def _advanced_counts(calls: Counter) -> dict[str, int]:
    return {name: n for (scheme, name), n in calls.items() if scheme == "advanced"}


def test_linted_pipeline_certifies_each_advanced_function_once(monkeypatch):
    calls = count_certifications(monkeypatch)
    program = compile_source(SOURCE)
    partition_program(program, "advanced", lint=True)
    assert _advanced_counts(calls) == dict.fromkeys(program.functions, 1)


def test_oracle_certifies_each_advanced_function_once(monkeypatch):
    calls = count_certifications(monkeypatch)
    source = build_program(0)
    case = DifferentialOracle(simulate=False).check_source(source)
    assert case.ok
    functions = compile_source(source, optimize=True).functions
    assert _advanced_counts(calls) == dict.fromkeys(functions, 1)
