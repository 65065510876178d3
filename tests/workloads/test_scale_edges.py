"""Scale edge cases for workload_source / compile_workload: zero, one,
and unknown names."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.runtime.interp import run_program
from repro.workloads import compile_workload, workload_source


@pytest.mark.parametrize("name", ["compress"])
@pytest.mark.parametrize("scale", [0, -3])
def test_non_positive_scale_is_rejected(name, scale):
    with pytest.raises(WorkloadError, match="scale must be positive"):
        workload_source(name, scale=scale)
    with pytest.raises(WorkloadError, match="scale must be positive"):
        compile_workload(name, scale=scale)


@pytest.mark.parametrize("name", ["compress"])
def test_scale_one_compiles_and_runs(name):
    result = run_program(compile_workload(name, scale=1), fuel=5_000_000)
    assert result.instructions > 0


def test_unknown_workload_name_raises():
    with pytest.raises(WorkloadError, match="unknown workload"):
        workload_source("does-not-exist")
    with pytest.raises(WorkloadError, match="unknown workload"):
        compile_workload("does-not-exist")
