"""The differential oracle: clean on healthy code, loud on injected
profit-accounting bugs, exit code 25 on campaign failures."""

from __future__ import annotations

import pytest

from repro.errors import FuzzViolationError
from repro.gen.build import build_program
from repro.gen.fuzz import (
    DifferentialOracle,
    FuzzReport,
    fuzz_run,
    make_interesting,
    raise_on_failures,
)
from repro.partition.cost import CostParams

from tests.lint.test_pipeline import count_certifications


def test_healthy_seeds_have_no_violations():
    report = fuzz_run(3, oracle=DifferentialOracle(simulate=False))
    assert report.ok
    assert report.seeds_run == 3


def test_full_oracle_including_timing_sim():
    case = DifferentialOracle().check_source(build_program(0), seed=0)
    assert case.ok, [str(v) for v in case.violations]


def test_injected_cost_bug_is_caught(monkeypatch):
    oracle = DifferentialOracle(
        audit_params=CostParams(o_copy=12.0, o_dupl=6.0),
        schemes=("advanced",),
        simulate=False,
    )
    calls = count_certifications(monkeypatch)
    failing = 0
    for seed in range(3):
        calls.clear()
        case = oracle.check_source(build_program(seed), seed=seed)
        assert {v.kind for v in case.violations} <= {"certify"}
        uncertified = {v.detail.split(":")[0] for v in case.violations}
        failing += len(uncertified)
        # each failing function is certified once, and reported once
        assert all(calls["advanced", name] == 1 for name in uncertified)
        assert len({v.detail for v in case.violations}) == len(case.violations)
    assert failing


def test_raise_on_failures_uses_exit_code_25():
    oracle = DifferentialOracle(
        audit_params=CostParams(o_copy=12.0, o_dupl=6.0),
        schemes=("advanced",),
        simulate=False,
    )
    report = fuzz_run(2, oracle=oracle)
    with pytest.raises(FuzzViolationError) as exc:
        raise_on_failures(report)
    assert exc.value.exit_code == 25
    assert exc.value.stage == "fuzz"


def test_raise_on_failures_is_a_no_op_when_clean():
    raise_on_failures(FuzzReport(seeds_run=5))


class _CannedOracle(DifferentialOracle):
    """Oracle with canned per-scheme runs, to unit-test the cross-scheme
    invariants without needing a program that actually breaks them."""

    def __init__(self, runs):
        super().__init__(simulate=False)
        self._canned = runs

    def _run_schemes(self, source, violations):
        return dict(self._canned)


def _canned_run(checksum, dynamic):
    from repro.gen.fuzz import _SchemeRun

    run = _SchemeRun(program=None)
    run.checksum = checksum
    run.dynamic = dynamic
    return run


def test_checksum_divergence_is_a_violation():
    oracle = _CannedOracle({
        "conventional": _canned_run(1, 100),
        "basic": _canned_run(2, 100),
        "advanced": _canned_run(1, 100),
    })
    kinds = {v.kind for v in oracle.check_source("unused").violations}
    assert "checksum" in kinds


def test_basic_adding_instructions_is_a_violation():
    oracle = _CannedOracle({
        "conventional": _canned_run(1, 100),
        "basic": _canned_run(1, 120),
        "advanced": _canned_run(1, 100),
    })
    kinds = {v.kind for v in oracle.check_source("unused").violations}
    assert kinds == {"basic-pure"}


def test_basic_eliminating_copies_is_allowed():
    oracle = _CannedOracle({
        "conventional": _canned_run(1, 100),
        "basic": _canned_run(1, 90),
        "advanced": _canned_run(1, 90),
    })
    assert oracle.check_source("unused").ok


def test_budget_stops_the_campaign_early():
    report = fuzz_run(10_000, budget=0.0)
    assert report.budget_exhausted
    assert report.seeds_run < 10_000


def test_make_interesting_matches_kinds():
    oracle = DifferentialOracle(
        audit_params=CostParams(o_copy=12.0, o_dupl=6.0),
        schemes=("advanced",),
        simulate=False,
    )
    source = build_program(3)
    assert make_interesting(oracle, {"certify"})(source)
    assert not make_interesting(oracle, {"checksum"})(source)


def test_non_compiling_source_is_a_compile_violation():
    case = DifferentialOracle(simulate=False).check_source("int main( {")
    # compiled once, still reported once per requested scheme
    assert [v.kind for v in case.violations] == ["compile"] * 3
    assert [v.detail.split(":")[0] for v in case.violations] == [
        "conventional",
        "basic",
        "advanced",
    ]
