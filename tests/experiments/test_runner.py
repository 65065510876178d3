"""Tests for the experiment pipeline (small scales)."""

import pytest

from repro.errors import ReproError
from repro.experiments.runner import (
    BenchmarkResult,
    prepare_program,
    run_benchmark,
    run_pair,
)

SCALE = {"compress": 150, "m88ksim": 1}


class TestPrepare:
    def test_conventional_has_no_partition(self):
        artifacts = prepare_program("compress", "conventional", scale=SCALE["compress"])
        assert artifacts.partition_summary == {}
        assert artifacts.static_instructions > 0

    def test_partitioned_has_summary(self):
        artifacts = prepare_program("compress", "advanced", scale=SCALE["compress"])
        assert artifacts.partition_summary["offloaded_instructions"] > 0

    def test_unknown_scheme(self):
        with pytest.raises(ReproError, match="scheme"):
            prepare_program("compress", "hyper", scale=10)

    def test_profile_optional(self):
        with_profile = prepare_program(
            "compress", "advanced", scale=SCALE["compress"], use_profile=True
        )
        without = prepare_program(
            "compress", "advanced", scale=SCALE["compress"], use_profile=False
        )
        assert with_profile.profile is not None
        assert without.profile is None

    def test_regalloc_toggle(self):
        raw = prepare_program("compress", "conventional", scale=100, regalloc=False)
        allocated = prepare_program("compress", "conventional", scale=100, regalloc=True)
        # spill code may add instructions but virtual regs must be gone
        for func in allocated.program.functions.values():
            for instr in func.instructions():
                assert all(not r.virtual for r in instr.defs + instr.uses)
        assert any(
            any(r.virtual for r in i.defs + i.uses)
            for f in raw.program.functions.values()
            for i in f.instructions()
        )


class TestProfileRuns:
    """Only the advanced scheme reads a profile, so only it is profiled."""

    @pytest.mark.parametrize(
        ("scheme", "profile_runs"),
        [("conventional", 0), ("basic", 0), ("advanced", 1)],
    )
    def test_untraced_runs_per_scheme(self, monkeypatch, scheme, profile_runs):
        from repro.experiments import runner

        untraced = 0
        real_run_program = runner.run_program

        def counting_run_program(*args, **kwargs):
            nonlocal untraced
            if not kwargs.get("collect_trace"):
                untraced += 1
            return real_run_program(*args, **kwargs)

        monkeypatch.setattr(runner, "run_program", counting_run_program)
        artifacts = prepare_program("compress", scheme, scale=SCALE["compress"])
        assert untraced == profile_runs
        assert (artifacts.profile is not None) == (profile_runs == 1)


class TestRunBenchmark:
    def test_result_fields(self):
        result = run_benchmark("m88ksim", "advanced", width=4, scale=SCALE["m88ksim"])
        assert isinstance(result, BenchmarkResult)
        assert result.cycles > 0
        assert result.dynamic_instructions > 0
        assert 0.0 < result.offload_fraction < 0.6
        assert result.machine == "4-way"
        assert result.mix["total"] == result.dynamic_instructions

    def test_conventional_offloads_nothing(self):
        result = run_benchmark("m88ksim", "conventional", width=4, scale=1)
        assert result.offload_fraction == 0.0
        assert result.stats.fp_issued == 0

    def test_run_pair_speedup(self):
        baseline, partitioned, speedup = run_pair(
            "m88ksim", "advanced", width=4, scale=SCALE["m88ksim"]
        )
        assert baseline.checksum == partitioned.checksum
        assert speedup == pytest.approx(baseline.cycles / partitioned.cycles)
        assert speedup > 1.0  # m88ksim is the paper's best case

    def test_checksum_mismatch_detected(self):
        a = run_benchmark("m88ksim", "conventional", width=4, scale=1)
        b = run_benchmark("compress", "conventional", width=4, scale=150)
        with pytest.raises(ReproError, match="checksum"):
            b.speedup_over(a)

    def test_eight_way_machine(self):
        result = run_benchmark("m88ksim", "conventional", width=8, scale=1)
        assert result.machine == "8-way"
