"""The shared experiment pipeline.

One benchmark run is::

    MiniC source -> optimized IR -> [profile run, advanced scheme only]
        -> partition (basic | advanced) -> rewrite -> register allocation
        -> traced functional run (packed as it runs)
        -> timing simulation (Table 1 machine)

The *conventional* configuration skips partitioning but goes through the
identical compiler (same optimizer, same register allocator) and the
identical machine — the FP subsystem simply sits idle, as in the paper's
baseline.  Functional results (checksums) are asserted equal across all
configurations of a benchmark: a partitioning bug cannot silently
produce a "speedup".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.ir.program import Program
from repro.ir.verify import verify_program
from repro.partition.cost import CostParams, ExecutionProfile
from repro.partition.program import partition_program
from repro.progress import report_progress
from repro.regalloc.linear_scan import allocate_program
from repro.runtime.interp import run_program
from repro.sim.config import MachineConfig, config_for_width
from repro.sim.pipeline import TimingSimulator
from repro.sim.stats import SimStats
from repro.trace.pack import PackedTrace
from repro.trace.store import load_trace, store_trace, trace_key
from repro.workloads import compile_workload

SCHEMES = ("conventional", "basic", "advanced")


@dataclass(eq=False, slots=True)
class PipelineArtifacts:
    """Everything produced while preparing one program configuration."""

    program: Program
    scheme: str
    profile: ExecutionProfile | None = None
    partition_summary: dict[str, int] = field(default_factory=dict)
    static_instructions: int = 0


@dataclass(eq=False, slots=True)
class BenchmarkResult:
    """Outcome of simulating one (benchmark, scheme, machine) triple."""

    name: str
    scheme: str
    machine: str
    checksum: int | None
    dynamic_instructions: int
    offload_fraction: float
    cycles: int
    ipc: float
    stats: SimStats
    partition_summary: dict[str, int]
    static_instructions: int
    mix: dict[str, int]

    def speedup_over(self, baseline: "BenchmarkResult") -> float:
        """Relative speedup of this run over ``baseline`` (1.0 = equal)."""
        if self.checksum != baseline.checksum:
            raise ReproError(
                f"{self.name}: checksum mismatch between {self.scheme} "
                f"({self.checksum}) and {baseline.scheme} ({baseline.checksum})"
            )
        return baseline.cycles / self.cycles


def _summarize_partition(result) -> dict[str, int]:
    summary: dict[str, int] = {}
    for stats in result.stats.values():
        for key, value in stats.items():
            summary[key] = summary.get(key, 0) + value
    summary["copies_eliminated"] = result.copies_eliminated
    return summary


def prepare_program(
    name: str,
    scheme: str,
    scale: int | None = None,
    cost_params: CostParams | None = None,
    use_profile: bool = True,
    regalloc: bool = True,
    balance_limit: float | None = None,
    interprocedural: bool = False,
    profile: ExecutionProfile | None = None,
) -> PipelineArtifacts:
    """Compile (and for non-conventional schemes, partition) a workload.

    Args:
        name: Workload name from :mod:`repro.workloads`.
        scheme: ``"conventional"``, ``"basic"`` or ``"advanced"``.
        scale: Workload scale override.
        cost_params: Advanced-scheme cost parameters.
        use_profile: Feed a measured basic-block profile to the advanced
            scheme (otherwise it falls back to the probabilistic
            estimate, an ablation of §6.1).  The basic scheme reads no
            profile, so it never gets a profile run.
        regalloc: Run register allocation (paper order: after
            partitioning).
        profile: The advanced scheme's block profile, when the caller
            already has it (e.g. from the conventional run of the same
            program); ``None`` makes a profile run.
    """
    if scheme not in SCHEMES:
        raise ReproError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    program = compile_workload(name, scale)
    artifacts = PipelineArtifacts(program=program, scheme=scheme)

    if scheme != "conventional":
        if scheme != "advanced" or not use_profile:
            profile = None
        elif profile is None:
            profile = run_program(program).profile
        artifacts.profile = profile
        result = partition_program(
            program,
            scheme,
            profile=profile,
            params=cost_params,
            balance_limit=balance_limit,
            interprocedural=interprocedural,
        )
        artifacts.partition_summary = _summarize_partition(result)

    if regalloc:
        allocate_program(program)
        verify_program(program)
    artifacts.static_instructions = program.instruction_count()
    return artifacts


#: Pack ``meta`` fields a replayed result is built from.  A pack lacking
#: any of them is a miss.
_REPLAY_FIELDS = (
    "workload",
    "scheme",
    "scale",
    "partition_summary",
    "static_instructions",
)


def _identity(meta: dict, name: str, scheme: str, scale: int | None) -> bool:
    """Whether ``meta`` records a prepared (workload, scheme, scale)."""
    return (
        all(field in meta for field in _REPLAY_FIELDS)
        and meta["workload"] == name
        and meta["scheme"] == scheme
        and meta["scale"] == scale
    )


def _conventional_profile(
    name: str, scale: int | None, options: dict
) -> ExecutionProfile | None:
    """The block profile the conventional cell's traced run recorded.

    The conventional program and the advanced scheme's profile-run input
    are the same optimized IR (register allocation does not touch block
    structure), so their block counts are identical; reusing them saves
    the advanced cell its own profile run.  ``None`` when the sweep has
    not captured that cell.
    """
    packed = load_trace(
        trace_key(name, "conventional", scale=scale, **options),
        accept=lambda meta: "profile" in meta
        and _identity(meta, name, "conventional", scale),
    )
    if packed is None:
        return None
    return ExecutionProfile({(f, label): n for f, label, n in packed.meta["profile"]})


def _capture(
    name: str,
    scheme: str,
    key: str,
    *,
    scale: int | None,
    options: dict,
) -> PackedTrace:
    """Prepare and interpret the program; publish its pack under ``key``.

    The pack's ``meta`` is the complete record of the prepared program,
    so a later hit on ``key`` rebuilds the result without preparing it.
    """
    report_progress(stage="prepare")
    profile = None
    if scheme == "advanced" and options["use_profile"]:
        profile = _conventional_profile(name, scale, options)
    artifacts = prepare_program(name, scheme, scale=scale, profile=profile, **options)
    report_progress(stage="execute")
    run = run_program(artifacts.program, collect_trace=True)
    packed = run.packed
    packed.meta = {
        "workload": name,
        "scheme": scheme,
        "scale": scale,
        "partition_summary": artifacts.partition_summary,
        "static_instructions": artifacts.static_instructions,
    }
    if scheme == "conventional":
        # sorted [function, label, count] rows: JSON-able and deterministic
        packed.meta["profile"] = sorted(
            [f, label, n] for (f, label), n in run.profile.counts.items()
        )
    store_trace(key, packed)
    return packed


def run_benchmark(
    name: str,
    scheme: str = "advanced",
    width: int = 4,
    scale: int | None = None,
    cost_params: CostParams | None = None,
    use_profile: bool = True,
    regalloc: bool = True,
    config: MachineConfig | None = None,
    balance_limit: float | None = None,
    interprocedural: bool = False,
) -> BenchmarkResult:
    """Run the full pipeline for one benchmark configuration.

    Everything before the simulation is a pure function of the trace key
    (workload + partition options + code version), never of the machine
    config, so the in-process pool and the opt-in ``REPRO_TRACE_CACHE``
    store let a sweep over machine configurations prepare and interpret
    each (workload, scheme) exactly once: a hit goes straight to the
    simulator.  A hit is trusted because the key determines the program;
    the pack's ``meta`` must still name this workload, scheme and scale
    and carry every replay field, or the hit is a miss.
    """
    if config is None:
        config = config_for_width(width)
    options = {
        "cost_params": cost_params,
        "use_profile": use_profile,
        "regalloc": regalloc,
        "balance_limit": balance_limit,
        "interprocedural": interprocedural,
    }
    key = trace_key(name, scheme, scale=scale, **options)
    packed = load_trace(key, accept=lambda meta: _identity(meta, name, scheme, scale))
    if packed is None:
        packed = _capture(name, scheme, key, scale=scale, options=options)
    meta = packed.meta
    mix = packed.dynamic_mix()
    report_progress(stage="simulate")
    stats = TimingSimulator(config).run(packed)
    offload = mix["fp_executed"] / mix["total"] if mix["total"] else 0.0
    return BenchmarkResult(
        name=name,
        scheme=scheme,
        machine=config.name,
        checksum=packed.value,
        dynamic_instructions=packed.n,
        offload_fraction=offload,
        cycles=stats.cycles,
        ipc=stats.ipc,
        stats=stats,
        partition_summary=dict(meta["partition_summary"]),
        static_instructions=meta["static_instructions"],
        mix=mix,
    )


def cached_run_benchmark(
    name: str, scheme: str = "advanced", width: int = 4, scale: int | None = None
) -> BenchmarkResult:
    """Cached :func:`run_benchmark` (default cost params / profile).

    The pipeline is deterministic, so experiments that share a
    configuration — e.g. Figure 8's offload fractions and Figure 9's
    cycle counts — reuse one run.  Delegates to the bench harness's
    in-process memo; set ``REPRO_BENCH_CACHE=<dir>`` to additionally
    replay results from the content-addressed on-disk cache across
    invocations (see :mod:`repro.bench`).
    """
    from repro.bench.cache import ResultCache
    from repro.bench.harness import run_cells
    from repro.bench.matrix import Cell

    cell = Cell(name, scheme, width, scale)
    [outcome] = run_cells([cell], cache=ResultCache.from_env())
    return outcome.unwrap()


def run_pair(
    name: str,
    scheme: str = "advanced",
    width: int = 4,
    scale: int | None = None,
    **kwargs,
) -> tuple[BenchmarkResult, BenchmarkResult, float]:
    """Run conventional + partitioned configurations; returns
    ``(baseline, partitioned, speedup)``."""
    baseline = run_benchmark(name, "conventional", width=width, scale=scale, **kwargs)
    partitioned = run_benchmark(name, scheme, width=width, scale=scale, **kwargs)
    return baseline, partitioned, partitioned.speedup_over(baseline)
