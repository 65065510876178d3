"""Differential partition fuzzing: random MiniC vs the §6.1 contract.

Every generated program is pushed through the full pipeline under all
three schemes and checked against the invariants the paper's machinery
promises (the *oracle*).  A program that breaks any of them is a
**violation** — the fuzz loop records it, writes a crash bundle, and
(optionally) shrinks it into a replayable regression.

Oracle invariants, per program:

``compile``      both schemes compile, partition, rewrite, register-
                 allocate and pass the IR verifier
``lint``         lint-clean under the other 7 rules: the partition-level
                 rules pre-rewrite, the full dataflow rules post-rewrite
``certify``      every partition passes the independent §6.1 re-pricing
                 of rule ``profit-certification`` (Profit >= -eps; each
                 failure reported once), priced with the *audit*
                 cost params — normally the partitioner's own, but a
                 deliberately skewed set in ``--inject-cost-bug`` mode,
                 which must make the fuzzer report violations (the
                 fuzzer-catches-bugs acceptance check)
``checksum``     bit-exact architectural results across conventional /
                 basic / advanced
``retire``       the timing simulation retires exactly the traced
                 instruction count under both partitioned schemes
``basic-pure``   the basic scheme never *adds* instructions (§5: it may
                 not insert copies; eliminating pre-existing conversion
                 copies is allowed, so dyn_basic <= dyn_conventional)
``profit-bound`` advanced never loses to basic by more than the copy
                 overhead it added plus a small modelling slack:
                 ``cycles_adv <= cycles_basic + o_copy * added + slack``

A scheme whose partitions fail certification or the pre-rewrite lint is
not rewritten and not run, so the checks after ``certify`` skip it.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field

from repro.errors import FuzzViolationError, ReproError
from repro.gen.build import BuildConfig, build_program
from repro.ir.program import Program
from repro.ir.verify import verify_program
from repro.lint.registry import Severity, partition_rule_ids
from repro.minic.compile import compile_source
from repro.partition.cost import CostParams, ExecutionProfile
from repro.partition.program import (
    CERTIFY_RULE,
    audit_and_rewrite,
    plan_partitions,
)
from repro.regalloc.linear_scan import allocate_program
from repro.runtime.interp import run_program
from repro.sim.config import MachineConfig, four_way
from repro.sim.pipeline import TimingSimulator

#: Profit certification tolerance mirrored from the certifier.
PROFIT_EPS = 1e-6

#: Interpreter fuel per scheme run; generated programs are bounded well
#: below this by construction (see :mod:`repro.gen.build`).
FUZZ_FUEL = 20_000_000

#: Slack for the profit bound: local §6.1 pricing vs the global timing
#: simulation (fetch grouping, cache and branch effects the cost model
#: does not see).  Fractional of the basic cycles plus a constant floor
#: for tiny programs.
PROFIT_SLACK_FRACTION = 0.08
PROFIT_SLACK_FLOOR = 400.0


@dataclass(frozen=True, slots=True)
class Violation:
    """One broken oracle invariant for one program."""

    kind: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - display only
        return f"[{self.kind}] {self.detail}"


@dataclass(eq=False, slots=True)
class _SchemeRun:
    program: Program
    checksum: int | None = None
    dynamic: int = 0
    cycles: int = 0
    retired: int = 0
    copies_added: int = 0
    #: Block counts of the traced run.
    profile: ExecutionProfile | None = None


@dataclass(eq=False, slots=True)
class FuzzCase:
    """Outcome of checking one generated program."""

    seed: int
    source: str
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(eq=False, slots=True)
class FuzzReport:
    """Outcome of a fuzzing campaign."""

    seeds_run: int = 0
    elapsed: float = 0.0
    failures: list[FuzzCase] = field(default_factory=list)
    budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures


class DifferentialOracle:
    """Checks one MiniC source against the differential invariants.

    Args:
        params: Cost parameters handed to the *partitioner*.
        audit_params: Cost parameters used to *audit* (lint + certify).
            Defaults to ``params``; passing a different set models a
            profit-accounting bug and must produce ``certify``
            violations (this is how ``repro fuzz --inject-cost-bug``
            demonstrates the oracle has teeth).
        config: Machine config for the timing simulation.
        schemes: Subset of schemes to run — the shrinker uses e.g.
            ``("advanced",)`` to make its interestingness predicate
            cheap; cross-scheme invariants only fire when every scheme
            they mention actually ran.
        simulate: Run the timing simulation (the ``retire`` and
            ``profit-bound`` invariants need it; lint/certify/checksum
            do not).
    """

    def __init__(
        self,
        params: CostParams | None = None,
        audit_params: CostParams | None = None,
        config: MachineConfig | None = None,
        fuel: int = FUZZ_FUEL,
        schemes: tuple[str, ...] = ("conventional", "basic", "advanced"),
        simulate: bool = True,
    ) -> None:
        self.params = params or CostParams()
        self.audit_params = audit_params or self.params
        self.config = config or four_way()
        self.fuel = fuel
        self.schemes = schemes
        self.simulate = simulate

    # -- pipeline legs ----------------------------------------------------
    def _run_schemes(
        self, source: str, violations: list[Violation]
    ) -> dict[str, _SchemeRun | None]:
        """Every requested scheme on one compile of ``source``.

        The optimized program is compiled once and each scheme rewrites
        a private copy of it.  The conventional scheme runs first: basic
        and advanced take their block profile from its traced run, and
        make their own profile run only when it is not requested (or
        failed).
        """
        try:
            compiled = compile_source(source, optimize=True)
        except ReproError as exc:
            for scheme in self.schemes:
                violations.append(Violation("compile", f"{scheme}: {exc}"))
            return dict.fromkeys(self.schemes)
        frozen = pickle.dumps(compiled, pickle.HIGHEST_PROTOCOL)
        runs: dict[str, _SchemeRun | None] = {}
        profile: ExecutionProfile | None = None
        for scheme in sorted(self.schemes, key=lambda s: s != "conventional"):
            run = self._run_scheme(pickle.loads(frozen), scheme, profile, violations)
            if run is not None and scheme == "conventional":
                profile = run.profile
            runs[scheme] = run
        return {scheme: runs[scheme] for scheme in self.schemes}

    def _run_scheme(
        self,
        program: Program,
        scheme: str,
        profile: ExecutionProfile | None,
        violations: list[Violation],
    ) -> _SchemeRun | None:
        run = _SchemeRun(program=program)
        try:
            if scheme != "conventional":
                if profile is None:
                    profile = run_program(program, fuel=self.fuel).profile
                if not self._partition_and_audit(
                    program, scheme, profile, run, violations
                ):
                    return None
            allocate_program(program)
            verify_program(program)
        except ReproError as exc:
            violations.append(Violation("compile", f"{scheme}: {exc}"))
            return None
        try:
            result = run_program(program, fuel=self.fuel, collect_trace=True)
        except ReproError as exc:
            violations.append(Violation("compile", f"{scheme}: execution: {exc}"))
            return None
        run.checksum = result.value
        run.dynamic = result.instructions
        run.profile = result.profile
        if self.simulate:
            packed = result.packed
            stats = TimingSimulator(self.config).run(packed)
            run.cycles = stats.cycles
            run.retired = stats.retired
            if stats.retired != packed.n:
                violations.append(
                    Violation(
                        "retire",
                        f"{scheme}: simulator retired {stats.retired} of "
                        f"{packed.n} traced instructions",
                    )
                )
        return run

    def _partition_and_audit(
        self,
        program: Program,
        scheme: str,
        profile: ExecutionProfile,
        run: _SchemeRun,
        violations: list[Violation],
    ) -> bool:
        """The shared partition pipeline with every lint rule, auditing
        with ``audit_params`` (the partitioner itself uses ``params``).

        Records each certification failure once, as ``certify``, and
        every other error diagnostic as ``lint``.  Returns whether the
        partitions passed their audit and were applied.
        """
        result = plan_partitions(program, scheme, profile=profile, params=self.params)
        audit_and_rewrite(program, result, audit_params=self.audit_params, lint=True)
        for name, messages in result.uncertified.items():
            violations += [Violation("certify", f"{name}: {msg}") for msg in messages]
        pre_rewrite = partition_rule_ids()
        for diag in result.lint.diagnostics:
            if diag.severity >= Severity.ERROR and diag.rule != CERTIFY_RULE:
                stage = "pre-rewrite" if diag.rule in pre_rewrite else "post-rewrite"
                violations.append(
                    Violation("lint", f"{scheme}/{stage}: {diag.rule}: {diag.message}")
                )
        run.copies_added = sum(
            stats.copies_inserted + stats.dups_inserted + stats.back_copies_inserted
            for stats in result.rewrites.values()
        )
        return bool(result.rewrites)

    # -- the oracle -------------------------------------------------------
    def check_source(self, source: str, seed: int = -1) -> FuzzCase:
        """All differential invariants for one program."""
        case = FuzzCase(seed=seed, source=source)
        violations = case.violations
        runs = self._run_schemes(source, violations)
        conventional = runs.get("conventional")
        basic = runs.get("basic")
        advanced = runs.get("advanced")
        live = {k: r for k, r in runs.items() if r is not None}
        checksums = {k: r.checksum for k, r in live.items()}
        if len(set(checksums.values())) > 1:
            violations.append(
                Violation("checksum", f"architectural results diverge: {checksums}")
            )
        if conventional is not None and basic is not None:
            if basic.dynamic > conventional.dynamic:
                violations.append(
                    Violation(
                        "basic-pure",
                        "basic scheme increased the dynamic instruction "
                        f"count: {conventional.dynamic} -> {basic.dynamic} "
                        "(it may not insert copies; it may only eliminate "
                        "pre-existing conversion copies)",
                    )
                )
        if basic is not None and advanced is not None and self.simulate:
            added = max(0, advanced.dynamic - basic.dynamic)
            slack = max(
                PROFIT_SLACK_FLOOR, PROFIT_SLACK_FRACTION * basic.cycles
            )
            bound = basic.cycles + self.params.o_copy * added + slack
            if advanced.cycles > bound:
                violations.append(
                    Violation(
                        "profit-bound",
                        f"advanced lost to basic beyond the copy-overhead "
                        f"bound: {advanced.cycles} cycles vs "
                        f"{basic.cycles} + {self.params.o_copy} * {added} "
                        f"+ slack {slack:.0f} = {bound:.0f}",
                    )
                )
        return case


def fuzz_run(
    seeds: int,
    start: int = 0,
    budget: float | None = None,
    oracle: DifferentialOracle | None = None,
    config: BuildConfig | None = None,
    on_case=None,
) -> FuzzReport:
    """Fuzz ``seeds`` programs (seeds ``start .. start+seeds-1``).

    Args:
        budget: Wall-clock budget in seconds; the campaign stops early
            (``report.budget_exhausted``) when exceeded.
        on_case: Optional callback ``(case) -> None`` invoked after each
            checked program (progress reporting, bundle writing).
    """
    oracle = oracle or DifferentialOracle()
    report = FuzzReport()
    t0 = time.monotonic()
    for seed in range(start, start + seeds):
        if budget is not None and time.monotonic() - t0 > budget:
            report.budget_exhausted = True
            break
        source = build_program(seed, config)
        case = oracle.check_source(source, seed=seed)
        report.seeds_run += 1
        if not case.ok:
            report.failures.append(case)
        if on_case is not None:
            on_case(case)
    report.elapsed = time.monotonic() - t0
    return report


def make_interesting(oracle: DifferentialOracle, kinds: set[str]):
    """An interestingness predicate for the shrinker: the oracle still
    reports at least one violation of one of ``kinds``."""

    def interesting(source: str) -> bool:
        case = oracle.check_source(source)
        return bool(kinds & {v.kind for v in case.violations})

    return interesting


def raise_on_failures(report: FuzzReport) -> None:
    """Raise :class:`FuzzViolationError` when a campaign found failures."""
    if report.ok:
        return
    lines = []
    for case in report.failures:
        for violation in case.violations:
            lines.append(f"  seed {case.seed}: {violation}")
    raise FuzzViolationError(
        f"{len(report.failures)} of {report.seeds_run} fuzzed programs "
        "violated the differential oracle:\n" + "\n".join(lines)
    )


__all__ = [
    "DifferentialOracle",
    "FuzzCase",
    "FuzzReport",
    "FUZZ_FUEL",
    "PROFIT_EPS",
    "Violation",
    "fuzz_run",
    "make_interesting",
    "raise_on_failures",
]
