"""The partition pipeline: the one code path that partitions, audits and
rewrites a whole program, in two steps.

:func:`plan_partitions` partitions every function (§5 basic or §6
advanced) and makes the §6.6 interprocedural decisions.  Decisions must
be made while every function's RDG is still valid, so it leaves the
program unchanged.  :func:`audit_and_rewrite` certifies every advanced
partition once with the independent §6.1 re-pricing (through the
``profit-certification`` lint rule when linting, by calling
:func:`~repro.analysis.certify.certify_partition` otherwise), runs the
selected lint rules, then rewrites and verifies, returning its findings
as data.  :func:`partition_program` composes the two and raises on any
finding::

    result = partition_program(program, scheme="advanced", profile=profile)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import PartitionError, ReproError
from repro.ir.program import Program
from repro.ir.verify import verify_program
from repro.partition.advanced import advanced_partition
from repro.partition.basic import basic_partition
from repro.partition.cost import CostParams, ExecutionProfile
from repro.partition.interproc import FpArgDecisions, decide_fp_arguments
from repro.partition.partition import Partition, partition_stats
from repro.partition.rewrite import RewriteStats, apply_partition

if TYPE_CHECKING:
    from repro.lint.diagnostics import LintResult

#: The lint rule that certifies partitions when the pipeline lints.
CERTIFY_RULE = "profit-certification"


@dataclass(eq=False, slots=True)
class ProgramPartitionResult:
    """A whole-program partition plan and what auditing it found."""

    scheme: str = "advanced"
    profile: ExecutionProfile | None = None
    params: CostParams | None = None
    partitions: dict[str, Partition] = field(default_factory=dict)
    stats: dict[str, dict[str, int]] = field(default_factory=dict)
    decisions: FpArgDecisions | None = None
    #: Function -> rewrite statistics; empty when nothing was rewritten.
    rewrites: dict[str, RewriteStats] = field(default_factory=dict)
    #: Function -> why its partition failed profit certification.
    uncertified: dict[str, list[str]] = field(default_factory=dict)
    #: Pre- and post-rewrite diagnostics in one result, when linted.
    lint: LintResult | None = None

    def total(self, key: str) -> int:
        """Sum a :func:`partition_stats` field over all functions
        (snapshotted before rewriting, which mutates the instructions
        the partitions reference)."""
        return sum(stats[key] for stats in self.stats.values())

    @property
    def copies_eliminated(self) -> int:
        return self.decisions.copies_eliminated() if self.decisions else 0


def plan_partitions(
    program: Program,
    scheme: str = "advanced",
    profile: ExecutionProfile | None = None,
    params: CostParams | None = None,
    balance_limit: float | None = None,
    interprocedural: bool = False,
) -> ProgramPartitionResult:
    """Partition every function of ``program`` without changing it.

    ``balance_limit`` caps the FPa load and ``interprocedural`` decides
    FP-argument passing (the §6.6 extensions; the latter needs the
    advanced scheme, since the basic scheme may not add copies).
    """
    if scheme not in ("basic", "advanced"):
        raise ReproError(f"unknown scheme {scheme!r}")
    if interprocedural and scheme != "advanced":
        raise ReproError("the interprocedural extension requires the advanced scheme")
    result = ProgramPartitionResult(scheme=scheme, profile=profile, params=params)
    for name, func in program.functions.items():
        if scheme == "basic":
            partition = basic_partition(func)
        else:
            partition = advanced_partition(
                func, profile=profile, params=params, balance_limit=balance_limit
            )
        result.partitions[name] = partition
        result.stats[name] = partition_stats(partition)
    if interprocedural:
        result.decisions = decide_fp_arguments(program, result.partitions)
    return result


def audit_and_rewrite(
    program: Program,
    result: ProgramPartitionResult,
    audit_params: CostParams | None = None,
    lint: bool = False,
    rules: list[str] | None = None,
) -> ProgramPartitionResult:
    """Certify, lint, rewrite and verify the planned ``result`` in place.

    ``audit_params`` prices certification and lint (the plan's own
    params by default; the fuzz oracle's ``--inject-cost-bug`` skews
    them).  ``rules`` restricts linting, and certification with it, to
    the given rule ids.  When certification or the pre-rewrite lint
    finds an error the program is not rewritten; a rewrite that fails
    the IR verifier raises.
    """
    params = result.params if audit_params is None else audit_params
    if lint:
        from repro.lint import lint_program, partition_rule_ids

        partition_only = partition_rule_ids()
        pre_rules = (
            partition_only
            if rules is None
            else [r for r in rules if r in partition_only]
        )
        result.lint = lint_program(
            program,
            partitions=result.partitions,
            profile=result.profile,
            params=params,
            scheme=result.scheme,
            rules=pre_rules,
        )
        for diag in result.lint.diagnostics:
            if diag.rule == CERTIFY_RULE:
                result.uncertified.setdefault(diag.function, []).append(diag.message)
    elif result.scheme == "advanced":
        from repro.analysis.certify import certify_partition

        for name, partition in result.partitions.items():
            certificate = certify_partition(
                partition, profile=result.profile, params=params
            )
            if not certificate.ok:
                result.uncertified[name] = [msg for msg, _ in certificate.violations]
    if result.uncertified or (lint and not result.lint.ok):
        return result

    decisions = result.decisions
    for name, func in program.functions.items():
        kwargs = {}
        if decisions is not None:
            kwargs = dict(
                fp_params=decisions.fp_params.get(name),
                fp_call_args=decisions.fp_call_args.get(name),
                skip_back_copies=decisions.dropped_back_copies.get(name),
                skip_param_copies=decisions.dropped_param_copies.get(name),
            )
        result.rewrites[name] = apply_partition(
            func, result.partitions[name], **kwargs
        )
    verify_program(program)
    if lint:
        post_rules = (
            None if rules is None else [r for r in rules if r not in partition_only]
        )
        post = lint_program(program, scheme=result.scheme, rules=post_rules)
        result.lint.extend(post)
        result.lint.finalize()
    return result


def partition_program(
    program: Program,
    scheme: str = "advanced",
    profile: ExecutionProfile | None = None,
    params: CostParams | None = None,
    balance_limit: float | None = None,
    interprocedural: bool = False,
    lint: bool = False,
) -> ProgramPartitionResult:
    """Partition, certify and rewrite every function of ``program``;
    ``lint=True`` also runs every lint rule as a debug check.

    Raises:
        PartitionError: A partition failed profit certification.
        ReproError: The lint found an error.
    """
    result = plan_partitions(
        program,
        scheme,
        profile=profile,
        params=params,
        balance_limit=balance_limit,
        interprocedural=interprocedural,
    )
    audit_and_rewrite(program, result, lint=lint)
    if result.lint is not None and not result.lint.ok:
        from repro.lint.render import render_text

        error = PartitionError if result.uncertified else ReproError
        stage = "post-rewrite" if result.rewrites else "pre-rewrite"
        raise error(f"{stage} lint failed:\n{render_text(result.lint)}")
    for name, messages in result.uncertified.items():
        details = "\n".join(f"  - {msg}" for msg in messages)
        raise PartitionError(
            f"partition of {name!r} failed independent profit "
            f"certification:\n{details}"
        )
    return result
