"""Partition lint: dataflow-based static verification of partitioned IR.

The structural verifier (:mod:`repro.ir.verify`) checks each instruction
in isolation; this package proves *flow* properties over whole programs
and their pre-rewrite partitions, using the :mod:`repro.analysis`
dataflow machinery:

========================  =============================================
rule id                   property
========================  =============================================
subsystem-consistency     no FP-file value reaches an INT consumer
                          without ``cp_from_comp`` (and vice versa)
address-slice-int         every value feeding a load/store address is
                          INT-resident along all def-use paths
calling-convention        call args / returns / ``fp_params`` agree
                          caller vs. callee program-wide
copy-hygiene              no dead or redundant inter-partition copies
partition-legality        the INT/FPa assignment satisfies the paper's
                          partitioning conditions pre-rewrite
cost-consistency          advanced-scheme S_copy/S_dupl/Profit match a
                          recount from the profile
profit-certification      advanced partitions certified by an
                          independent §6.1 re-pricing (no shared code
                          with the partitioner)
value-range               interval/origin abstract interpretation: no
                          FPa-origin value reaches an address (even via
                          ``cp_from_comp``), subsystem copies are live
                          and non-constant
========================  =============================================

Typical use, through the partition pipeline (which runs the
partition-level rules before the rewrite and the rest after it)::

    from repro.lint import render_text
    from repro.partition.program import audit_and_rewrite, plan_partitions

    result = audit_and_rewrite(program, plan_partitions(program), lint=True)
    if not result.lint.ok:
        print(render_text(result.lint))
"""

from repro.lint.diagnostics import Diagnostic, LintResult, Severity
from repro.lint.registry import (
    LintContext,
    LintRule,
    all_rules,
    partition_rule_ids,
    register,
)
from repro.lint.render import JSON_SCHEMA_VERSION, render_json, render_text
from repro.lint.runner import lint_program

__all__ = [
    "Diagnostic",
    "JSON_SCHEMA_VERSION",
    "LintContext",
    "LintResult",
    "LintRule",
    "Severity",
    "all_rules",
    "lint_program",
    "partition_rule_ids",
    "register",
    "render_json",
    "render_text",
]
