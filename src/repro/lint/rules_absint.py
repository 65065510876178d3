"""Abstract-interpretation rules: profit certification and value ranges.

Rule 7 (``profit-certification``) audits advanced partitions with the
independent re-pricing in :mod:`repro.analysis.certify`.  Unlike the
``cost-consistency`` rule — which recounts the communication sets with
the partitioner's own code — the certifier shares nothing with the
partitioner, so it still fails when the shared bookkeeping itself is
wrong (tampered ``S_copy``/``S_dupl``, phantom sites, or a component
whose certified ``Benefit − Overhead`` is negative).

Rule 8 (``value-range``) runs the interval + origin-class analysis of
:mod:`repro.analysis.valueclass`.  Its origin sets propagate through
*every* def-use edge — including ``cp_from_comp`` and plain copies —
which makes it strictly stronger than ``address-slice-int``: a value
computed by an FPa instruction, laundered back to the INT file through
``cp_from_comp`` (or a chain of moves) and then used in a load/store
address is invisible to the taint walk (which stops at the legal
crossing) but is still an FPa-origin address, violating the paper's §4
requirement that the LdSt slice never *depends on* FPa execution.  The
same analysis flags subsystem copies that are dead (interval-proved
never executed) or needlessly copy a compile-time constant.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.certify import certify_partition
from repro.analysis.valueclass import ValueClassResult, analyze_values
from repro.ir.function import Function
from repro.ir.opcodes import FPA_OPCODES, Opcode, OpKind
from repro.ir.registers import ZERO
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import LintContext, LintRule, register


@register
class ProfitCertificationRule(LintRule):
    """Every advanced partition is certified against the §6.1 cost model
    by an auditor that shares no code with the partitioner."""

    id = "profit-certification"
    description = (
        "advanced partitions re-priced independently: communication "
        "bookkeeping is real and every component's Benefit-Overhead "
        "bound is non-negative"
    )
    requires_partition = True

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        assert ctx.partitions is not None
        for name in sorted(ctx.partitions):
            partition = ctx.partitions[name]
            func = ctx.program.functions.get(name)
            certificate = certify_partition(
                partition, profile=ctx.profile, params=ctx.params
            )
            for message, node in certificate.violations:
                instr = (
                    partition.rdg.instruction(node) if node is not None else None
                )
                yield self.report(
                    message,
                    func=func,
                    instr=instr,
                    hint=(
                        "the partitioner's communication bookkeeping "
                        "disagrees with an independent re-pricing of the "
                        "partition (§6.1); do not trust its Profit numbers"
                    ),
                )


@register
class ValueRangeRule(LintRule):
    """Interval/origin abstract interpretation: no address may carry an
    FPa-origin value (even laundered through ``cp_from_comp``), and
    subsystem copies must be live and non-trivial."""

    id = "value-range"
    description = (
        "abstract interpretation proves load/store addresses free of "
        "FPa-origin values and subsystem copies live and non-constant"
    )

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for func in ctx.program.functions.values():
            yield from self._run_function(func)

    def _run_function(self, func: Function) -> Iterator[Diagnostic]:
        values = analyze_values(func)
        instr_of = {i.uid: i for i in func.instructions()}
        for blk in func.blocks:
            for instr in blk.instructions:
                if instr.is_memory:
                    yield from self._check_address(func, values, instr_of, instr)
                if instr.op in (Opcode.CP_TO_COMP, Opcode.CP_FROM_COMP):
                    yield from self._check_copy(func, values, instr)

    def _check_address(
        self,
        func: Function,
        values: ValueClassResult,
        instr_of: dict[int, object],
        instr,
    ) -> Iterator[Diagnostic]:
        if not values.reached(instr):
            return  # unreachable; reported by the copy/warning checks
        pos = 0 if instr.kind is OpKind.LOAD else 1
        reg = instr.uses[pos]
        if reg == ZERO:
            return
        info = values.value_at(instr, reg)
        for origin_uid in sorted(info.origins):
            producer = instr_of.get(origin_uid)
            if producer is None:
                continue
            fpa = producer.op in FPA_OPCODES
            yield self.report(
                f"address {reg} of {instr.op} carries a value originating "
                f"from the FP-file def {producer.op} #{producer.uid}"
                + ("" if fpa else " (true floating-point producer)"),
                severity=Severity.ERROR if fpa else Severity.WARNING,
                func=func,
                instr=instr,
                hint=(
                    "the LdSt slice must not depend on FPa execution, even "
                    "through cp_from_comp; recompute the address in INT (§4)"
                ),
            )

    def _check_copy(
        self, func: Function, values: ValueClassResult, instr
    ) -> Iterator[Diagnostic]:
        which = "cp_to_comp" if instr.op is Opcode.CP_TO_COMP else "cp_from_comp"
        if not values.reached(instr):
            yield self.report(
                f"{which} copy is never executed (its block is unreachable "
                "under the computed value ranges)",
                severity=Severity.WARNING,
                func=func,
                instr=instr,
                hint="dead communication; delete the copy or the dead branch",
            )
            return
        source = instr.uses[0] if instr.uses else None
        if source is None or source == ZERO:
            return
        interval = values.value_at(instr, source).interval
        if interval.is_constant():
            target_op = "li.a" if instr.op is Opcode.CP_TO_COMP else "li"
            yield self.report(
                f"{which} copies the compile-time constant {interval.lo}",
                severity=Severity.NOTE,
                func=func,
                instr=instr,
                hint=(
                    f"rematerialize with {target_op} {interval.lo} instead of "
                    "paying the cross-subsystem copy latency"
                ),
            )
