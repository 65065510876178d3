"""Rule registry and the shared analysis context rules run against.

A rule is a subclass of :class:`LintRule` registered with
:func:`register`.  Rules are pure: they read the :class:`LintContext`
and yield :class:`~repro.lint.diagnostics.Diagnostic` objects, never
mutating the program.  The context lazily computes and caches the
per-function dataflow analyses (reaching definitions, dominators) so
that several rules over the same function share one solve.

Rules that need a :class:`~repro.partition.partition.Partition` (the
pre-rewrite partition objects, whose RDGs still reference the live
instructions) declare ``requires_partition = True`` and are skipped when
the caller lints a bare program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Type

from repro.analysis.dominators import DominatorTree, compute_dominators
from repro.analysis.reaching import ReachingDefinitions
from repro.errors import ReproError
from repro.ir.function import Function
from repro.ir.printer import print_instruction
from repro.ir.program import Program
from repro.lint.diagnostics import Diagnostic, Severity
from repro.partition.cost import CostParams, ExecutionProfile
from repro.partition.partition import Partition


@dataclass(eq=False, slots=True)
class LintContext:
    """Everything a rule may consult during one lint run.

    Attributes:
        program: The program under analysis (pre- or post-rewrite IR).
        partitions: Function name -> pre-rewrite partition, when the
            caller partitioned the program and wants the partition-level
            rules to run.  ``None`` lints the program alone.
        profile: The execution profile the partitioner used (drives the
            cost-consistency recount); ``None`` falls back to the
            paper's probabilistic estimate, matching the partitioner.
        params: Cost-model weights the partitioner used.
        scheme: ``"basic"`` / ``"advanced"`` when known; individual
            partitions also carry their scheme tag.
    """

    program: Program
    partitions: dict[str, Partition] | None = None
    profile: ExecutionProfile | None = None
    params: CostParams | None = None
    scheme: str | None = None
    _reaching: dict[str, ReachingDefinitions] = field(default_factory=dict)
    _dominators: dict[str, DominatorTree] = field(default_factory=dict)

    def reaching(self, func: Function) -> ReachingDefinitions:
        if func.name not in self._reaching:
            self._reaching[func.name] = ReachingDefinitions(func)
        return self._reaching[func.name]

    def dominators(self, func: Function) -> DominatorTree:
        if func.name not in self._dominators:
            self._dominators[func.name] = compute_dominators(func)
        return self._dominators[func.name]


class LintRule:
    """Base class for analysis rules.

    Subclasses set the class attributes and implement :meth:`run`.

    Attributes:
        id: Stable kebab-case identifier used in diagnostics, the CLI's
            ``--rules`` filter, and the JSON output.
        description: One-line summary shown by documentation and tooling.
        default_severity: Severity for :meth:`report` when none is given.
        requires_partition: True when the rule needs pre-rewrite
            :class:`Partition` objects and is skipped without them.
    """

    id: str = ""
    description: str = ""
    default_severity: Severity = Severity.ERROR
    requires_partition: bool = False

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    # -- helpers for subclasses -----------------------------------------
    def report(
        self,
        message: str,
        *,
        severity: Severity | None = None,
        func: Function | None = None,
        block: str | None = None,
        instr=None,
        hint: str | None = None,
    ) -> Diagnostic:
        """Build a diagnostic attributed to this rule."""
        uid = None
        text = None
        if instr is not None:
            uid = instr.uid
            text = print_instruction(instr)
            if block is None and func is not None:
                block = func.block_of().get(instr.uid)
        return Diagnostic(
            rule=self.id,
            severity=self.default_severity if severity is None else severity,
            message=message,
            function=func.name if func is not None else None,
            block=block,
            uid=uid,
            instruction=text,
            hint=hint,
        )


#: All registered rules, in registration order, keyed by rule id.
_REGISTRY: dict[str, LintRule] = {}


def register(rule_cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding a rule (as a singleton instance) to the
    registry.  Rule ids must be unique."""
    if not rule_cls.id:
        raise ReproError(f"lint rule {rule_cls.__name__} has no id")
    if rule_cls.id in _REGISTRY:
        raise ReproError(f"duplicate lint rule id {rule_cls.id!r}")
    _REGISTRY[rule_cls.id] = rule_cls()
    return rule_cls


def all_rules() -> list[LintRule]:
    """Every registered rule, in registration order."""
    _ensure_loaded()
    return list(_REGISTRY.values())


def get_rule(rule_id: str) -> LintRule:
    _ensure_loaded()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise ReproError(
            f"unknown lint rule {rule_id!r}; available: {sorted(_REGISTRY)}"
        ) from None


def partition_rule_ids() -> list[str]:
    """Ids of the rules that need pre-rewrite :class:`Partition` objects."""
    return [rule.id for rule in all_rules() if rule.requires_partition]


def select_rules(rule_ids: Iterable[str] | None) -> list[LintRule]:
    """Resolve an optional id filter to rule instances (all when None)."""
    if rule_ids is None:
        return all_rules()
    return [get_rule(rule_id) for rule_id in rule_ids]


def _ensure_loaded() -> None:
    """Import the rule modules, populating the registry on first use."""
    from repro.lint import rules_absint  # noqa: F401
    from repro.lint import rules_calls  # noqa: F401
    from repro.lint import rules_copies  # noqa: F401
    from repro.lint import rules_dataflow  # noqa: F401
    from repro.lint import rules_partition  # noqa: F401
