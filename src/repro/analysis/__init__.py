"""Dataflow, control-flow and abstract-interpretation analyses over the IR.

Classic bit-vector problems:

* :mod:`repro.analysis.dataflow` — generic iterative bit-vector solver.
* :mod:`repro.analysis.reaching` — reaching definitions (feeds the RDG).
* :mod:`repro.analysis.liveness` — live registers (feeds regalloc).
* :mod:`repro.analysis.dominators` — dominator tree.
* :mod:`repro.analysis.loops` — natural loops and nesting depth (feeds
  the probabilistic execution-count estimate of the cost model).

Abstract interpretation (arbitrary lattices with widening):

* :mod:`repro.analysis.absint` — generic worklist engine
  (:class:`AbstractDomain`, :func:`interpret`).
* :mod:`repro.analysis.valueclass` — interval + value-origin domain;
  proves address values FPa-clean and branch directions infeasible.
* :mod:`repro.analysis.freq` — static branch probabilities and block
  frequencies (Ball/Wu–Larus heuristics); :func:`static_profile` builds
  a profile-shaped estimate without running the program.
* :mod:`repro.analysis.profilecmp` — static-vs-measured profile
  agreement metrics.
* :mod:`repro.analysis.certify` — independent §6.1 re-pricing that
  certifies advanced-scheme partitions (``Benefit − Overhead`` bounds).
* :mod:`repro.analysis.warnings` — unreachable-block and
  fuel-unbounded-loop compiler warnings.
"""

from repro.analysis.dataflow import DataflowProblem, solve_dataflow
from repro.analysis.reaching import ReachingDefinitions, DefSite
from repro.analysis.liveness import LivenessResult, compute_liveness
from repro.analysis.dominators import DominatorTree, compute_dominators
from repro.analysis.loops import NaturalLoop, find_loops, loop_nesting_depth
from repro.analysis.absint import AbsintResult, AbstractDomain, interpret
from repro.analysis.valueclass import (
    Interval,
    ValueClassDomain,
    ValueClassResult,
    ValueInfo,
    analyze_values,
)
from repro.analysis.freq import (
    block_frequencies,
    edge_probabilities,
    entry_counts,
    static_profile,
)
from repro.analysis.profilecmp import (
    FunctionAgreement,
    ProfileAgreement,
    compare_profiles,
)
from repro.analysis.certify import (
    ComponentAudit,
    ProfitCertificate,
    certify_partition,
)
from repro.analysis.warnings import (
    AnalysisWarning,
    analyze_function,
    analyze_program,
)

__all__ = [
    "DataflowProblem",
    "solve_dataflow",
    "ReachingDefinitions",
    "DefSite",
    "LivenessResult",
    "compute_liveness",
    "DominatorTree",
    "compute_dominators",
    "NaturalLoop",
    "find_loops",
    "loop_nesting_depth",
    "AbstractDomain",
    "AbsintResult",
    "interpret",
    "Interval",
    "ValueInfo",
    "ValueClassDomain",
    "ValueClassResult",
    "analyze_values",
    "edge_probabilities",
    "block_frequencies",
    "entry_counts",
    "static_profile",
    "FunctionAgreement",
    "ProfileAgreement",
    "compare_profiles",
    "ComponentAudit",
    "ProfitCertificate",
    "certify_partition",
    "AnalysisWarning",
    "analyze_function",
    "analyze_program",
]
