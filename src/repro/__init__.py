"""repro — reproduction of *Exploiting Idle Floating-Point Resources for
Integer Execution* (Sastry, Palacharla & Smith, PLDI 1998).

The package implements the paper's full pipeline:

* a MiniC frontend and MIPS-like IR (:mod:`repro.minic`, :mod:`repro.ir`),
* machine-independent optimizations (:mod:`repro.opt`),
* dataflow analyses and the register dependence graph
  (:mod:`repro.analysis`, :mod:`repro.rdg`),
* the **basic** and **advanced** code-partitioning schemes — the paper's
  contribution (:mod:`repro.partition`),
* register allocation (:mod:`repro.regalloc`),
* a functional interpreter with profiling and tracing
  (:mod:`repro.runtime`),
* a cycle-level out-of-order timing simulator with the augmented FPa
  subsystem (:mod:`repro.sim`),
* SPECINT95 surrogate workloads and the experiment harness regenerating
  every figure and table (:mod:`repro.workloads`,
  :mod:`repro.experiments`).

Quickstart::

    from repro.experiments import run_benchmark

    baseline = run_benchmark("compress", scheme="conventional", width=4)
    result = run_benchmark("compress", scheme="advanced", width=4)
    print(f"speedup: {100 * (result.speedup_over(baseline) - 1):+.1f}%")

:func:`repro.experiments.run_pair` runs both and returns the same ratio.
"""

from repro.errors import (
    ReproError,
    IRError,
    ParseError,
    SemanticError,
    AnalysisError,
    PartitionError,
    RegAllocError,
    ExecutionError,
    SimulationError,
    WorkloadError,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "IRError",
    "ParseError",
    "SemanticError",
    "AnalysisError",
    "PartitionError",
    "RegAllocError",
    "ExecutionError",
    "SimulationError",
    "WorkloadError",
    "compile_minic",
    "partition_basic",
    "partition_advanced",
    "__version__",
]


def compile_minic(source: str, optimize: bool = True):
    """Compile MiniC source text to an IR :class:`~repro.ir.Program`.

    Thin convenience wrapper over :func:`repro.minic.compile.compile_source`.
    """
    from repro.minic.compile import compile_source

    return compile_source(source, optimize=optimize)


def partition_basic(func):
    """Run the paper's basic partitioning scheme on one function."""
    from repro.partition.basic import basic_partition

    return basic_partition(func)


def partition_advanced(func, profile=None, **kwargs):
    """Run the paper's advanced partitioning scheme on one function."""
    from repro.partition.advanced import advanced_partition

    return advanced_partition(func, profile=profile, **kwargs)
