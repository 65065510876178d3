"""Benchmark workloads.

The paper evaluates on SPECINT95 (Table 2: compress, gcc, go, ijpeg, li,
m88ksim, perl) plus some SPEC92/95 floating-point programs (§7.5).  The
originals and their reference inputs are not redistributable (and the
paper's exact gcc-2.7.1 build environment is long gone), so each
benchmark is represented by a **surrogate**: a MiniC program engineered
to exercise the same *slice structure* the paper attributes to it —

============  ===============================================================
compress      LZW-style hash compressor; bit twiddling; includes the
              memory-less ``run``/LCG random generator the paper calls out
              in §6.6 (the greedy schemes move it to FPa wholesale)
gcc           register-bookkeeping passes, including the paper's own
              ``invalidate_for_call`` example (Figure 3); bitset scans
go            board evaluation: branchy nested loops over a 2D array,
              influence counting — deep branch slices fed by loads
ijpeg         8x8 integer transform/quantize kernels: long store-value
              slices of shifts/adds, a small multiply fraction (~3%)
li            cons-cell list interpreter: many small recursive functions,
              call-intensive (the advanced scheme gains little, §7.2)
m88ksim       instruction-set simulator dispatch loop: decode fields via
              shifts/masks, simulated register file updates — large
              offloadable store-value slices and high ILP
perl          byte-string hashing and associative lookups: byte loads
              pin value slices to INT, so offload stays small
============  ===============================================================

Floating-point surrogates (§7.5): ``ear`` (filterbank with substantial
integer branch/store-value work not feeding addresses — the paper's 18%
outlier) and ``swim`` (a pure float stencil — negligible integer work).

Every workload takes a ``scale`` knob that sets dynamic instruction
counts; defaults aim for ~10^5 dynamic instructions, big enough for
stable microarchitectural behaviour yet laptop-friendly.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.errors import WorkloadError
from repro.ir.program import Program


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """One benchmark workload.

    Attributes:
        name: Benchmark name (SPEC-style, lowercase).
        category: ``"int"`` or ``"fp"``.
        paper_input: The input the paper used (Table 2), for the record.
        description: What the surrogate exercises.
        source_fn: ``scale -> MiniC source text``.
        default_scale: Scale used by the experiment harness.
    """

    name: str
    category: str
    paper_input: str
    description: str
    source_fn: Callable[[int], str]
    default_scale: int


def _registry() -> dict[str, WorkloadSpec]:
    from repro.workloads import specfp, specint

    specs = [
        specint.compress_spec(),
        specint.gcc_spec(),
        specint.go_spec(),
        specint.ijpeg_spec(),
        specint.li_spec(),
        specint.m88ksim_spec(),
        specint.perl_spec(),
        specfp.ear_spec(),
        specfp.swim_spec(),
    ]
    return {spec.name: spec for spec in specs}


WORKLOADS: dict[str, WorkloadSpec] = _registry()
INT_BENCHMARKS = [n for n, s in WORKLOADS.items() if s.category == "int"]
FP_BENCHMARKS = [n for n, s in WORKLOADS.items() if s.category == "fp"]


def get_workload(name: str) -> WorkloadSpec:
    """Look up a registered surrogate in :data:`WORKLOADS`; raises
    :class:`WorkloadError` if unknown."""
    spec = WORKLOADS.get(name)
    if spec is None:
        raise WorkloadError(
            f"unknown workload {name!r}; available: {sorted(WORKLOADS)}"
        )
    return spec


def workload_source(name: str, scale: int | None = None) -> str:
    """MiniC source text of a workload at the given scale."""
    spec = get_workload(name)
    if scale is None:
        scale = spec.default_scale
    if scale <= 0:
        raise WorkloadError(f"scale must be positive, got {scale}")
    return spec.source_fn(scale)


def compile_workload(name: str, scale: int | None = None, optimize: bool = True) -> Program:
    """Compile a workload to IR.

    Each workload is compiled once per process: every call returns a
    private copy of the memoized program, so a caller may rewrite it
    (partitioning, register allocation) without affecting the next.
    """
    return pickle.loads(_compiled(name, scale, optimize))


@lru_cache(maxsize=32)
def _compiled(name: str, scale: int | None, optimize: bool) -> bytes:
    """The pickled program of :func:`compile_workload`."""
    from repro.minic.compile import compile_source

    program = compile_source(workload_source(name, scale), optimize=optimize)
    return pickle.dumps(program, pickle.HIGHEST_PROTOCOL)


__all__ = [
    "WorkloadSpec",
    "WORKLOADS",
    "INT_BENCHMARKS",
    "FP_BENCHMARKS",
    "get_workload",
    "workload_source",
    "compile_workload",
]
