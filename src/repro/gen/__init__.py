"""Workload generator framework + differential partition fuzzing.

Two layers:

* the **declarative generator layer** (:mod:`repro.gen.spec`,
  :mod:`repro.gen.emit`): ``gen:<generator>?axis=value&...`` spec
  strings that emit deterministic, seed-keyed MiniC programs and ride
  the existing workload machinery — bench cells, trace and result
  cache keys — through :func:`generated_workload_spec`;

* the **random-program fuzzer** (:mod:`repro.gen.build`,
  :mod:`repro.gen.fuzz`, :mod:`repro.gen.shrink`,
  :mod:`repro.gen.corpus`): a grammar-directed builder producing
  well-typed MiniC, a differential oracle comparing basic vs advanced
  partitioning end to end, a greedy shrinker, and a replayable
  regression corpus under ``tests/corpus/regressions/``.

See ``docs/fuzzing.md`` for the spec grammar and the fuzzer invariants.
"""

from __future__ import annotations

from functools import lru_cache

from repro.gen.emit import GENERATORS, generate_source
from repro.gen.spec import GEN_PREFIX, GeneratorSpec, is_generator_spec


@lru_cache(maxsize=128)
def generated_workload_spec(name: str):
    """A :class:`~repro.workloads.WorkloadSpec` for a ``gen:`` spec string.

    The returned spec's ``name`` is the *canonical* spelling of the
    parsed spec, so e.g. ``gen:mixer?seed=7&calls=0.25`` and
    ``gen:mixer?seed=7`` resolve to the same workload (and the same
    cache keys, since keys hash the generated source text).
    """
    from repro.workloads import WorkloadSpec

    spec = GeneratorSpec.parse(name)
    generator = GENERATORS[spec.generator]
    return WorkloadSpec(
        name=spec.canonical(),
        category="fp" if spec.fp > 0 else "int",
        paper_input="(generated)",
        description=f"generated: {generator.description}",
        source_fn=lambda scale, _spec=spec: generate_source(_spec, scale),
        default_scale=spec.scale,
    )


__all__ = [
    "GEN_PREFIX",
    "GENERATORS",
    "GeneratorSpec",
    "generate_source",
    "generated_workload_spec",
    "is_generator_spec",
]
