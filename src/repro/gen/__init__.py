"""Differential partition fuzzing.

The random-program fuzzer: a grammar-directed builder producing
well-typed MiniC (:mod:`repro.gen.build`), a differential oracle
comparing basic vs advanced partitioning end to end
(:mod:`repro.gen.fuzz`), a greedy shrinker (:mod:`repro.gen.shrink`),
and a replayable regression corpus under ``tests/corpus/regressions/``
(:mod:`repro.gen.corpus`).

See ``docs/fuzzing.md`` for the fuzzer invariants.
"""
