"""Property: the MiniC printer is a normal form — ``parse -> print``
reaches a fixpoint after one round trip, for both the hand-written
surrogates and the fuzzer's programs."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.gen.build import build_program
from repro.minic.parser import parse
from repro.minic.printer import print_unit
from repro.workloads import WORKLOADS, workload_source


def _round_trip_is_idempotent(source: str) -> None:
    printed = print_unit(parse(source))
    again = print_unit(parse(printed))
    assert printed == again


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_fuzzer_programs_round_trip(seed):
    _round_trip_is_idempotent(build_program(seed))


def test_surrogate_workloads_round_trip():
    for name in WORKLOADS:
        _round_trip_is_idempotent(workload_source(name, scale=2))
