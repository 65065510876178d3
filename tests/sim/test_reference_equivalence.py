"""The timing simulator against an independent reference model.

``tests/sim/reference_pipeline.py`` is the object-per-instruction
simulator that the ring-indexed loop of :mod:`repro.sim.pipeline`
replaced.  The two share no simulation code, so equal
:meth:`~repro.sim.stats.SimStats.to_counters` on the same trace checks
the model every cycle count of Figures 9 and 10 comes from against
something other than itself.  Checked on random well-formed traces (ring
wrap-around, loads behind stores, divides on both sides, branches, up
to three reads per entry), on the hand-built edge trace of the
golden-counter tests, on the smoke matrix's packs and on a compiled
program whose calls read five registers, on both Table 1 machines.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, given, settings

from repro.minic.compile import compile_source
from repro.runtime.interp import run_program
from repro.sim.config import config_for_width
from repro.sim.pipeline import simulate_trace
from tests.sim import reference_pipeline
from tests.sim.test_golden_counters import GOLDEN, edge_trace
from tests.sim.test_golden_counters import smoke_packs  # noqa: F401 (fixture)
from tests.sim.test_sim_properties import random_trace

WIDTHS = (4, 8)

#: A five-argument call in a loop: each call entry reads five registers,
#: so three of its producers are beyond the two producer columns.
MANY_ARGS_SOURCE = """
int mix(int a, int b, int c, int d, int e) {
    return (a * 3 + b) ^ (c - d + e * 7);
}

int main() {
    int i;
    int acc = 7;
    for (i = 0; i < 200; i = i + 1) {
        acc = mix(acc, i, acc + i, i * 5, acc & 255) & 0xffff;
    }
    return acc;
}
"""


def many_args_pack():
    """The traced run of :data:`MANY_ARGS_SOURCE`, packed."""
    return run_program(compile_source(MANY_ARGS_SOURCE), collect_trace=True).packed


def _both(trace, width: int) -> tuple[dict, dict]:
    config = config_for_width(width)
    return (
        simulate_trace(trace, config).to_counters(),
        reference_pipeline.simulate_trace(trace, config).to_counters(),
    )


# no shrink phase: each shrink step runs both simulators at both widths
# on traces of up to 600 entries, which took minutes to report a
# failure; Hypothesis still prints the unshrunk falsifying trace
@settings(
    max_examples=30,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)
@given(random_trace())
def test_random_traces_match_reference(trace):
    for width in WIDTHS:
        ours, reference = _both(list(trace), width)
        assert ours == reference, f"{width}-way"


@pytest.mark.parametrize("width", WIDTHS)
def test_edge_trace_matches_reference(width):
    ours, reference = _both(edge_trace(), width)
    assert ours == reference


@pytest.mark.parametrize(
    ("workload", "scheme", "width"),
    sorted(GOLDEN),
    ids=[f"{w}/{s}/{k}way" for w, s, k in sorted(GOLDEN)],
)
def test_smoke_packs_match_reference(smoke_packs, workload, scheme, width):  # noqa: F811
    ours, reference = _both(smoke_packs[(workload, scheme)], width)
    assert ours == reference


@pytest.mark.parametrize("width", WIDTHS)
def test_many_argument_calls_match_reference(width):
    pack = many_args_pack()
    assert len(pack.producer_columns()[2]) == 200  # one per call
    ours, reference = _both(pack, width)
    assert ours == reference
