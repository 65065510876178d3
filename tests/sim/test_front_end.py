"""The front-end event column against the cache and predictor it replaces.

:meth:`~repro.trace.pack.PackedTrace.front_end_events` inlines the
I-cache's LRU and gshare's update and visits only line changes and
conditional branches.  Checked here against a program-order walk that
calls :class:`~repro.sim.cache.Cache` and
:class:`~repro.sim.branch_pred.GSharePredictor` on every entry, and, in
whole simulations, against the object-per-instruction reference
simulator (which still owns an I-cache and a predictor) on front ends
other than the stored Table 1 one: perfect branches, and a small
I-cache with a short-history gshare.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.errors import SimulationError
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.registers import virtual_reg
from repro.runtime.trace import Subsystem, TraceEntry
from repro.sim.branch_pred import GSharePredictor
from repro.sim.cache import Cache
from repro.sim.config import CacheConfig, PredictorConfig, eight_way, four_way
from repro.sim.pipeline import simulate_trace
from repro.trace import pack as pack_module
from repro.trace.pack import (
    CTRL_BRANCH,
    CTRL_JUMP,
    FE_BRANCH,
    FE_MISPREDICT,
    FE_MISS,
    FE_STOP,
    TABLE1_FRONT_END,
    PackedTrace,
    pack_entries,
)
from tests.sim import reference_pipeline
from tests.sim.test_golden_counters import edge_trace
from tests.sim.test_golden_counters import smoke_packs  # noqa: F401 (fixture)
from tests.sim.test_sim_properties import random_trace

CONFIGS = {4: four_way, 8: eight_way}

#: A front end unlike Table 1's: a 512 B 2-way I-cache with 32 B lines,
#: smaller than the smoke programs' code, and gshare with 1K counters and
#: 4 bits of history.
SMALL = {
    "icache": CacheConfig(512, 2, 32),
    "predictor": PredictorConfig(table_entries=1024, history_bits=4),
}

#: Front ends for the property: Table 1's, the small one, a 2-way, a
#: direct-mapped and a 4-way I-cache of a few lines.
FRONT_ENDS = (
    {},
    SMALL,
    {"icache": CacheConfig(128, 2, 32)},
    {
        "icache": CacheConfig(256, 1, 32),
        "predictor": PredictorConfig(table_entries=64, history_bits=2),
    },
    {
        "icache": CacheConfig(512, 4, 16),
        "predictor": PredictorConfig(table_entries=16, history_bits=0),
    },
)


def walk(pack: PackedTrace, config, perfect_branches: bool = False) -> bytearray:
    """The front-end column by calling the models on every entry, in order."""
    icache = Cache(config.icache)
    predictor = GSharePredictor(config.predictor)
    events = bytearray(pack.n)
    for s, sid in enumerate(pack.instr_ids):
        pc = pack.pcs[sid]
        misses = icache.misses
        icache.access(pc)
        ev = FE_MISS if icache.misses > misses else 0
        ctrl = pack.row_ctrl[sid]
        if ctrl == CTRL_JUMP:
            ev |= FE_STOP
        elif ctrl == CTRL_BRANCH:
            ev |= FE_BRANCH
            taken = pack.taken[s] == 1
            if not perfect_branches and not predictor.update(pc, taken):
                ev |= FE_MISPREDICT | FE_STOP
            elif taken:
                ev |= FE_STOP
        events[s] = ev
    return events


def _events(pack: PackedTrace, config, perfect_branches: bool = False) -> bytearray:
    return pack.front_end_events(config.front_end(perfect_branches))


def _with_pcs(trace: list[TraceEntry], pool: list[int], seed: int) -> PackedTrace:
    """``trace`` packed, each static row moved to a pc drawn from ``pool``."""
    pack = pack_entries(trace)
    rng = random.Random(seed)
    pack.pcs = array("q", (rng.choice(pool) for _ in range(pack.rows)))
    return pack


# A few pcs within 2 KB, reused by the rows in random order: the small
# I-caches see conflicts, evictions and hits on lines that are not the
# most recently used.
pc_pools = st.lists(
    st.integers(0x400000 >> 2, (0x400000 + 2048) >> 2).map(lambda w: w << 2),
    min_size=1,
    max_size=12,
)
seeds = st.integers(0, 2**32 - 1)


#: no shrink phase: shrinking a 600-entry trace and its pcs took minutes
#: to report a failure; Hypothesis still prints the unshrunk example
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(random_trace(), pc_pools, seeds, st.sampled_from(FRONT_ENDS), st.booleans())
def test_derived_column_matches_a_walk(trace, pool, seed, front_end, perfect):
    pack = _with_pcs(trace, pool, seed)
    config = four_way(**front_end)
    assert _events(pack, config, perfect) == walk(pack, config, perfect)


@pytest.mark.parametrize("front_end", [{}, SMALL], ids=["table1", "small"])
def test_smoke_columns_match_a_walk(smoke_packs, front_end):  # noqa: F811
    config = four_way(**front_end)
    for pack in smoke_packs.values():
        for perfect in (False, True):
            assert _events(pack, config, perfect) == walk(pack, config, perfect)


def test_both_machines_share_the_stored_front_end():
    assert four_way().front_end() == eight_way().front_end() == TABLE1_FRONT_END


def _reference_pair(fresh, decoded, config, perfect: bool) -> tuple[dict, dict]:
    """Our counters on ``decoded``, the reference's on ``fresh``: the
    reference reads dependence tokens, which a decoded pack lacks."""
    return (
        simulate_trace(decoded, config, perfect).to_counters(),
        reference_pipeline.simulate_trace(fresh, config, perfect).to_counters(),
    )


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(random_trace(), pc_pools, seeds, st.sampled_from(FRONT_ENDS), st.booleans())
def test_random_traces_match_reference_off_table1(
    trace, pool, seed, front_end, perfect
):
    pack = _with_pcs(trace, pool, seed)
    for width, machine in CONFIGS.items():
        config = machine(**front_end)
        ours, reference = _reference_pair(pack, pack, config, perfect)
        assert ours == reference, f"{width}-way"


@pytest.mark.parametrize("width", sorted(CONFIGS))
@pytest.mark.parametrize(
    ("front_end", "perfect"),
    [({}, True), (SMALL, False)],
    ids=["perfect-branches", "small-front-end"],
)
@pytest.mark.parametrize("decode", [False, True], ids=["fresh", "decoded"])
@pytest.mark.parametrize("workload", ["compress", "m88ksim"])
def test_smoke_packs_match_reference_off_table1(
    smoke_packs, workload, width, front_end, perfect, decode  # noqa: F811
):
    fresh = smoke_packs[(workload, "advanced")]
    decoded = PackedTrace.from_bytes(fresh.to_bytes()) if decode else fresh
    config = CONFIGS[width](**front_end)
    ours, reference = _reference_pair(fresh, decoded, config, perfect)
    assert ours == reference


def test_decoded_column_equals_a_fresh_derivation(smoke_packs):  # noqa: F811
    for fresh in smoke_packs.values():
        decoded = PackedTrace.from_bytes(fresh.to_bytes())
        derived = pack_module._front_end_events(fresh, TABLE1_FRONT_END)
        assert decoded.front_end_events() == derived


def test_both_widths_derive_the_column_once(monkeypatch):
    calls = []
    derive = pack_module._front_end_events

    def counted(pack, front_end):
        calls.append(front_end)
        return derive(pack, front_end)

    monkeypatch.setattr(pack_module, "_front_end_events", counted)
    fresh = pack_entries(edge_trace())
    for width in sorted(CONFIGS):
        simulate_trace(fresh, CONFIGS[width]())
    assert calls == [TABLE1_FRONT_END]
    # the encoding reuses the column, and a decoded pack derives nothing
    decoded = PackedTrace.from_bytes(fresh.to_bytes())
    for width in sorted(CONFIGS):
        simulate_trace(decoded, CONFIGS[width]())
    assert calls == [TABLE1_FRONT_END]


def _outcomeless_branch() -> list[TraceEntry]:
    """An ALU entry, then a ``beq`` with no recorded outcome."""
    alu = Instruction(Opcode.ADDU, defs=[virtual_reg(0)], uses=[virtual_reg(1)] * 2)
    beq = Instruction(Opcode.BEQ, uses=[virtual_reg(0)] * 2, target="x")
    return [
        TraceEntry(alu, 0x400000, Subsystem.INT, (), ((0, "a"),)),
        TraceEntry(beq, 0x400004, Subsystem.INT, ((0, "a"),), ()),
    ]


@pytest.mark.parametrize("perfect", [False, True], ids=["gshare", "perfect"])
def test_branch_without_outcome_is_a_simulation_error(perfect):
    with pytest.raises(SimulationError, match="trace entry 1 "):
        simulate_trace(_outcomeless_branch(), four_way(), perfect_branches=perfect)
