"""The differential net over the interpret→simulate hot path.

For every (workload, scheme) cell of the smoke matrix, simulating the
pack a traced run returns must be **bit-identical** — every ``SimStats``
counter, compared field by field — to simulating its ``TraceEntry``
stream (unpacked, then packed again by :func:`pack_entries`), on both
Table 1 machine widths; the unpacked entries must agree with the static
instructions they came from; and the on-disk encoding must round-trip
byte-stably.  This suite and ``test_golden_pack.py`` are what CI runs as
the ``trace-equivalence`` step: they license the fast replay path to
substitute for fresh interpretation.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.experiments.runner import SCHEMES, prepare_program
from repro.ir.opcodes import OpKind
from repro.runtime.interp import run_program
from repro.runtime.trace import Subsystem
from repro.sim.config import eight_way, four_way
from repro.sim.pipeline import simulate_trace
from repro.trace.pack import PackedTrace
from repro.trace.store import TRACE_CACHE_ENV, clear_trace_pool

#: The smoke matrix (mirrors ``repro.bench.matrix``'s smoke suite).
SMOKE = {"compress": 150, "m88ksim": 2}

CELLS = [
    (workload, scale, scheme)
    for workload, scale in sorted(SMOKE.items())
    for scheme in SCHEMES
]
IDS = [f"{w}@{s}/{scheme}" for w, s, scheme in CELLS]


def entry_mix(entries) -> dict[str, int]:
    """:meth:`PackedTrace.dynamic_mix`, recounted entry by entry."""
    kinds = Counter(entry.instr.kind for entry in entries)
    return {
        "total": len(entries),
        "fp_executed": sum(1 for e in entries if e.subsystem is Subsystem.FP),
        "loads": kinds[OpKind.LOAD],
        "stores": kinds[OpKind.STORE],
        "branches": kinds[OpKind.BRANCH],
        "copies": kinds[OpKind.COPY],
    }


@pytest.fixture(scope="module")
def captured():
    """(workload, scheme) -> (program, entries, pack); interpreted once."""
    runs = {}
    for workload, scale, scheme in CELLS:
        artifacts = prepare_program(workload, scheme, scale=scale)
        run = run_program(artifacts.program, collect_trace=True)
        assert run.packed.n == run.instructions
        entries = run.packed.unpack_entries(artifacts.program)
        runs[(workload, scheme)] = (artifacts.program, entries, run.packed)
    return runs


@pytest.mark.parametrize(("workload", "scale", "scheme"), CELLS, ids=IDS)
@pytest.mark.parametrize("config", [four_way, eight_way], ids=["4way", "8way"])
def test_packed_replay_is_bit_identical(captured, workload, scale, scheme, config):
    _, entries, pack = captured[(workload, scheme)]
    fresh = simulate_trace(list(entries), config())
    replayed = simulate_trace(pack, config())
    fresh_counters = fresh.to_counters()
    replayed_counters = replayed.to_counters()
    for field, value in fresh_counters.items():
        assert replayed_counters[field] == value, (
            f"{workload}/{scheme}: SimStats.{field} diverges between "
            f"fresh interpretation and packed replay"
        )
    assert replayed_counters == fresh_counters


@pytest.mark.parametrize(("workload", "scale", "scheme"), CELLS, ids=IDS)
def test_encode_decode_encode_is_byte_stable(captured, workload, scale, scheme):
    _, _, pack = captured[(workload, scheme)]
    data = pack.to_bytes()
    decoded = PackedTrace.from_bytes(data)
    assert decoded.to_bytes() == data


@pytest.mark.parametrize(("workload", "scale", "scheme"), CELLS, ids=IDS)
def test_decoded_pack_still_replays_identically(captured, workload, scale, scheme):
    """Equivalence must survive the disk encoding, not just in-memory
    packing — the store hands the simulator decoded packs."""
    _, entries, pack = captured[(workload, scheme)]
    decoded = PackedTrace.from_bytes(pack.to_bytes())
    fresh = simulate_trace(list(entries), four_way())
    replayed = simulate_trace(decoded, four_way())
    assert replayed.to_counters() == fresh.to_counters()


@pytest.mark.parametrize(("workload", "scale", "scheme"), CELLS, ids=IDS)
def test_dynamic_mix_matches(captured, workload, scale, scheme):
    _, entries, pack = captured[(workload, scheme)]
    assert pack.dynamic_mix() == entry_mix(entries)


@pytest.mark.parametrize(("workload", "scale", "scheme"), CELLS, ids=IDS)
def test_unpack_reconstructs_the_entry_stream(captured, workload, scale, scheme):
    """Each unpacked entry agrees with its static instruction: side,
    operands as dependence tokens, and which dynamic fields it has."""
    _, entries, _ = captured[(workload, scheme)]
    for entry in entries:
        instr, kind = entry.instr, entry.instr.kind
        assert (entry.subsystem is Subsystem.FP) == bool(instr.info.fp_subsystem)
        assert (entry.mem_addr is not None) == (
            kind is OpKind.LOAD or kind is OpKind.STORE
        )
        assert (entry.taken is not None) == (kind is OpKind.BRANCH)
        frames = {frame for frame, _ in entry.reads}
        assert len(frames) <= 1, "one entry reads from one activation"
        read_names = [name for _, name in entry.reads]
        write_names = [name for _, name in entry.writes]
        if kind is OpKind.PARAM:
            assert read_names == ["@args"]
        else:
            assert read_names == [
                r.name for r in instr.uses if r.name not in ("$zero", "$sp")
            ]
        if kind is OpKind.CALL:
            assert write_names == ["@args"]
            assert entry.writes[0][0] not in frames, "callee gets a new frame"
        elif kind is OpKind.RET:
            assert len(write_names) <= 1
        else:
            assert write_names == [r.name for r in instr.defs]
            frames |= {frame for frame, _ in entry.writes}
            assert len(frames) <= 1, "one entry touches one activation"


class TestInterpretOnce:
    """The acceptance property: one interpretation feeds every config."""

    def test_second_config_replays_from_the_pool(self, monkeypatch):
        from repro.experiments import runner

        monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
        clear_trace_pool()
        traced_runs = 0
        real_run_program = runner.run_program

        def counting_run_program(*args, **kwargs):
            nonlocal traced_runs
            if kwargs.get("collect_trace"):
                traced_runs += 1
            return real_run_program(*args, **kwargs)

        monkeypatch.setattr(runner, "run_program", counting_run_program)
        four = runner.run_benchmark(
            "compress", "conventional", width=4, scale=SMOKE["compress"]
        )
        eight = runner.run_benchmark(
            "compress", "conventional", width=8, scale=SMOKE["compress"]
        )
        clear_trace_pool()
        assert traced_runs == 1, "second machine config re-ran the interpreter"
        assert four.checksum == eight.checksum
        assert four.dynamic_instructions == eight.dynamic_instructions

    def test_pool_replay_is_bit_identical_end_to_end(self, monkeypatch):
        from repro.experiments import runner

        monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
        clear_trace_pool()
        first = runner.run_benchmark(
            "compress", "basic", width=4, scale=SMOKE["compress"]
        )
        replayed = runner.run_benchmark(
            "compress", "basic", width=4, scale=SMOKE["compress"]
        )
        clear_trace_pool()
        fresh = runner.run_benchmark(
            "compress", "basic", width=4, scale=SMOKE["compress"]
        )
        assert replayed.stats.to_counters() == first.stats.to_counters()
        assert fresh.stats.to_counters() == first.stats.to_counters()
        assert fresh.checksum == first.checksum
        assert fresh.mix == first.mix


class TestReplayNeedsNoProgram:
    """A hit is the complete record of the prepared program: the result
    replayed from it equals a cold run's field for field, and nothing
    upstream of the simulator runs."""

    @pytest.mark.parametrize(("workload", "scale", "scheme"), CELLS, ids=IDS)
    def test_replayed_result_equals_cold(
        self, monkeypatch, tmp_path, workload, scale, scheme
    ):
        from repro.bench.results import result_to_dict
        from repro.experiments import runner

        cold = {
            width: result_to_dict(
                runner.run_benchmark(workload, scheme, width=width, scale=scale)
            )
            for width in (4, 8)
        }
        clear_trace_pool()
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        runner.run_benchmark(workload, scheme, width=4, scale=scale)
        clear_trace_pool()  # replay from disk, as a new process would

        def upstream(*args, **kwargs):
            raise AssertionError("a replayed cell re-derived its program")

        monkeypatch.setattr(runner, "compile_workload", upstream)
        monkeypatch.setattr(runner, "run_program", upstream)
        for width in (4, 8):
            replayed = runner.run_benchmark(workload, scheme, width=width, scale=scale)
            assert result_to_dict(replayed) == cold[width]
