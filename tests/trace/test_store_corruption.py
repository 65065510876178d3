"""Trace-store defenses: damaged or stale packs are misses, never errors.

Truncation, bit flips, wrong format versions, foreign byte order,
stale code fingerprints and a ``meta`` naming another cell must all be
*rejected* by the read path, and the caller must fall back to fresh
interpretation with a correct result, repair the store, and leave
sibling cells untouched.  Keys are machine-independent
(that is the whole point) but sensitive to everything upstream of the
simulator.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import clear_memo, run_cells
from repro.bench.matrix import Cell
from repro.bench.results import result_to_dict
from repro.errors import TracePackError
from repro.experiments.runner import run_benchmark
from repro.ioutil import LRU
from repro.trace.pack import (
    MAGIC,
    PackedTrace,
    pack_entries,
    program_fingerprint,
)
from repro.trace.store import (
    TRACE_CACHE_ENV,
    TraceStore,
    clear_trace_pool,
    trace_key,
)

SCALE = 150  # compress smoke scale: sub-second cells


def _small_pack() -> PackedTrace:
    from repro.ir.instructions import Instruction
    from repro.ir.opcodes import Opcode
    from repro.ir.registers import virtual_reg
    from repro.runtime.trace import Subsystem, TraceEntry

    alu = Instruction(Opcode.ADDU, defs=[virtual_reg(1)], uses=[virtual_reg(0)] * 2)
    entries = [
        TraceEntry(alu, 0x400000 + 4 * i, Subsystem.INT,
                   ((0, "r0"),), ((0, "r1"),))
        for i in range(5)
    ]
    return pack_entries(entries, value=7, meta={"workload": "x"})


KEY = "ab" + "0" * 62


class TestKeys:
    def test_key_is_stable_and_machine_independent(self):
        a = trace_key("compress", "basic", SCALE)
        assert a == trace_key("compress", "basic", SCALE)
        # no machine parameter exists to vary: the signature itself is
        # the guarantee; options that change the program change the key
        assert a != trace_key("compress", "advanced", SCALE)
        assert a != trace_key("compress", "basic", SCALE + 1)
        assert a != trace_key("compress", "basic", SCALE, regalloc=False)

    def test_code_version_invalidates(self):
        assert trace_key("compress", "basic", SCALE) != trace_key(
            "compress", "basic", SCALE, code_version="deadbeef"
        )

    def test_format_version_invalidates(self, monkeypatch):
        current = trace_key("compress", "basic", SCALE)
        monkeypatch.setattr("repro.trace.store.TRACE_FORMAT_VERSION", 999)
        assert trace_key("compress", "basic", SCALE) != current


class TestStoreRejection:
    def test_round_trip(self, tmp_path):
        store = TraceStore(tmp_path)
        pack = _small_pack()
        store.put(KEY, pack)
        got = store.get(KEY)
        assert got is not None
        assert got.to_bytes() == pack.to_bytes()
        assert store.hits == 1

    def test_missing_is_a_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.get(KEY) is None
        assert store.misses == 1

    def test_truncated_file_is_a_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(KEY, _small_pack())
        path = store.path_for(KEY)
        data = path.read_bytes()
        for cut in (0, 7, len(MAGIC) + 10, len(data) // 2, len(data) - 1):
            path.write_bytes(data[:cut])
            assert store.get(KEY) is None, f"accepted a {cut}-byte prefix"

    @pytest.mark.parametrize("offset_frac", [0.0, 0.2, 0.5, 0.9])
    def test_bit_flip_anywhere_is_a_miss(self, tmp_path, offset_frac):
        store = TraceStore(tmp_path)
        store.put(KEY, _small_pack())
        path = store.path_for(KEY)
        data = bytearray(path.read_bytes())
        index = min(len(data) - 1, int(len(data) * offset_frac))
        data[index] ^= 0x40
        path.write_bytes(bytes(data))
        assert store.get(KEY) is None

    def test_wrong_format_version_is_a_miss(self, tmp_path, monkeypatch):
        store = TraceStore(tmp_path)
        monkeypatch.setattr("repro.trace.pack.TRACE_FORMAT_VERSION", 999)
        store.put(KEY, _small_pack())  # written as a "future" version
        monkeypatch.undo()
        assert store.get(KEY) is None

    def test_stale_code_fingerprint_is_a_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        pack = _small_pack()
        pack.meta["code_version"] = "deadbeef"  # not this build
        store.put(KEY, pack)
        assert store.get(KEY) is None

    def test_decoder_raises_cleanly_when_used_directly(self):
        with pytest.raises(TracePackError):
            PackedTrace.from_bytes(b"not a trace pack at all")
        with pytest.raises(TracePackError):
            PackedTrace.from_bytes(MAGIC + b"\x00" * 10)

    def test_unwritable_store_degrades_to_noop(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file where the store dir should be")
        store = TraceStore(target)
        store.put(KEY, _small_pack())  # must not raise
        assert store.get(KEY) is None

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
        assert TraceStore.from_env() is None
        monkeypatch.setenv(TRACE_CACHE_ENV, "0")
        assert TraceStore.from_env() is None
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        store = TraceStore.from_env()
        assert store is not None and store.root == tmp_path


class TestPool:
    def test_lru_eviction(self):
        pool = LRU(2)
        packs = {k: _small_pack() for k in ("a", "b", "c")}
        pool.put("a", packs["a"])
        pool.put("b", packs["b"])
        assert pool.get("a") is packs["a"]  # refresh a
        pool.put("c", packs["c"])  # evicts b
        assert pool.get("b") is None
        assert pool.get("a") is packs["a"]
        assert pool.get("c") is packs["c"]

    def test_cap_zero_disables(self):
        pool = LRU(0)
        pool.put("a", _small_pack())
        assert len(pool) == 0 and pool.get("a") is None


def _flip_stored_pack(root, key) -> None:
    """Flip one byte in the middle of the stored pack for ``key``."""
    path = TraceStore(root).path_for(key)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


class TestFallback:
    """Damaged store contents must never change benchmark results."""

    @pytest.mark.parametrize(
        "poison",
        [
            pytest.param(lambda meta: meta.update(scheme="basic"), id="foreign-scheme"),
            pytest.param(lambda meta: meta.update(scale=SCALE + 1), id="foreign-scale"),
            pytest.param(lambda meta: meta.pop("static_instructions"), id="no-field"),
        ],
    )
    def test_foreign_meta_identity_falls_back(self, tmp_path, monkeypatch, poison):
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        fresh = run_benchmark("compress", "conventional", scale=SCALE)
        clear_trace_pool()

        # poison the stored pack: right key, intact envelope, wrong meta
        key = trace_key("compress", "conventional", SCALE)
        store = TraceStore(tmp_path)
        poisoned = store.get(key)
        assert poisoned is not None
        poison(poisoned.meta)
        store.put(key, poisoned)
        clear_trace_pool()

        again = run_benchmark("compress", "conventional", scale=SCALE)
        assert result_to_dict(again) == result_to_dict(fresh)
        # and the fallback repaired the store with a good pack
        clear_trace_pool()
        repaired = TraceStore(tmp_path).get(key)
        assert repaired is not None
        assert repaired.meta["scheme"] == "conventional"
        assert repaired.meta["scale"] == SCALE
        assert repaired.meta["static_instructions"] == fresh.static_instructions

    def test_flipped_bits_on_disk_fall_back(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        fresh = run_benchmark("compress", "conventional", scale=SCALE)
        clear_trace_pool()

        _flip_stored_pack(tmp_path, trace_key("compress", "conventional", SCALE))

        again = run_benchmark("compress", "conventional", scale=SCALE)
        assert again.checksum == fresh.checksum
        assert again.stats.to_counters() == fresh.stats.to_counters()

    def test_corrupt_read_costs_reinterpretation(self, tmp_path, monkeypatch):
        """Bytes damaged between disk and decoder (the file itself intact)
        cost one re-interpretation, never a wrong result."""
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        fresh = run_benchmark("compress", "conventional", scale=SCALE)
        clear_trace_pool()

        reads = []
        intact_read = TraceStore._read

        def damaged_once(self, key):
            data = intact_read(self, key)
            reads.append(key)
            if data is None or len(reads) > 1:
                return data
            return bytes(b ^ 0x5A for b in data)

        monkeypatch.setattr(TraceStore, "_read", damaged_once)
        again = run_benchmark("compress", "conventional", scale=SCALE)
        assert reads, "the run never read the stored pack"
        assert again.checksum == fresh.checksum
        assert again.stats.to_counters() == fresh.stats.to_counters()

    def test_no_sibling_contamination(self, tmp_path, monkeypatch):
        """Flipped compress packs cost compress a re-interpretation and
        leave every m88ksim cell untouched."""
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        cells = [
            Cell(name, scheme, 4, scale)
            for name, scale in (("compress", SCALE), ("m88ksim", 2))
            for scheme in ("conventional", "basic")
        ]
        clean = {o.key: result_to_dict(o.unwrap()) for o in run_cells(cells)}
        clear_memo()
        clear_trace_pool()

        flipped = [trace_key("compress", s, SCALE) for s in ("conventional", "basic")]
        for key in flipped:
            _flip_stored_pack(tmp_path, key)
        outcomes = run_cells(cells)
        assert all(o.ok for o in outcomes)
        for outcome in outcomes:
            assert result_to_dict(outcome.result) == clean[outcome.key]
        assert all(TraceStore(tmp_path).get(key) is not None for key in flipped)

    def test_fallback_repairs_the_store(self, tmp_path, monkeypatch):
        """The re-interpreted pack is republished: the next run replays
        it from disk without preparing the program."""
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        fresh = run_benchmark("compress", "conventional", scale=SCALE)
        clear_trace_pool()
        key = trace_key("compress", "conventional", SCALE)
        _flip_stored_pack(tmp_path, key)
        run_benchmark("compress", "conventional", scale=SCALE)
        clear_trace_pool()

        assert TraceStore(tmp_path).get(key) is not None
        monkeypatch.setattr("repro.experiments.runner.compile_workload", None)
        again = run_benchmark("compress", "conventional", scale=SCALE)
        assert result_to_dict(again) == result_to_dict(fresh)

    def test_disk_replay_is_bit_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
        fresh = run_benchmark("compress", "basic", scale=SCALE)
        clear_trace_pool()  # force the disk path, as a new process would
        replayed = run_benchmark("compress", "basic", scale=SCALE)
        assert replayed.stats.to_counters() == fresh.stats.to_counters()
        assert replayed.checksum == fresh.checksum
        assert replayed.mix == fresh.mix


def test_program_fingerprint_tracks_the_program():
    from repro.workloads import compile_workload

    a = program_fingerprint(compile_workload("compress", SCALE))
    b = program_fingerprint(compile_workload("compress", SCALE))
    c = program_fingerprint(compile_workload("compress", SCALE + 5))
    assert a == b != c
