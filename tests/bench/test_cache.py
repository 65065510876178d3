"""Cache layer: key derivation, invalidation, and crash safety."""

from __future__ import annotations

import json

import pytest

from repro.bench.cache import CACHE_SCHEMA, ResultCache, cell_key, code_fingerprint
from repro.bench.matrix import Cell
from repro.errors import ReproError
from repro.ioutil import content_key
from repro.partition.cost import CostParams
from repro.trace.store import trace_key

CELL = Cell("m88ksim", "advanced", 4, 2)


class TestKeys:
    def test_key_is_stable(self):
        assert cell_key(CELL) == cell_key(CELL)

    def test_source_change_invalidates(self):
        """A different scale generates different workload source."""
        assert cell_key(CELL) != cell_key(Cell("m88ksim", "advanced", 4, 3))

    def test_scheme_invalidates(self):
        assert cell_key(CELL) != cell_key(Cell("m88ksim", "basic", 4, 2))

    def test_machine_config_invalidates(self):
        assert cell_key(CELL) != cell_key(Cell("m88ksim", "advanced", 8, 2))

    def test_code_version_invalidates(self):
        current = cell_key(CELL)
        other = cell_key(CELL, code_version="deadbeef")
        assert current != other
        assert cell_key(CELL, code_version=code_fingerprint()) == current

    def test_trace_format_version_invalidates(self, monkeypatch):
        """A trace-pack format bump must cold the result cache too:
        cached cells were computed from packed traces of that format."""
        current = cell_key(CELL)
        monkeypatch.setattr("repro.bench.cache.TRACE_FORMAT_VERSION", 999)
        assert cell_key(CELL) != current

    def test_partition_options_invalidate(self):
        assert cell_key(CELL) != cell_key(
            CELL, cost_params=CostParams(o_copy=4.0, o_dupl=2.0)
        )
        assert cell_key(CELL) != cell_key(CELL, use_profile=False)
        assert cell_key(CELL) != cell_key(CELL, balance_limit=0.25)
        assert cell_key(CELL) != cell_key(CELL, interprocedural=True)

    def test_default_cost_params_normalized(self):
        """Explicit defaults hash like the implicit ones."""
        assert cell_key(CELL) == cell_key(CELL, cost_params=CostParams())

    def test_code_fingerprint_tracks_sources(self, tmp_path, monkeypatch):
        """The fingerprint covers file contents, not just names."""
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("x = 1\n")

        import repro

        monkeypatch.setattr(repro, "__file__", str(pkg / "__init__.py"))
        code_fingerprint.cache_clear()
        first = code_fingerprint()
        (pkg / "__init__.py").write_text("x = 2\n")
        code_fingerprint.cache_clear()
        second = code_fingerprint()
        code_fingerprint.cache_clear()  # drop the fake-path cache entry
        assert first != second

    def test_unknown_workload_rejected(self):
        with pytest.raises(ReproError, match="workload"):
            Cell("specint2000", "basic", 4)


class TestGoldenKeys:
    """Pinned digests: existing result caches and trace stores must keep
    hitting, so the key derivation may not drift byte for byte."""

    def test_cell_key_digest(self):
        cell = Cell("compress", "advanced", 4, 150)
        assert cell_key(cell, code_version="golden") == (
            "21df46815c2274a203c9de789bb700f4128738cce740d9704db3dd63de8e4aad"
        )

    def test_trace_key_digest(self):
        assert trace_key("compress", "advanced", 150, code_version="golden") == (
            "c312a9d9c50386012fe38ee67f4292dd1cc7d5d43ee165fe62098e4e59ed5986"
        )

    def test_content_key_ignores_insertion_order(self):
        assert content_key({"a": 1, "b": [2]}) == content_key({"b": [2], "a": 1})


ENTRY = {"cell": CELL.as_dict(), "result": {"cycles": 123}, "compute_seconds": 1.5}


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        cache.put(key, ENTRY)
        entry = cache.get(key)
        assert entry["result"] == {"cycles": 123}
        assert entry["compute_seconds"] == 1.5
        assert entry["key"] == key
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "1" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text('{"truncated": ')
        assert cache.get(key) is None
        # and a put over the corruption repairs it
        cache.put(key, ENTRY)
        assert cache.get(key)["result"] == {"cycles": 123}

    def test_key_mismatch_is_a_miss(self, tmp_path):
        """An entry renamed to the wrong key (or a hash collision in the
        shard prefix) never replays."""
        cache = ResultCache(tmp_path)
        key_a = "ef" + "2" * 62
        key_b = "ef" + "3" * 62
        cache.put(key_a, ENTRY)
        cache.path_for(key_a).rename(cache.path_for(key_b))
        assert cache.get(key_b) is None

    def test_schema_bump_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "0a" + "4" * 62
        cache.put(key, ENTRY)
        path = cache.path_for(key)
        entry = json.loads(path.read_text())
        entry["cache_schema"] = CACHE_SCHEMA + 1
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_partial_tmp_file_is_ignored(self, tmp_path):
        """A crashed writer leaves only a ``*.tmp-*`` file; lookups miss
        and a later writer publishes cleanly alongside it."""
        cache = ResultCache(tmp_path)
        key = "12" + "5" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        leftover = path.parent / (path.name + ".tmp-crashed")
        leftover.write_text('{"half": ')
        assert cache.get(key) is None
        cache.put(key, ENTRY)
        assert cache.get(key)["result"] == {"cycles": 123}
        assert leftover.exists()  # untouched, harmless

    def test_put_is_atomic_no_tmp_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "34" + "6" * 62
        cache.put(key, ENTRY)
        names = [p.name for p in cache.path_for(key).parent.iterdir()]
        assert names == [f"{key}.json"]

    def test_failed_put_leaves_no_entry(self, tmp_path, monkeypatch):
        """If serialization dies mid-write, neither a final file nor a
        stray handle-owned tmp survives as a *valid* entry."""
        cache = ResultCache(tmp_path)
        key = "56" + "7" * 62

        class Boom(RuntimeError):
            pass

        def exploding_dump(*args, **kwargs):
            raise Boom()

        monkeypatch.setattr("repro.bench.cache.json.dumps", exploding_dump)
        with pytest.raises(Boom):
            cache.put(key, ENTRY)
        monkeypatch.undo()
        assert cache.get(key) is None
        assert not cache.path_for(key).exists()

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_CACHE", raising=False)
        assert ResultCache.from_env() is None
        monkeypatch.setenv("REPRO_BENCH_CACHE", "0")
        assert ResultCache.from_env() is None
        monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path))
        cache = ResultCache.from_env()
        assert cache is not None and cache.root == tmp_path
