"""Orphaned ``*.tmp-*`` reaping: stores clean up after killed writers."""

from __future__ import annotations

import os
import time

from repro.bench.cache import ResultCache
from repro.ioutil import DEFAULT_TMP_MAX_AGE, reap_orphan_tmp_files
from repro.trace.store import TRACE_CACHE_ENV, TraceStore


def _plant_tmp(root, name: str, age: float) -> "os.PathLike":
    """A fake orphan whose mtime is ``age`` seconds in the past."""
    root.mkdir(parents=True, exist_ok=True)
    path = root / name
    path.write_bytes(b"half-written entry")
    stamp = time.time() - age
    os.utime(path, (stamp, stamp))
    return path


class TestReapFunction:
    def test_reaps_only_stale_orphans(self, tmp_path):
        stale = _plant_tmp(tmp_path / "ab", "k.json.tmp-x1", DEFAULT_TMP_MAX_AGE + 60)
        fresh = _plant_tmp(tmp_path / "ab", "k.json.tmp-x2", 5.0)
        live = tmp_path / "ab" / "k.json"
        live.write_text("{}")

        reaped = reap_orphan_tmp_files(tmp_path)

        assert reaped == 1
        assert not stale.exists(), "stale orphan survived"
        assert fresh.exists(), "a live writer's young tmp file was reaped"
        assert live.exists(), "a published entry was touched"

    def test_missing_root_is_noop(self, tmp_path):
        assert reap_orphan_tmp_files(tmp_path / "nope") == 0

    def test_custom_max_age(self, tmp_path):
        _plant_tmp(tmp_path, "a.tmp-1", 10.0)
        assert reap_orphan_tmp_files(tmp_path, max_age=5.0) == 1


class TestStoresReapOnOpen:
    def test_result_cache_open_reaps(self, tmp_path):
        root = tmp_path / "cache"
        stale = _plant_tmp(root / "ab", "k.json.tmp-dead", DEFAULT_TMP_MAX_AGE + 60)
        ResultCache(root)
        assert not stale.exists()

    def test_trace_store_open_reaps(self, tmp_path):
        root = tmp_path / "traces"
        stale = _plant_tmp(root / "cd", "k.rtp.tmp-dead", DEFAULT_TMP_MAX_AGE + 60)
        TraceStore(root)
        assert not stale.exists()

    def test_open_does_not_disturb_entries(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(root)
        cache.put("ab" + "0" * 62, {"result": 1})
        reopened = ResultCache(root)
        assert reopened.get("ab" + "0" * 62) is not None

    def test_env_store_opens_once(self, tmp_path, monkeypatch):
        """The env-configured store is resolved once per process and env
        value: one instance, whose counters span every lookup, swept on
        its first resolution only."""
        root = tmp_path / "traces"
        first_orphan = _plant_tmp(root / "ab", "a.rtp.tmp-1", DEFAULT_TMP_MAX_AGE + 60)
        monkeypatch.setenv(TRACE_CACHE_ENV, str(root))
        store = TraceStore.from_env()
        assert not first_orphan.exists()
        second_orphan = _plant_tmp(root / "ab", "b.rtp.tmp-2", DEFAULT_TMP_MAX_AGE + 60)
        assert TraceStore.from_env() is store
        assert second_orphan.exists(), "a second resolution swept again"
        # another env value is another store
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "other"))
        assert TraceStore.from_env() is not store
