"""The one cache implementation behind the result cache and trace store.

Two caches make sweeps cheap: :class:`~repro.bench.cache.ResultCache`
(simulated cell results) and :class:`~repro.trace.store.TraceStore`
(packed traces, shared by every machine width).  Both are built from
the pieces here, and add only their codec and their checks:

* :func:`content_key` — one canonical-JSON hash for every key;
  :func:`code_fingerprint` and :func:`sha256_text` go into it;
* :class:`DiskStore` — a directory of entries under
  ``<root>/<key[:2]>/<key><SUFFIX>``, hit/miss counters, the
  env-configured store resolved once per process and env value, and
  orphan reaping on open;
* :func:`atomic_write_bytes` — the publish discipline: write the full
  contents to a unique temporary file in the destination directory,
  fsync, then :func:`os.replace`.  The rename is atomic on POSIX, so a
  reader never observes a torn file and a crashed writer leaves at
  worst an ignored ``*.tmp-*`` orphan;
* :class:`LRU` — the bounded in-process map in front of each store
  (the harness memo of results, the pool of decoded packs).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable

#: Minimum age (seconds) before an orphaned ``*.tmp-*`` file is reaped.
#: Young tmp files may belong to a live concurrent writer about to
#: rename them; an hour-old one is debris from a killed process.
DEFAULT_TMP_MAX_AGE = 3600.0


def content_key(payload: dict) -> str:
    """SHA-256 hex digest of ``payload`` as canonical JSON.

    Keys are sorted and separators compact, so equal payloads always
    hash equally regardless of dict insertion order.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (path + contents).

    Any code change — optimizer, partitioner, simulator, workload
    generator — yields a new fingerprint and therefore a cold cache;
    stale results can never leak across versions.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Atomically publish ``data`` at ``path`` (tmp + ``os.replace``).

    Creates parent directories as needed.  Any failure removes the
    temporary file and re-raises.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def reap_orphan_tmp_files(
    root: str | os.PathLike,
    *,
    max_age: float = DEFAULT_TMP_MAX_AGE,
    now: float | None = None,
) -> int:
    """Delete stale ``*.tmp-*`` orphans under ``root``; returns the count.

    :func:`atomic_write_bytes` removes its temporary file on every
    failure it can observe, but a writer killed outright (SIGKILL, power
    loss, an ``os._exit`` crash fault) leaves the orphan behind.  A
    :class:`DiskStore` calls this on open so repeated runs do not
    accumulate debris.  Only files older than ``max_age`` are touched: a
    younger tmp file may belong to a live writer in another process
    whose ``os.replace`` has simply not happened yet.  Errors are
    swallowed — reaping is hygiene, never a correctness dependency.
    """
    base = Path(root)
    if not base.is_dir():
        return 0
    cutoff = (time.time() if now is None else now) - max_age
    reaped = 0
    try:
        candidates = list(base.rglob("*.tmp-*"))
    except OSError:
        return 0
    for path in candidates:
        try:
            if not path.is_file() or path.stat().st_mtime > cutoff:
                continue
            path.unlink()
            reaped += 1
        except OSError:
            continue
    return reaped


def _hit_stats(hits: int, misses: int) -> dict:
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / total if total else 0.0,
    }


#: (store class, env value) -> the store :meth:`DiskStore.from_env` opened
_ENV_STORES: dict[tuple[type, str], "DiskStore"] = {}


class DiskStore:
    """Directory of content-addressed entries; subclasses add the codec.

    ``SUFFIX`` names the entry files and ``ENV`` the environment
    variable that configures the process's store.  Opening a store reaps
    stale ``*.tmp-*`` orphans left by writers that were killed
    mid-publish.  Writes are best effort: a store is an optimization,
    never a correctness dependency, so an unwritable one degrades to a
    no-op rather than failing the run.
    """

    SUFFIX = ""
    ENV = ""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        reap_orphan_tmp_files(self.root)

    @classmethod
    def from_env(cls):
        """The store at ``$ENV``, or ``None`` when unset, empty or ``0``.

        Each process opens (and reaps) the store of one env value once,
        so its counters add up over every lookup of the process.
        """
        value = os.environ.get(cls.ENV, "").strip()
        if not value or value == "0":
            return None
        store = _ENV_STORES.get((cls, value))
        if store is None:
            store = _ENV_STORES[(cls, value)] = cls(value)
        return store

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{self.SUFFIX}"

    def _read(self, key: str) -> bytes | None:
        """The raw entry, or ``None`` when it cannot be read."""
        try:
            return self.path_for(key).read_bytes()
        except OSError:
            return None

    def _write(self, key: str, data: bytes) -> None:
        """Atomically publish ``data`` under ``key`` (best effort)."""
        try:
            atomic_write_bytes(self.path_for(key), data)
        except OSError:
            pass

    def _miss(self) -> None:
        self.misses += 1
        return None

    def stats(self) -> dict:
        return {"dir": str(self.root), **_hit_stats(self.hits, self.misses)}


class LRU:
    """Bounded in-process map that evicts the least recently used entry.

    ``hits`` and ``misses`` count :meth:`get` calls; a cap of 0 keeps
    nothing.
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self._items: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str, accept: Callable[[object], bool] | None = None):
        """The value under ``key``, or ``None`` when absent or when
        ``accept(value)`` is false."""
        value = self._items.get(key)
        if value is None or (accept is not None and not accept(value)):
            self.misses += 1
            return None
        self._items.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: str, value) -> None:
        self._items[key] = value
        self._items.move_to_end(key)
        while len(self._items) > self.cap:
            self._items.popitem(last=False)

    def stats(self) -> dict:
        return {"size": len(self._items), **_hit_stats(self.hits, self.misses)}

    def clear(self) -> None:
        self._items.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: str) -> bool:
        return key in self._items
