"""Trace capture/replay: keys, the on-disk store, the in-process pool.

A packed trace depends on everything *upstream* of the timing simulator
— the workload source, the partition options, and the code version —
but **not** on the machine configuration.  Its key is therefore the
bench :func:`~repro.bench.cache.cell_key` payload minus the machine
fingerprint (plus the trace format version), which is exactly what lets
one interpreter run feed every machine config of a sweep.

Two layers, both consulted by :func:`load_trace`:

* :class:`TracePool` — a small in-process LRU of decoded
  :class:`~repro.trace.pack.PackedTrace` objects.  Always on (bounded
  by ``REPRO_TRACE_POOL_CAP``, default 4 packs; ``0`` disables), so a
  serial sweep interprets each (workload, scheme) once even without any
  disk cache.
* :class:`TraceStore` — ``REPRO_TRACE_CACHE=<dir>`` opt-in directory of
  encoded packs under ``<root>/<key[:2]>/<key>.rtp``, written atomically
  (tmp + ``os.replace``) like the bench result cache it composes with.

A pack's ``meta`` is the complete record of the prepared program (see
:func:`repro.experiments.runner.run_benchmark`), so a hit replaces
compilation, partitioning and interpretation alike.  That is sound
because the key determines the program: it covers the source, every
partition option and the code version, and the pipeline is
deterministic (``tests/trace/test_program_determinism.py`` prepares
every paper cell under two hash seeds).  Nothing re-derives the program
to compare it with the pack.

Reads are defensive: a missing, truncated, bit-flipped, wrong-version or
wrong-code-version file is a *miss* (the caller re-interprets), never an
error, and so is a pack whose ``meta`` the caller's ``accept`` check
rejects (a foreign identity or a missing field).  ``trace_pack`` is a
fault site — ``REPRO_FAULTS`` can inject errors at the read path or
corrupt the raw bytes flowing out of it, and the chaos suite proves the
fallback holds.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from pathlib import Path
from typing import Callable

from repro.errors import TracePackError
from repro.faults import corrupt_point, fault_point
from repro.ioutil import atomic_write_bytes, content_key, reap_orphan_tmp_files
from repro.partition.cost import CostParams
from repro.trace.pack import TRACE_FORMAT_VERSION, PackedTrace

#: Environment variable opting into the on-disk trace store.
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"

#: Environment variable bounding the in-process pool (decoded packs).
TRACE_POOL_CAP_ENV = "REPRO_TRACE_POOL_CAP"

#: The harness runs a pack's machine-config siblings back to back and
#: the schemes of one program in order, so a pack is wanted again only by
#: its siblings or, for its profile, by the advanced cell two schemes
#: later; a few packs suffice, and each one held costs megabytes.
DEFAULT_POOL_CAP = 4

#: A caller's check of a found pack's ``meta``.
Accept = Callable[[dict], bool]


def trace_key(
    workload: str,
    scheme: str,
    scale: int | None = None,
    *,
    cost_params: CostParams | None = None,
    use_profile: bool = True,
    regalloc: bool = True,
    balance_limit: float | None = None,
    interprocedural: bool = False,
    code_version: str | None = None,
) -> str:
    """Content hash of one captured trace (machine-independent).

    Mirrors :func:`repro.bench.cache.cell_key` without the machine
    fingerprint.  An advanced run that fell back to the basic scheme
    shares the key of the advanced run; its pack's ``meta`` records
    ``degraded``.
    """
    from repro.bench.cache import code_fingerprint, sha256_text
    from repro.workloads import workload_source

    params = cost_params if cost_params is not None else CostParams()
    payload = {
        "trace_format": TRACE_FORMAT_VERSION,
        "workload": workload,
        "scale": scale,
        "source_sha256": sha256_text(workload_source(workload, scale)),
        "scheme": scheme,
        "partition_options": {
            "cost_params": params.as_dict(),
            "use_profile": use_profile,
            "regalloc": regalloc,
            "balance_limit": balance_limit,
            "interprocedural": interprocedural,
        },
        "code_version": code_version
        if code_version is not None
        else code_fingerprint(),
    }
    return content_key(payload)


class TracePool:
    """In-process LRU of decoded packs, keyed by :func:`trace_key`."""

    def __init__(self, cap: int | None = None) -> None:
        self._packs: OrderedDict[str, PackedTrace] = OrderedDict()
        self._cap = cap
        self.hits = 0
        self.misses = 0

    def cap(self) -> int:
        if self._cap is not None:
            return self._cap
        try:
            return max(0, int(os.environ.get(TRACE_POOL_CAP_ENV, DEFAULT_POOL_CAP)))
        except (TypeError, ValueError):
            return DEFAULT_POOL_CAP

    def get(self, key: str, accept: Accept | None = None) -> PackedTrace | None:
        pack = self._packs.get(key)
        if pack is None or (accept is not None and not accept(pack.meta)):
            self.misses += 1
            return None
        self._packs.move_to_end(key)
        self.hits += 1
        return pack

    def put(self, key: str, pack: PackedTrace) -> None:
        cap = self.cap()
        if cap == 0:
            return
        self._packs[key] = pack
        self._packs.move_to_end(key)
        while len(self._packs) > cap:
            self._packs.popitem(last=False)

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "size": len(self._packs),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
        }

    def clear(self) -> None:
        self._packs.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._packs)


#: The process-wide pool (one per worker process under the bench pool).
_POOL = TracePool()


def trace_pool() -> TracePool:
    return _POOL


def clear_trace_pool() -> None:
    """Drop the in-process trace pool (tests, long-lived processes)."""
    _POOL.clear()


class TraceStore:
    """Directory of encoded trace packs with atomic writes."""

    SUFFIX = ".rtp"

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        reap_orphan_tmp_files(self.root)

    @classmethod
    def from_env(cls, env: str = TRACE_CACHE_ENV) -> "TraceStore | None":
        """Store at ``$REPRO_TRACE_CACHE``, or ``None`` when unset/empty."""
        value = os.environ.get(env, "").strip()
        if not value or value == "0":
            return None
        return cls(value)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{self.SUFFIX}"

    def get(
        self, key: str, label: str = "", accept: Accept | None = None
    ) -> PackedTrace | None:
        """The decoded pack, or ``None`` on miss, damage, staleness or
        when ``accept(pack.meta)`` is false."""
        fault_point("trace_pack", label)
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            self._miss()
            return None
        # chaos hook: REPRO_FAULTS can flip bytes here, proving the
        # decoder treats stored packs as untrusted input
        data = corrupt_point("trace_pack", data, label=label or key)
        try:
            pack = PackedTrace.from_bytes(data)
        except TracePackError:
            self._miss()
            return None
        recorded = pack.meta.get("code_version")
        if recorded is not None:
            from repro.bench.cache import code_fingerprint

            if recorded != code_fingerprint():
                self._miss()
                return None
        if accept is not None and not accept(pack.meta):
            self._miss()
            return None
        self.hits += 1
        return pack

    def _miss(self) -> None:
        self.misses += 1

    def put(self, key: str, pack: PackedTrace) -> None:
        """Atomically publish ``pack`` under ``key`` (best effort).

        An unwritable store degrades to a no-op rather than failing the
        run — replay is an optimization, never a correctness dependency.
        """
        if "code_version" not in pack.meta:
            from repro.bench.cache import code_fingerprint

            pack.meta["code_version"] = code_fingerprint()
        try:
            atomic_write_bytes(self.path_for(key), pack.to_bytes())
        except OSError:
            pass

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "dir": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
        }


def load_trace(
    key: str, label: str = "", accept: Accept | None = None
) -> PackedTrace | None:
    """Resolve ``key`` through the pool, then the env-configured store.

    ``accept`` vets a found pack's ``meta``; a rejected pack is a miss.
    """
    pack = _POOL.get(key, accept)
    if pack is not None:
        return pack
    store = TraceStore.from_env()
    if store is None:
        return None
    pack = store.get(key, label, accept)
    if pack is not None:
        _POOL.put(key, pack)
    return pack


def store_trace(key: str, pack: PackedTrace, label: str = "") -> None:
    """Publish a freshly captured pack to the pool and (if set) the store."""
    _POOL.put(key, pack)
    store = TraceStore.from_env()
    if store is not None:
        store.put(key, pack)

