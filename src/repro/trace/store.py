"""Trace capture/replay: the key, the on-disk store, the in-process pool.

A packed trace depends on everything *upstream* of the timing simulator
— the workload source, the partition options, and the code version —
but **not** on the machine configuration.  :func:`trace_payload` is
that content, and its hash is the trace key; the bench result cache's
:func:`~repro.bench.cache.cell_key` hashes the same payload plus the
machine, which is exactly what lets one interpreter run feed every
machine config of a sweep.

:func:`load_trace` consults two layers, both built from the shared
cache pieces of :mod:`repro.ioutil`:

* the pool — an :class:`~repro.ioutil.LRU` of replay-only
  :class:`~repro.trace.pack.PackedTrace` objects (:data:`DEFAULT_POOL_CAP`
  packs), decoded or published by :func:`store_trace`.  Always on, so a
  serial sweep interprets each (workload, scheme) once even without any
  disk cache.
* :class:`TraceStore` — the ``REPRO_TRACE_CACHE=<dir>`` opt-in
  :class:`~repro.ioutil.DiskStore` of encoded packs under
  ``<root>/<key[:2]>/<key>.rtp``.

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
rejects (a foreign identity or a missing field).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import TracePackError
from repro.ioutil import LRU, DiskStore, code_fingerprint, content_key, sha256_text
from repro.partition.cost import CostParams
from repro.trace.pack import TRACE_FORMAT_VERSION, PackedTrace

#: Environment variable opting into the on-disk trace store.
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"

#: The harness runs a pack's machine-config siblings back to back and
#: the schemes of one program in order, so a pack is wanted again only by
#: its siblings or, for its profile, by the advanced cell two schemes
#: later; a few packs suffice, and each one held costs megabytes.
DEFAULT_POOL_CAP = 4

#: A caller's check of a found pack's ``meta``.
Accept = Callable[[dict], bool]


def trace_payload(
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
) -> dict:
    """Everything a captured trace depends on, as a JSON-able dict.

    The default keyword values mirror
    :func:`repro.experiments.runner.run_benchmark`.
    """
    from repro.workloads import workload_source

    params = cost_params if cost_params is not None else CostParams()
    return {
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


def trace_key(workload: str, scheme: str, scale: int | None = None, **options) -> str:
    """Content hash of one captured trace (machine-independent).

    ``options`` are :func:`trace_payload`'s keywords.
    """
    return content_key(trace_payload(workload, scheme, scale, **options))


#: The process-wide pool of decoded packs, keyed by :func:`trace_key`
#: (one per worker process under the bench pool).
_POOL = LRU(DEFAULT_POOL_CAP)


def trace_pool() -> LRU:
    return _POOL


def clear_trace_pool() -> None:
    """Drop the in-process trace pool (tests, long-lived processes)."""
    _POOL.clear()


class TraceStore(DiskStore):
    """Directory of encoded trace packs."""

    SUFFIX = ".rtp"
    ENV = TRACE_CACHE_ENV

    def get(self, key: str, accept: Accept | None = None) -> PackedTrace | None:
        """The decoded pack, or ``None`` on miss, damage, staleness or
        when ``accept(pack.meta)`` is false."""
        data = self._read(key)
        if data is None:
            return self._miss()
        try:
            pack = PackedTrace.from_bytes(data)
        except TracePackError:
            return self._miss()
        recorded = pack.meta.get("code_version")
        if recorded is not None and recorded != code_fingerprint():
            return self._miss()
        if accept is not None and not accept(pack.meta):
            return self._miss()
        self.hits += 1
        return pack

    def put(self, key: str, pack: PackedTrace) -> None:
        """Publish ``pack`` under ``key``, stamped with the code version."""
        if "code_version" not in pack.meta:
            pack.meta["code_version"] = code_fingerprint()
        self._write(key, pack.to_bytes())


def load_trace(key: str, accept: Accept | None = None) -> PackedTrace | None:
    """Resolve ``key`` through the pool, then the env-configured store.

    ``accept`` vets a found pack's ``meta``; a rejected pack is a miss.
    """
    pack = _POOL.get(key, None if accept is None else lambda p: accept(p.meta))
    if pack is not None:
        return pack
    store = TraceStore.from_env()
    if store is None:
        return None
    pack = store.get(key, accept)
    if pack is not None:
        _POOL.put(key, pack)
    return pack


def store_trace(key: str, pack: PackedTrace) -> None:
    """Publish a freshly captured pack to the (opt-in) store and the pool.

    The pack is left replay-only, as a decoded one is: after the store
    has encoded it, which derives its producer and front-end columns,
    its token columns are dropped (:meth:`PackedTrace.drop_tokens`), so
    the pool holds no more of a pack than replay reads.
    """
    store = TraceStore.from_env()
    if store is not None:
        store.put(key, pack)
    pack.drop_tokens()
    _POOL.put(key, pack)
