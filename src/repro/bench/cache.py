"""Content-addressed on-disk result cache.

A cache entry is one simulated matrix cell.  Its key is the SHA-256 of
everything the result depends on: the trace payload
(:func:`~repro.trace.store.trace_payload` — the workload's generated
MiniC source, the partition options, the trace format version and a
fingerprint over every ``repro`` source file) plus the cache schema and
the **machine configuration** (every Table 1 parameter, including cache
and predictor geometry).  So a workload edit, a scale change, any code
change or another machine re-runs the cell.

:class:`ResultCache` is a :class:`~repro.ioutil.DiskStore` of JSON
entries under ``<root>/<key[:2]>/<key>.json``: publishing is atomic and
best effort, and a torn, foreign or stale entry is a miss.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from repro.faults import corrupt_point
from repro.ioutil import DiskStore, content_key
from repro.sim.config import config_for_width
from repro.trace.store import trace_payload

#: Bump when the entry layout or key derivation changes incompatibly.
CACHE_SCHEMA = 1

#: Environment variable that opts library entry points (``repro
#: report``, ``cached_run_benchmark``) into disk caching.
CACHE_ENV = "REPRO_BENCH_CACHE"


def cell_key(cell, **options) -> str:
    """Content hash of one matrix cell (see module docstring).

    ``cell`` is a :class:`repro.bench.matrix.Cell`; ``options`` are
    :func:`~repro.trace.store.trace_payload`'s keywords.
    """
    payload = trace_payload(cell.workload, cell.scheme, cell.scale, **options)
    payload["cache_schema"] = CACHE_SCHEMA
    payload["machine"] = asdict(config_for_width(cell.width))
    return content_key(payload)


class ResultCache(DiskStore):
    """Directory of content-addressed cell results."""

    SUFFIX = ".json"
    ENV = CACHE_ENV

    def get(self, key: str) -> dict | None:
        """The stored entry, or ``None`` on miss/corruption.

        A torn or garbage file (e.g. from a crashed writer on a
        filesystem without atomic rename) is treated as a miss, never
        an error — the cell is simply recomputed and rewritten.
        """
        data = self._read(key)
        if data is None:
            return self._miss()
        try:
            entry = json.loads(data.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return self._miss()
        if (
            not isinstance(entry, dict)
            or entry.get("cache_schema") != CACHE_SCHEMA
            or entry.get("key") != key
        ):
            return self._miss()
        self.hits += 1
        # chaos hook: REPRO_FAULTS can hand back a scrambled entry here,
        # proving readers treat cache contents as untrusted input
        return corrupt_point("cache.get", entry, label=key)

    def put(self, key: str, entry: dict) -> None:
        """Publish ``entry`` under ``key``."""
        entry = dict(entry)
        entry["cache_schema"] = CACHE_SCHEMA
        entry["key"] = key
        self._write(key, json.dumps(entry, sort_keys=True).encode("utf-8"))
