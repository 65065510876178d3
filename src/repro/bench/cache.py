"""Content-addressed on-disk result cache.

A cache entry is one simulated matrix cell.  Its key is the SHA-256 of
everything the result depends on:

* the workload's **generated MiniC source** (so a workload edit or a
  scale change re-runs the cell),
* the **partition options** (scheme, cost parameters, profile use,
  balance limit, interprocedural flag, register allocation),
* the **machine configuration** (every Table 1 parameter, including
  cache and predictor geometry),
* the **code version** — a fingerprint over every ``repro`` source
  file, so any change to the compiler, partitioner or simulator
  invalidates the whole cache.

Entries are JSON files under ``<root>/<key[:2]>/<key>.json``.  Writes
go to a unique temporary file in the same directory followed by
:func:`os.replace`, which is atomic on POSIX: concurrent workers may
race to publish the same key (last rename wins, contents are identical
because keys are content-addressed) and an interrupted run leaves at
worst an ignored ``*.tmp-*`` file, never a truncated entry.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path

from repro.faults import corrupt_point
from repro.ioutil import atomic_write_bytes, content_key, reap_orphan_tmp_files
from repro.partition.cost import CostParams
from repro.sim.config import MachineConfig, eight_way, four_way
from repro.trace.pack import TRACE_FORMAT_VERSION

#: Bump when the entry layout or key derivation changes incompatibly.
CACHE_SCHEMA = 1

#: Environment variable that opts library entry points (``repro
#: report``, ``cached_run_benchmark``) into disk caching.
CACHE_ENV = "REPRO_BENCH_CACHE"


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


def config_fingerprint(config: MachineConfig) -> dict:
    """Every machine parameter as a plain JSON-able dict."""
    return asdict(config)


def _config_for_width(width: int) -> MachineConfig:
    return four_way() if width == 4 else eight_way()


def cell_key(
    cell,
    *,
    cost_params: CostParams | None = None,
    use_profile: bool = True,
    regalloc: bool = True,
    balance_limit: float | None = None,
    interprocedural: bool = False,
    code_version: str | None = None,
) -> str:
    """Content hash of one matrix cell (see module docstring).

    ``cell`` is a :class:`repro.bench.matrix.Cell`.  The default keyword
    values mirror :func:`repro.experiments.runner.run_benchmark`.
    """
    from repro.workloads import workload_source

    params = cost_params if cost_params is not None else CostParams()
    payload = {
        "cache_schema": CACHE_SCHEMA,
        # results are computed from packed traces, so an incompatible
        # pack-format bump must also invalidate cached cell results
        "trace_format": TRACE_FORMAT_VERSION,
        "workload": cell.workload,
        "scale": cell.scale,
        "source_sha256": sha256_text(workload_source(cell.workload, cell.scale)),
        "scheme": cell.scheme,
        "partition_options": {
            "cost_params": params.as_dict(),
            "use_profile": use_profile,
            "regalloc": regalloc,
            "balance_limit": balance_limit,
            "interprocedural": interprocedural,
        },
        "machine": config_fingerprint(_config_for_width(cell.width)),
        "code_version": code_version
        if code_version is not None
        else code_fingerprint(),
    }
    return content_key(payload)


class ResultCache:
    """Directory of content-addressed cell results with atomic writes.

    Opening a cache reaps stale ``*.tmp-*`` orphans left by writers that
    were killed mid-publish.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        reap_orphan_tmp_files(self.root)

    @classmethod
    def from_env(cls, env: str = CACHE_ENV) -> "ResultCache | None":
        """Cache at ``$REPRO_BENCH_CACHE``, or ``None`` when unset/empty."""
        value = os.environ.get(env, "").strip()
        if not value or value == "0":
            return None
        return cls(value)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The stored entry, or ``None`` on miss/corruption.

        A torn or garbage file (e.g. from a crashed writer on a
        filesystem without atomic rename) is treated as a miss, never
        an error — the cell is simply recomputed and rewritten.
        """
        path = self.path_for(key)
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.misses += 1
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("cache_schema") != CACHE_SCHEMA
            or entry.get("key") != key
        ):
            self.misses += 1
            return None
        self.hits += 1
        # chaos hook: REPRO_FAULTS can hand back a scrambled entry here,
        # proving readers treat cache contents as untrusted input
        return corrupt_point("cache.get", entry, label=key)

    def put(self, key: str, entry: dict) -> None:
        """Atomically publish ``entry`` under ``key``."""
        entry = dict(entry)
        entry["cache_schema"] = CACHE_SCHEMA
        entry["key"] = key
        data = json.dumps(entry, sort_keys=True).encode("utf-8")
        atomic_write_bytes(self.path_for(key), data)

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "dir": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
        }

