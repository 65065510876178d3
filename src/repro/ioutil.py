"""Shared primitives for the on-disk stores.

Every durable artifact this package writes — cached cell results and
packed traces — uses the same publish discipline: write the full
contents to a unique temporary file in the destination directory,
fsync, then :func:`os.replace`.  The rename is atomic on
POSIX, so a reader never observes a torn file and a crashed writer
leaves at worst an ignored ``*.tmp-*`` orphan.  Entries are addressed
by :func:`content_key`, one canonical-JSON hash for every store.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path

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


#: Roots already swept this process — stores are re-opened freely (e.g.
#: ``TraceStore.from_env`` per load), and one sweep per process is enough.
_REAPED_ROOTS: set[str] = set()


def reap_orphan_tmp_files(
    root: str | os.PathLike,
    *,
    max_age: float = DEFAULT_TMP_MAX_AGE,
    now: float | None = None,
    once: bool = True,
) -> int:
    """Delete stale ``*.tmp-*`` orphans under ``root``; returns the count.

    :func:`atomic_write_bytes` removes its temporary file on every
    failure it can observe, but a writer killed outright (SIGKILL, power
    loss, an ``os._exit`` crash fault) leaves the orphan behind.  The
    stores call this on open so repeated runs do not accumulate debris.
    Only files older than ``max_age`` are touched: a younger
    tmp file may belong to a live writer in another process whose
    ``os.replace`` has simply not happened yet.  With ``once`` (the
    default) each root is swept at most once per process, so stores that
    are re-opened per operation stay cheap.  Errors are swallowed —
    reaping is hygiene, never a correctness dependency.
    """
    base = Path(root)
    if once:
        marker = os.fspath(root)
        if marker in _REAPED_ROOTS:
            return 0
        _REAPED_ROOTS.add(marker)
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
