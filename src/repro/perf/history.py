"""Append-only, per-branch performance history (`repro-perf-history/1`).

One history file holds the performance trajectory of one branch: a
JSON-lines file whose first line is a schema header and every further
line is one benchmark run — a validated ``repro-bench/1`` document
wrapped with the identity the degradation detectors key on:

    {"schema": "repro-perf-history/1", "branch": "main"}
    {"suite": "fig8", "sha": "<git sha>", "branch": "main",
     "host_fingerprint": "<sha256>", "unix": 1754400000.0,
     "code_version": "<sha256>", "document": { ...repro-bench/1... }}

Durability: every append is a single ``write`` of one line, flushed
and fsynced, so killing the writer at any instant loses at most the
line being written.  Loading tolerates a torn trailing line (and any
other damaged line — each is skipped, never fatal), and an append onto
a torn tail first terminates the tail with a newline so the damage
cannot swallow the new entry.
The file is only ever appended to: the trajectory is data, history is
never rewritten.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.results import host_fingerprint, validate_document
from repro.errors import ReproError

#: Bump on incompatible history layout changes.
HISTORY_SCHEMA = "repro-perf-history/1"

#: Default directory of per-branch history files (CI caches this).
DEFAULT_HISTORY_DIR = ".perf-history"


def git_sha(default: str = "unknown") -> str:
    """The current commit sha: ``GITHUB_SHA``, then ``git rev-parse``."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return default
    out = proc.stdout.strip()
    return out if proc.returncode == 0 and out else default


def git_branch(default: str = "unknown") -> str:
    """The current branch: ``GITHUB_REF_NAME``, then ``git rev-parse``."""
    branch = os.environ.get("GITHUB_REF_NAME")
    if branch:
        return branch
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--abbrev-ref", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return default
    out = proc.stdout.strip()
    return out if proc.returncode == 0 and out else default


def branch_slug(branch: str) -> str:
    """Filesystem-safe name for a branch (``feat/x`` -> ``feat-x``)."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", branch).strip("-.")
    return slug or "unknown"


def default_history_path(
    branch: str | None = None, root: str | os.PathLike = DEFAULT_HISTORY_DIR
) -> Path:
    """``<root>/<branch-slug>.jsonl`` for the current (or given) branch."""
    return Path(root) / f"{branch_slug(branch or git_branch())}.jsonl"


@dataclass(frozen=True, slots=True)
class HistoryEntry:
    """One recorded benchmark run of one suite."""

    suite: str
    sha: str
    branch: str
    host_fingerprint: str
    unix: float
    code_version: str
    document: dict = field(repr=False)

    @classmethod
    def from_document(
        cls,
        document: dict,
        *,
        sha: str | None = None,
        branch: str | None = None,
    ) -> "HistoryEntry":
        """Wrap a BENCH document, validating it first.

        ``sha``/``branch`` default to the current git state (CI env
        vars, then the local repository).
        """
        validate_document(document)
        host = document.get("host") or {}
        fingerprint = host.get("fingerprint") or host_fingerprint(host)
        return cls(
            suite=str(document["suite"]),
            sha=sha if sha is not None else git_sha(),
            branch=branch if branch is not None else git_branch(),
            host_fingerprint=str(fingerprint),
            unix=float(document.get("created_unix", 0.0)),
            code_version=str(document.get("code_version", "")),
            document=document,
        )

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "sha": self.sha,
            "branch": self.branch,
            "host_fingerprint": self.host_fingerprint,
            "unix": self.unix,
            "code_version": self.code_version,
            "document": self.document,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "HistoryEntry":
        try:
            return cls(
                suite=str(doc["suite"]),
                sha=str(doc["sha"]),
                branch=str(doc["branch"]),
                host_fingerprint=str(doc["host_fingerprint"]),
                unix=float(doc["unix"]),
                code_version=str(doc["code_version"]),
                document=dict(doc["document"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed history entry: {exc}") from None


class PerfHistory:
    """The append-only store over one per-branch history file."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)

    # -- writing -------------------------------------------------------
    def append(self, entry: HistoryEntry) -> None:
        """Durably append one run (crash loses at most this line).

        The entry's document is re-validated on the way in: the history
        only ever holds gateable ``repro-bench/1`` documents.
        """
        validate_document(entry.document)
        line = json.dumps(entry.as_dict(), sort_keys=True) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        is_new = not self.path.exists() or self.path.stat().st_size == 0
        with open(self.path, "a", encoding="utf-8") as handle:
            if is_new:
                handle.write(
                    json.dumps(
                        {"schema": HISTORY_SCHEMA, "branch": entry.branch},
                        sort_keys=True,
                    )
                    + "\n"
                )
            elif not self._ends_with_newline():
                # a previous writer died mid-line: terminate the torn
                # tail so it cannot swallow this entry too
                handle.write("\n")
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def _ends_with_newline(self) -> bool:
        try:
            with open(self.path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) == b"\n"
        except OSError:
            return True

    # -- reading -------------------------------------------------------
    def load(self) -> tuple[dict | None, list[HistoryEntry]]:
        """Parse ``(header, entries)``, tolerating damaged lines.

        A torn trailing line (crash mid-append), a corrupt line, or an
        entry whose wrapped document no longer validates is skipped —
        a damaged history can cost data points, never a crash.  Returns
        ``(None, [])`` for a missing file or a foreign first line.
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return None, []
        header: dict | None = None
        entries: list[HistoryEntry] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write from a crash mid-append
            if not isinstance(doc, dict):
                continue
            if header is None:
                if doc.get("schema") != HISTORY_SCHEMA:
                    return None, []
                header = doc
                continue
            try:
                entry = HistoryEntry.from_dict(doc)
                validate_document(entry.document)
            except ReproError:
                continue
            entries.append(entry)
        return header, entries

    def entries(self, suite: str | None = None) -> list[HistoryEntry]:
        """All recorded runs in append (chronological) order."""
        _, entries = self.load()
        if suite is not None:
            entries = [e for e in entries if e.suite == suite]
        return entries

    def suites(self) -> list[str]:
        """Suite names present in the history, sorted."""
        return sorted({e.suite for e in self.entries()})
