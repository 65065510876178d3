"""Crash safety and durability of the append-only history store."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.perf.history import (
    HISTORY_SCHEMA,
    HistoryEntry,
    PerfHistory,
    branch_slug,
    default_history_path,
)
from tests.perf.conftest import make_cell, make_entry, series_entries


def entry(sha: str = "a" * 40) -> HistoryEntry:
    return make_entry([make_cell()], sha=sha)


class TestRoundTrip:
    def test_append_then_load(self, history_path):
        history = PerfHistory(history_path)
        first, second = series_entries([1.0, 1.1])[:2]
        history.append(first)
        history.append(second)
        header, entries = history.load()
        assert header == {"schema": HISTORY_SCHEMA, "branch": "main"}
        assert [e.sha for e in entries] == [first.sha, second.sha]
        assert entries[0].document == first.document
        assert entries[0].host_fingerprint == first.host_fingerprint

    def test_missing_file_is_empty(self, history_path):
        assert PerfHistory(history_path).load() == (None, [])
        assert PerfHistory(history_path).entries() == []

    def test_entries_filters_by_suite(self, history_path):
        history = PerfHistory(history_path)
        history.append(make_entry([make_cell()], sha="a" * 40, suite="fig8"))
        history.append(make_entry([make_cell()], sha="b" * 40, suite="smoke"))
        assert [e.suite for e in history.entries("smoke")] == ["smoke"]
        assert history.suites() == ["fig8", "smoke"]

    def test_foreign_header_rejected(self, history_path):
        history_path.write_text('{"schema": "something-else/1"}\n')
        assert PerfHistory(history_path).load() == (None, [])

    def test_invalid_wrapped_document_skipped(self, history_path):
        history = PerfHistory(history_path)
        good = entry()
        history.append(good)
        bad = good.as_dict()
        bad["document"] = {"schema": "repro-bench/1"}  # fails validation
        with open(history_path, "a") as handle:
            handle.write(json.dumps(bad) + "\n")
        _, entries = history.load()
        assert [e.sha for e in entries] == [good.sha]

    def test_append_revalidates_document(self, history_path):
        good = entry()
        broken = HistoryEntry(
            suite=good.suite, sha=good.sha, branch=good.branch,
            host_fingerprint=good.host_fingerprint, unix=good.unix,
            code_version=good.code_version, document={"schema": "nope"},
        )
        with pytest.raises(ReproError, match="schema"):
            PerfHistory(history_path).append(broken)
        assert not history_path.exists()

    def test_malformed_entry_dict_raises(self):
        with pytest.raises(ReproError, match="malformed history entry"):
            HistoryEntry.from_dict({"suite": "fig8"})


class TestCrashSafety:
    def test_torn_last_line_tolerated(self, history_path):
        history = PerfHistory(history_path)
        kept = series_entries([1.0, 1.01, 1.02])
        for e in kept:
            history.append(e)
        # a crash mid-append leaves a torn, newline-less tail
        with open(history_path, "a") as handle:
            handle.write('{"suite": "fig8", "sha": "deadbeef", "docu')
        _, entries = history.load()
        assert [e.sha for e in entries] == [e.sha for e in kept]

    def test_append_after_torn_tail_repairs_it(self, history_path):
        history = PerfHistory(history_path)
        first, second = series_entries([1.0, 1.1])[:2]
        history.append(first)
        with open(history_path, "a") as handle:
            handle.write('{"torn":')
        history.append(second)
        _, entries = history.load()
        # the torn line is lost (skipped), never merged into the new one
        assert [e.sha for e in entries] == [first.sha, second.sha]

    def test_damaged_middle_line_costs_only_that_entry(self, history_path):
        history = PerfHistory(history_path)
        a, b, c = series_entries([1.0, 1.01, 1.02])
        for e in (a, b, c):
            history.append(e)
        lines = history_path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # corrupt entry b
        history_path.write_text("\n".join(lines) + "\n")
        _, entries = history.load()
        assert [e.sha for e in entries] == [a.sha, c.sha]

    def test_every_append_is_one_complete_line(self, history_path):
        history = PerfHistory(history_path)
        for e in series_entries([1.0, 1.01, 1.02]):
            history.append(e)
            text = history_path.read_text()
            assert text.endswith("\n")
            for line in text.splitlines():
                json.loads(line)  # each durable line parses on its own


class TestPaths:
    def test_branch_slug_sanitizes(self):
        assert branch_slug("feat/perf-gate") == "feat-perf-gate"
        assert branch_slug("weird   name!!") == "weird-name"
        assert branch_slug("///") == "unknown"

    def test_default_history_path_uses_slug(self):
        path = default_history_path("feat/x", root="h")
        assert path.as_posix() == "h/feat-x.jsonl"
