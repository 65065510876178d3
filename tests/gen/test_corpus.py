"""Crash bundles, corpus files, and the tier-1 replay of every
committed regression through the honest differential oracle."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.gen.corpus import (
    REGRESSION_DIR,
    iter_regressions,
    load_crash_source,
    replay_regression,
    write_crash_bundle,
    write_regression,
)
from repro.gen.fuzz import DifferentialOracle, FuzzCase, Violation

def _case() -> FuzzCase:
    return FuzzCase(
        seed=42,
        source="int main() { return 7; }\n",
        violations=[Violation("certify", "profit went negative")],
    )


def test_crash_bundle_round_trip(tmp_path):
    bundle = write_crash_bundle(tmp_path, _case(), {"inject_cost_bug": True})
    assert bundle.name == "seed-42"
    assert load_crash_source(bundle) == "int main() { return 7; }\n"
    meta = json.loads((bundle / "meta.json").read_text())
    assert meta["seed"] == 42
    assert meta["kinds"] == ["certify"]
    assert meta["inject_cost_bug"] is True
    assert "profit went negative" in (bundle / "diagnostics.txt").read_text()


def test_load_crash_source_accepts_bare_files(tmp_path):
    f = tmp_path / "prog.mc"
    f.write_text("int main() { return 1; }\n")
    assert load_crash_source(f) == "int main() { return 1; }\n"
    with pytest.raises(ReproError):
        load_crash_source(tmp_path / "missing")


def test_write_regression_headers_do_not_break_replay(tmp_path):
    path = write_regression(
        tmp_path, "sample", "int main() { return 3; }\n",
        seed=9, kinds=["lint"], note="hand-made",
    )
    text = path.read_text()
    assert text.startswith("// repro-fuzz regression")
    assert "builder seed 9" in text
    case = replay_regression(path, DifferentialOracle(simulate=False))
    assert case.ok


def test_iter_regressions_is_sorted(tmp_path):
    for name in ("zz", "aa", "mm"):
        write_regression(tmp_path, name, "int main() { return 0; }\n")
    assert [p.stem for p in iter_regressions(tmp_path)] == ["aa", "mm", "zz"]
    assert iter_regressions(tmp_path / "absent") == []


def test_committed_corpus_is_nonempty():
    # the corpus pins fixed bugs; losing it silently would defeat the
    # point, so its presence is itself an invariant
    assert len(iter_regressions(REGRESSION_DIR)) >= 3


@pytest.mark.parametrize(
    "path", iter_regressions(REGRESSION_DIR), ids=lambda p: p.stem
)
def test_committed_corpus_replays_green(path):
    case = replay_regression(path)
    assert case.ok, [str(v) for v in case.violations]


@pytest.mark.parametrize(
    "path", iter_regressions(REGRESSION_DIR), ids=lambda p: p.stem
)
def test_committed_corpus_is_minimal(path):
    # shrunk regressions must stay small enough to debug by eye
    body = [
        line
        for line in path.read_text().splitlines()
        if line.strip() and not line.startswith("//")
    ]
    assert len(body) <= 25
