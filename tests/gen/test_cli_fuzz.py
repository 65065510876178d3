"""The ``repro fuzz`` command end to end: campaigns, the injected-bug
self-test, bundle writing, replay, and promotion."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.gen.corpus import iter_regressions, write_crash_bundle
from repro.gen.fuzz import FuzzCase, Violation


def _fuzz(*argv: str) -> int:
    return main(["fuzz", *argv])


def test_clean_campaign_exits_zero(tmp_path, capsys):
    code = _fuzz("--seeds", "2", "--no-simulate",
                 "--crash-dir", str(tmp_path / "crashes"))
    assert code == 0
    out = capsys.readouterr().out
    assert "2 seeds" in out and "0 failing" in out
    assert not (tmp_path / "crashes").exists()


def test_injected_cost_bug_fails_with_exit_25(tmp_path, capsys):
    crash_dir = tmp_path / "crashes"
    code = _fuzz("--seeds", "1", "--no-simulate", "--inject-cost-bug",
                 "--crash-dir", str(crash_dir))
    assert code == 25
    bundle = crash_dir / "seed-0"
    assert (bundle / "program.mc").is_file()
    meta = json.loads((bundle / "meta.json").read_text())
    assert "certify" in meta["kinds"]
    assert meta["inject_cost_bug"] is True
    assert "violations expected" in capsys.readouterr().out


def test_budget_zero_checks_nothing(capsys):
    code = _fuzz("--seeds", "50", "--budget", "0", "--no-simulate")
    assert code == 0
    assert "budget exhausted" in capsys.readouterr().out


def test_replay_flags_a_bad_bundle(tmp_path, capsys):
    case = FuzzCase(seed=1, source="int main( {",
                    violations=[Violation("compile", "syntax")])
    bundle = write_crash_bundle(tmp_path, case)
    code = _fuzz("--no-simulate", "--replay", str(bundle))
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_replay_committed_corpus(capsys):
    code = _fuzz("--no-simulate", "--replay")
    assert code == 0
    assert "0 failing" in capsys.readouterr().out


def test_replay_committed_corpus_from_another_directory(tmp_path, monkeypatch, capsys):
    # the default corpus lives in the checkout, not under the working directory
    monkeypatch.chdir(tmp_path)
    code = _fuzz("--no-simulate", "--replay")
    assert code == 0
    out = capsys.readouterr().out
    assert f"{len(iter_regressions())} programs, 0 failing" in out


def test_replay_empty_corpus_dir_is_an_error(tmp_path):
    code = _fuzz("--replay", "--corpus-dir", str(tmp_path / "nothing"))
    assert code != 0


def test_promote_green_program(tmp_path, capsys):
    case = FuzzCase(seed=3, source="int main() { return 6 * 7; }\n",
                    violations=[Violation("certify", "was broken once")])
    bundle = write_crash_bundle(tmp_path / "crashes", case)
    corpus = tmp_path / "corpus"
    code = _fuzz("--no-simulate", "--promote", str(bundle),
                 "--corpus-dir", str(corpus), "--note", "unit test")
    assert code == 0
    promoted = corpus / "seed-3.mc"
    assert promoted.is_file()
    text = promoted.read_text()
    assert "unit test" in text and "certify" in text
    # promoted files replay green by construction
    code = _fuzz("--no-simulate", "--replay", "--corpus-dir", str(corpus))
    assert code == 0


def test_promote_refuses_failing_programs(tmp_path, capsys):
    bad = tmp_path / "bad.mc"
    bad.write_text("int main( {")
    code = _fuzz("--no-simulate", "--promote", str(bad),
                 "--corpus-dir", str(tmp_path / "corpus"))
    assert code != 0
    assert "fix the bug first" in capsys.readouterr().err
    assert not (tmp_path / "corpus").exists()
