"""The compile-once oracle agrees with compiling afresh per scheme.

The oracle compiles and optimizes each source once, gives every scheme a
private copy, and prices basic and advanced with the block profile of the
conventional traced run.  The reference below is the straightforward
pipeline it replaces: every scheme compiles the source itself and makes
its own untraced profile run.  Both must report the same violations, the
same per-scheme results and the same lint diagnostics at every severity.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.gen.fuzz as fuzz
import repro.lint
from repro.errors import ReproError
from repro.gen.build import build_program
from repro.gen.fuzz import DifferentialOracle, Violation
from repro.minic.compile import compile_source
from repro.runtime.interp import run_program

CORPUS = sorted((Path(__file__).parents[1] / "corpus" / "regressions").glob("*.mc"))
SEEDS = (25, 31, 96, 173)


class _FreshCompileOracle(DifferentialOracle):
    """Every scheme compiles the source afresh and profiles for itself."""

    def _run_schemes(self, source, violations):
        runs = {}
        for scheme in self.schemes:
            try:
                program = compile_source(source, optimize=True)
            except ReproError as exc:
                violations.append(Violation("compile", f"{scheme}: {exc}"))
                runs[scheme] = None
                continue
            runs[scheme] = self._run_scheme(program, scheme, None, violations)
        return runs


def _outcome(oracle, source, monkeypatch):
    """Violations, per-scheme results and every lint diagnostic."""
    diagnostics = []
    runs = {}
    lint = repro.lint.lint_program
    run_schemes = oracle._run_schemes

    def recording_lint(*args, **kwargs):
        result = lint(*args, **kwargs)
        diagnostics.append([d.to_dict() for d in result.diagnostics])
        return result

    def recording_run_schemes(source, violations):
        runs.update(run_schemes(source, violations))
        return runs

    with monkeypatch.context() as patch:
        # the shared partition pipeline looks the linter up here
        patch.setattr(repro.lint, "lint_program", recording_lint)
        patch.setattr(oracle, "_run_schemes", recording_run_schemes)
        case = oracle.check_source(source)
    results = {
        scheme: None
        if run is None
        else (run.checksum, run.dynamic, run.cycles, run.retired, run.copies_added)
        for scheme, run in runs.items()
    }
    return [(v.kind, v.detail) for v in case.violations], results, diagnostics


def _sources():
    for seed in SEEDS:
        yield pytest.param(build_program(seed), id=f"seed-{seed}")
    for path in CORPUS:
        yield pytest.param(path.read_text(), id=path.stem)


@pytest.mark.parametrize("source", _sources())
def test_compile_once_matches_fresh_compile_per_scheme(source, monkeypatch):
    once = _outcome(DifferentialOracle(), source, monkeypatch)
    fresh = _outcome(_FreshCompileOracle(), source, monkeypatch)
    assert once == fresh
    # every scheme really ran
    assert list(once[1]) == ["conventional", "basic", "advanced"]
    assert None not in once[1].values()


def test_advanced_only_oracle_matches_fresh_compile(monkeypatch):
    """Without the conventional scheme the oracle profiles for itself."""
    source = build_program(131)
    once = _outcome(DifferentialOracle(schemes=("advanced",)), source, monkeypatch)
    fresh = _outcome(_FreshCompileOracle(schemes=("advanced",)), source, monkeypatch)
    assert once == fresh


@pytest.mark.parametrize("seed", SEEDS)
def test_conventional_traced_profile_equals_profile_run(seed):
    source = build_program(seed)
    untraced = run_program(compile_source(source, optimize=True), fuel=fuzz.FUZZ_FUEL)
    oracle = DifferentialOracle(schemes=("conventional",), simulate=False)
    runs = oracle._run_schemes(source, [])
    assert runs["conventional"].profile.counts == untraced.profile.counts
