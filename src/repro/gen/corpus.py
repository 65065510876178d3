"""Crash bundles and the replayable regression corpus.

Two artifact kinds fall out of a fuzzing campaign:

* **crash bundles** — one directory per failing seed (``program.mc``,
  ``meta.json``, ``diagnostics.txt``), self-contained enough to
  reproduce the failure on another machine: CI uploads them as build
  artifacts, and ``repro fuzz --replay <bundle-or-.mc>`` re-runs the
  oracle on one.

* **regression corpus** — shrunk programs committed under
  ``tests/corpus/regressions/`` *after the underlying bug is fixed*.
  Tier-1 pytest replays every corpus file through the honest
  differential oracle and expects zero violations, pinning each fixed
  bug forever.  Files carry a comment header recording where they came
  from (see :func:`write_regression`).

Promotion flow (also in ``docs/fuzzing.md``): fuzz finds a failure →
shrink it → fix the bug → ``repro fuzz --promote`` the shrunk program →
commit the new file under ``tests/corpus/regressions/``.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.errors import ReproError
from repro.gen.fuzz import DifferentialOracle, FuzzCase

#: Default crash-bundle directory (CI uploads it on failure).
DEFAULT_CRASH_DIR = "repro-fuzz-crashes"

#: The committed regression corpus, in the checkout this module runs
#: from (so ``repro fuzz --replay`` finds it from any working directory).
REGRESSION_DIR = (
    Path(__file__).resolve().parents[3] / "tests" / "corpus" / "regressions"
)


def write_crash_bundle(
    crash_dir: str | Path, case: FuzzCase, extra_meta: dict | None = None
) -> Path:
    """Write one failing case as a self-contained bundle directory."""
    bundle = Path(crash_dir) / f"seed-{case.seed}"
    bundle.mkdir(parents=True, exist_ok=True)
    (bundle / "program.mc").write_text(case.source)
    meta = {
        "seed": case.seed,
        "kinds": sorted({v.kind for v in case.violations}),
        "violations": [asdict(v) for v in case.violations],
    }
    if extra_meta:
        meta.update(extra_meta)
    (bundle / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    lines = [f"[{v.kind}] {v.detail}" for v in case.violations]
    (bundle / "diagnostics.txt").write_text("\n".join(lines) + "\n")
    return bundle


def load_crash_source(path: str | Path) -> str:
    """MiniC source from a crash bundle directory or a bare ``.mc`` file."""
    p = Path(path)
    if p.is_dir():
        p = p / "program.mc"
    if not p.is_file():
        raise ReproError(f"no crash program at {p}")
    return p.read_text()


def write_regression(
    directory: str | Path,
    name: str,
    source: str,
    *,
    seed: int | None = None,
    kinds: list[str] | None = None,
    note: str = "",
) -> Path:
    """Write a shrunk program into the regression corpus.

    The header comments are documentation only — the replay harness
    runs the program itself; it never parses the header.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if not name.endswith(".mc"):
        name += ".mc"
    header = ["// repro-fuzz regression"]
    if seed is not None:
        header.append(f"// found by: repro fuzz (builder seed {seed})")
    if kinds:
        header.append(f"// original violation kinds: {', '.join(sorted(kinds))}")
    if note:
        header.append(f"// note: {note}")
    path = directory / name
    path.write_text("\n".join(header) + "\n" + source)
    return path


def iter_regressions(directory: str | Path = REGRESSION_DIR) -> list[Path]:
    """All committed regression programs, deterministically ordered."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("*.mc"))


def replay_regression(
    path: str | Path, oracle: DifferentialOracle | None = None
) -> FuzzCase:
    """Run one corpus file through the (honest) differential oracle.

    Returns the :class:`FuzzCase`; a green replay has ``case.ok``.
    """
    oracle = oracle or DifferentialOracle()
    return oracle.check_source(Path(path).read_text())


__all__ = [
    "DEFAULT_CRASH_DIR",
    "REGRESSION_DIR",
    "iter_regressions",
    "load_crash_source",
    "replay_regression",
    "write_crash_bundle",
    "write_regression",
]
