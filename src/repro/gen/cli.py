"""``repro fuzz`` — differential partition fuzzing campaigns.

Modes (mutually exclusive):

* campaign (default): generate ``--seeds`` programs, check each against
  the differential oracle, write a crash bundle per failure (optionally
  shrunk first with ``--shrink``), and exit 25 when anything failed.
* ``--replay``: re-run the oracle on crash bundles / ``.mc`` files /
  the committed regression corpus.
* ``--promote``: shrink-and-commit a failing program into the
  regression corpus once the underlying bug is fixed (the promoted file
  must replay green through the *honest* oracle).

``--inject-cost-bug`` audits with deliberately skewed cost parameters —
the partitioner still optimizes with the paper's numbers, but the §6.1
re-pricing disagrees, so the campaign MUST report certify violations.
This is the self-test that proves the oracle has teeth.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.errors import ReproError
from repro.gen.corpus import (
    DEFAULT_CRASH_DIR,
    REGRESSION_DIR,
    iter_regressions,
    load_crash_source,
    write_crash_bundle,
    write_regression,
)
from repro.gen.fuzz import (
    DifferentialOracle,
    fuzz_run,
    make_interesting,
    raise_on_failures,
)
from repro.partition.cost import CostParams

#: Audit params for ``--inject-cost-bug``: the auditor prices copies at
#: 4x the partitioner's o_copy, so partitions the paper's numbers call
#: profitable fail the independent re-pricing.
BUGGY_AUDIT_PARAMS = CostParams(o_copy=12.0, o_dupl=6.0)

#: Shrink limits for ``--shrink``: a few hundred predicate tests within
#: a wall-clock budget.  The predicate oracle also runs with a much
#: smaller interpreter fuel than a campaign — shrink mutations can turn
#: bounded loops into fuel-burners, and one 20M-instruction candidate
#: would eat the whole budget (such candidates are uninteresting by
#: definition: the original failure reproduces in far fewer).
SHRINK_MAX_TESTS = 400
SHRINK_BUDGET = 240.0
SHRINK_FUEL = 2_000_000


def configure_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seeds", type=int, default=50, metavar="N",
                   help="number of generated programs to check (default: 50)")
    p.add_argument("--start", type=int, default=0, metavar="K",
                   help="first builder seed (campaigns are resumable by "
                        "seed range; default: 0)")
    p.add_argument("--budget", type=float, default=None, metavar="SECONDS",
                   help="wall-clock budget; the campaign stops early once "
                        "exceeded (reported as budget-exhausted)")
    p.add_argument("--crash-dir", default=DEFAULT_CRASH_DIR, metavar="DIR",
                   help="where failing programs are bundled "
                        f"(default: {DEFAULT_CRASH_DIR})")
    p.add_argument("--shrink", action="store_true",
                   help="shrink each failing program before bundling it")
    p.add_argument("--inject-cost-bug", action="store_true",
                   help="audit with skewed cost params to demonstrate the "
                        "oracle catches profit-accounting bugs (the campaign "
                        "is EXPECTED to fail with certify violations)")
    p.add_argument("--no-simulate", action="store_true",
                   help="skip the timing simulation (drops the retire and "
                        "profit-bound invariants; roughly halves the cost "
                        "per seed)")
    p.add_argument("--replay", nargs="*", default=None, metavar="PATH",
                   help="replay crash bundles or .mc files through the "
                        "oracle instead of fuzzing; with no PATH, replays "
                        "the committed corpus (--corpus-dir)")
    p.add_argument("--promote", default=None, metavar="PATH",
                   help="shrink PATH (bundle or .mc) under the honest "
                        "oracle's failure kinds recorded in its bundle, "
                        "then commit it into the regression corpus; the "
                        "file must replay green (use after fixing the bug)")
    p.add_argument("--name", default=None, metavar="SLUG",
                   help="corpus file name for --promote (default: derived "
                        "from the bundle seed)")
    p.add_argument("--note", default="", metavar="TEXT",
                   help="one-line provenance note recorded in the promoted "
                        "corpus header")
    p.add_argument("--corpus-dir", default=str(REGRESSION_DIR), metavar="DIR",
                   help="regression corpus directory (default: "
                        "tests/corpus/regressions in the checkout)")


def _make_oracle(args: argparse.Namespace) -> DifferentialOracle:
    audit = BUGGY_AUDIT_PARAMS if args.inject_cost_bug else None
    return DifferentialOracle(
        audit_params=audit, simulate=not args.no_simulate
    )


def _shrink_failure(case, oracle: DifferentialOracle) -> None:
    """Shrink ``case.source`` in place, preserving its violation kinds."""
    from repro.gen.shrink import shrink_source

    kinds = {v.kind for v in case.violations}
    # retire/profit-bound need the timing sim; everything else shrinks
    # faster without it
    need_sim = bool(kinds & {"retire", "profit-bound"})
    predicate_oracle = DifferentialOracle(
        params=oracle.params,
        audit_params=oracle.audit_params,
        config=oracle.config,
        fuel=SHRINK_FUEL,
        simulate=need_sim,
    )
    interesting = make_interesting(predicate_oracle, kinds)
    try:
        result = shrink_source(
            case.source, interesting,
            max_tests=SHRINK_MAX_TESTS, budget=SHRINK_BUDGET,
        )
    except ValueError:
        return  # kind did not reproduce under the cheap oracle; keep as-is
    case.source = result.source
    print(
        f"  shrunk seed {case.seed}: {result.lines} lines "
        f"({result.tests} tests, {result.accepted} accepted)"
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    oracle = _make_oracle(args)
    if args.inject_cost_bug:
        print(
            "fuzz: auditing with skewed cost params "
            f"(o_copy={BUGGY_AUDIT_PARAMS.o_copy}, "
            f"o_dupl={BUGGY_AUDIT_PARAMS.o_dupl}) — violations expected"
        )

    def on_case(case) -> None:
        status = "ok" if case.ok else "FAIL " + ",".join(
            sorted({v.kind for v in case.violations})
        )
        print(f"  seed {case.seed}: {status}", flush=True)

    report = fuzz_run(
        args.seeds, start=args.start, budget=args.budget,
        oracle=oracle, on_case=on_case,
    )
    for case in report.failures:
        if args.shrink:
            _shrink_failure(case, oracle)
        bundle = write_crash_bundle(
            args.crash_dir, case,
            extra_meta={"inject_cost_bug": args.inject_cost_bug},
        )
        print(f"  crash bundle: {bundle}")
    tail = " (budget exhausted)" if report.budget_exhausted else ""
    print(
        f"fuzz: {report.seeds_run} seeds in {report.elapsed:.1f}s, "
        f"{len(report.failures)} failing{tail}"
    )
    raise_on_failures(report)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    oracle = _make_oracle(args)
    paths = [Path(p) for p in args.replay]
    if not paths:
        paths = iter_regressions(args.corpus_dir)
        if not paths:
            raise ReproError(f"no corpus files under {args.corpus_dir}")
    failures = 0
    for path in paths:
        case = oracle.check_source(load_crash_source(path))
        if case.ok:
            print(f"  {path}: ok")
        else:
            failures += 1
            print(f"  {path}: FAIL")
            for violation in case.violations:
                print(f"    {violation}")
    print(f"replay: {len(paths)} programs, {failures} failing")
    return 1 if failures else 0


def _cmd_promote(args: argparse.Namespace) -> int:
    import json

    source = load_crash_source(args.promote)
    bundle = Path(args.promote)
    seed, kinds = None, []
    meta_path = (bundle if bundle.is_dir() else bundle.parent) / "meta.json"
    if meta_path.is_file():
        meta = json.loads(meta_path.read_text())
        seed = meta.get("seed")
        kinds = meta.get("kinds", [])
    oracle = _make_oracle(args)  # honest params: promoted files replay green
    case = oracle.check_source(source)
    if not case.ok:
        raise ReproError(
            "cannot promote: program still fails the honest oracle "
            f"({', '.join(sorted({v.kind for v in case.violations}))}); "
            "fix the bug first, then promote"
        )
    name = args.name or (f"seed-{seed}" if seed is not None else bundle.stem)
    path = write_regression(
        args.corpus_dir, name, source,
        seed=seed, kinds=kinds, note=args.note,
    )
    print(f"promoted: {path} ({len(source.splitlines())} lines)")
    return 0


def run(args: argparse.Namespace) -> int:
    if args.promote is not None:
        return _cmd_promote(args)
    if args.replay is not None:
        return _cmd_replay(args)
    return _cmd_campaign(args)
