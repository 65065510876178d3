"""``repro perf`` — per-branch performance history and degradation gate.

Examples::

    repro perf append BENCH_fig8.json            # record a run
    repro perf check                             # exit 23 on degradation
    repro perf check --json > perf-verdict.json  # machine-readable verdict
    repro perf check --report perf-report.txt    # human-readable artifact
    repro perf log --suite fig8                  # recorded trajectory
    repro perf refresh-baseline --suite fig8     # accept an improvement

``check`` runs the statistical detectors of :mod:`repro.perf.detect`
over every cell's recorded series.  Cycle counts gate the run: a
confirmed degradation exits with code 23 naming the cell, the
magnitude and the first sha showing the new behaviour.  Wall time is
analyzed and reported but gates only with ``--gate-wall``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

from repro.errors import EXIT_PERF_DEGRADED, ReproError, exit_code_for


def configure_parser(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="perf_command", required=True)

    def history_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--history",
            default=None,
            metavar="PATH",
            help="history JSONL file (default: .perf-history/<branch>.jsonl "
            "for the current branch)",
        )

    p_append = sub.add_parser(
        "append", help="record a BENCH document in the per-branch history"
    )
    p_append.add_argument(
        "document", metavar="BENCH_JSON", help="repro-bench/1 document to record"
    )
    history_arg(p_append)
    p_append.add_argument(
        "--sha", default=None, help="commit sha to record (default: git/CI)"
    )
    p_append.add_argument(
        "--branch", default=None, help="branch to record (default: git/CI)"
    )

    p_check = sub.add_parser(
        "check", help="statistical degradation check (exit 23 on regression)"
    )
    history_arg(p_check)
    p_check.add_argument(
        "--suite", default=None, metavar="NAME",
        help="suite to check (default: every suite in the history)",
    )
    p_check.add_argument(
        "--window", type=int, default=10, metavar="N",
        help="moving-average window in runs (default: 10)",
    )
    p_check.add_argument(
        "--min-runs", type=int, default=5, metavar="N",
        help="minimum recorded runs before a cell is judged (default: 5)",
    )
    p_check.add_argument(
        "--z", type=float, default=4.0, metavar="Z",
        help="confidence multiplier on the estimated noise (default: 4.0)",
    )
    p_check.add_argument(
        "--min-change", type=float, default=0.5, metavar="PCT",
        help="floor on the relative-change threshold, percent (default: 0.5)",
    )
    p_check.add_argument(
        "--max-runs", type=int, default=50, metavar="N",
        help="analyze at most the newest N runs (default: 50)",
    )
    p_check.add_argument(
        "--gate-wall", action="store_true",
        help="also gate (exit 23) on wall-time degradation, not only cycles",
    )
    p_check.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the repro-perf/1 verdict document on stdout",
    )
    p_check.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write a human-readable report to PATH",
    )

    p_log = sub.add_parser("log", help="show the recorded run trajectory")
    history_arg(p_log)
    p_log.add_argument(
        "--suite", default=None, metavar="NAME", help="only this suite"
    )
    p_log.add_argument(
        "--cell", default=None, metavar="LABEL",
        help="also print per-run cycles of one workload/scheme/width cell",
    )

    p_refresh = sub.add_parser(
        "refresh-baseline",
        help="regenerate benchmarks/baseline.json from the history median",
    )
    history_arg(p_refresh)
    p_refresh.add_argument(
        "--suite", default="fig8", metavar="NAME",
        help="suite to rebuild the baseline from (default: fig8)",
    )
    p_refresh.add_argument(
        "--output", default="benchmarks/baseline.json", metavar="PATH",
        help="baseline path to write (default: benchmarks/baseline.json)",
    )
    p_refresh.add_argument(
        "--window", type=int, default=10, metavar="N",
        help="median over the newest N runs (default: 10)",
    )
    p_refresh.add_argument(
        "--allow-regression", action="store_true",
        help="refresh even while the detectors report a degradation "
        "(accepting an intentional performance change)",
    )


def _history(args: argparse.Namespace):
    from repro.perf.history import PerfHistory, default_history_path

    path = args.history if args.history is not None else default_history_path()
    return PerfHistory(path)


def run(args: argparse.Namespace) -> int:
    handlers = {
        "append": _run_append,
        "check": _run_check,
        "log": _run_log,
        "refresh-baseline": _run_refresh,
    }
    return handlers[args.perf_command](args)


def _run_append(args: argparse.Namespace) -> int:
    from repro.bench.results import load_document
    from repro.perf.history import HistoryEntry

    history = _history(args)
    document = load_document(args.document)
    entry = HistoryEntry.from_document(
        document, sha=args.sha, branch=args.branch
    )
    history.append(entry)
    runs = len(history.entries(entry.suite))
    print(
        f"recorded suite {entry.suite!r} at {entry.sha[:12]} "
        f"({len(document.get('cells', []))} cells) -> {history.path} "
        f"[{runs} run(s) on {entry.branch!r}]",
        file=sys.stderr,
    )
    return 0


def _detector_config(args: argparse.Namespace):
    from repro.perf.detect import DetectorConfig

    return DetectorConfig(
        window=max(2, args.window),
        min_runs=max(2, args.min_runs),
        z=max(0.1, args.z),
        min_rel_change=max(0.0, args.min_change / 100.0),
        max_runs=max(2, args.max_runs),
    )


def _run_check(args: argparse.Namespace) -> int:
    from repro.perf.detect import METRIC_CYCLES, METRIC_WALL, check_history
    from repro.perf.history import git_branch, git_sha
    from repro.perf.report import (
        build_verdict_document,
        render_text_report,
        validate_verdict_document,
    )

    history = _history(args)
    entries = history.entries()
    suites = [args.suite] if args.suite else sorted({e.suite for e in entries})
    sha, branch = git_sha(), git_branch()
    config = _detector_config(args)
    gated = (METRIC_CYCLES, METRIC_WALL) if args.gate_wall else (METRIC_CYCLES,)

    if not suites:
        print(
            f"perf check: no history at {history.path}; nothing to check",
            file=sys.stderr,
        )
        if args.as_json:
            print(json.dumps([], indent=2))
        return 0

    documents, texts, failing = [], [], []
    for suite in suites:
        report = check_history(entries, suite=suite, config=config)
        doc = build_verdict_document(
            report,
            sha=sha,
            branch=branch,
            gated_metrics=gated,
            config={
                "window": config.window,
                "min_runs": config.min_runs,
                "z": config.z,
                "min_rel_change": config.min_rel_change,
                "max_runs": config.max_runs,
            },
        )
        validate_verdict_document(doc)
        documents.append(doc)
        texts.append(render_text_report(report, sha=sha, branch=branch))
        failing.extend(
            v for v in report.degraded() if v.metric in gated
        )

    text = "\n".join(texts)
    if args.report:
        Path(args.report).write_text(text)
    if args.as_json:
        payload = documents[0] if len(documents) == 1 else documents
        print(json.dumps(payload, indent=2, sort_keys=True))
        print(text, file=sys.stderr, end="")
    else:
        print(text, end="")

    if failing:
        worst = max(failing, key=lambda v: abs(v.delta_pct or 0.0))
        since = f" since {worst.change_sha[:12]}" if worst.change_sha else ""
        print(
            f"error: confirmed performance degradation in "
            f"{len(failing)} cell(s); worst is {worst.cell} "
            f"[{worst.metric}] {worst.delta_pct:+.1f}%{since}",
            file=sys.stderr,
        )
        return EXIT_PERF_DEGRADED
    return 0


def _run_log(args: argparse.Namespace) -> int:
    from repro.perf.detect import cell_label

    history = _history(args)
    entries = history.entries(args.suite)
    if not entries:
        print(f"no recorded runs at {history.path}", file=sys.stderr)
        return 0
    for index, entry in enumerate(entries):
        when = datetime.datetime.fromtimestamp(
            entry.unix, tz=datetime.timezone.utc
        ).strftime("%Y-%m-%d %H:%M")
        cells = entry.document.get("cells", [])
        failures = entry.document.get("failures", [])
        line = (
            f"{index + 1:3d}  {entry.sha[:12]:12s}  {entry.suite:8s} "
            f"{when}  {len(cells):3d} cells"
        )
        if failures:
            line += f"  {len(failures)} FAILED"
        if args.cell:
            value = next(
                (
                    c.get("result", {}).get("cycles")
                    for c in cells
                    if cell_label(c) == args.cell
                ),
                None,
            )
            line += (
                f"  {args.cell}: "
                + (f"{value} cycles" if value is not None else "absent")
            )
        print(line)
    return 0


def _run_refresh(args: argparse.Namespace) -> int:
    from repro.bench.results import save_document, validate_document
    from repro.perf.detect import METRIC_CYCLES, cell_label, check_history

    history = _history(args)
    entries = history.entries(args.suite)
    if not entries:
        raise ReproError(
            f"no recorded runs for suite {args.suite!r} at {history.path}"
        )

    report = check_history(entries, suite=args.suite)
    degraded = report.degraded(METRIC_CYCLES)
    if degraded and not args.allow_regression:
        for v in degraded:
            print(
                f"  DEGRADED {v.cell}: {v.reason}",
                file=sys.stderr,
            )
        print(
            "error: history shows a confirmed cycle degradation; "
            "re-run with --allow-regression to accept it into the baseline",
            file=sys.stderr,
        )
        return EXIT_PERF_DEGRADED

    # Per cell, take the run achieving the (lower) median cycle count of
    # the newest --window runs, so one outlier run cannot become the
    # committed reference.
    window = entries[-max(2, args.window):]
    per_cell: dict[str, list[tuple[float, dict]]] = {}
    for entry in window:
        for cell in entry.document.get("cells", []):
            cycles = cell.get("result", {}).get("cycles")
            if isinstance(cycles, (int, float)) and cycles > 0:
                per_cell.setdefault(cell_label(cell), []).append(
                    (float(cycles), cell)
                )
    latest = entries[-1].document
    chosen = []
    for label in sorted(
        cell_label(c) for c in latest.get("cells", [])
    ):
        samples = sorted(per_cell.get(label, []), key=lambda s: s[0])
        if not samples:
            continue
        chosen.append(samples[(len(samples) - 1) // 2][1])
    if not chosen:
        raise ReproError(
            f"history holds no clean cells for suite {args.suite!r}"
        )

    # ``breakers`` is a run-report block older documents carry; it says
    # nothing about the chosen cells, so it is not copied either
    baseline = {
        key: value
        for key, value in latest.items()
        if key not in ("cells", "failures", "breakers")
    }
    baseline["cells"] = chosen
    baseline["failures"] = []
    validate_document(baseline)
    save_document(baseline, args.output)
    print(
        f"wrote {args.output}: {len(chosen)} cells, per-cell median of the "
        f"newest {len(window)} run(s) of suite {args.suite!r}"
        + (" (regression accepted)" if degraded else ""),
        file=sys.stderr,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.perf.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro perf", description=__doc__.splitlines()[0]
    )
    configure_parser(parser)
    try:
        return run(parser.parse_args(argv))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    raise SystemExit(main())
