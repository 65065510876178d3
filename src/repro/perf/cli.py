"""``repro perf`` — per-branch wall-time history and degradation report.

Examples::

    repro perf append BENCH_fig8.json            # record a run
    repro perf check                             # report wall-time changes
    repro perf check --gate-wall                 # exit 23 on degradation
    repro perf check --json > perf-verdict.json  # machine-readable verdict
    repro perf check --report perf-report.txt    # human-readable artifact
    repro perf log --suite fig8                  # recorded trajectory

``check`` runs the statistical detectors of :mod:`repro.perf.detect`
over every cell's recorded wall-time (``compute_seconds``) series and
reports each confirmed change with the cell, the magnitude and the
first sha showing the new behaviour.  It exits 23 on a degradation
only with ``--gate-wall``.  Simulated cycles and every other result
field are deterministic; ``repro bench --baseline`` pins them exactly.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

from repro.errors import EXIT_PERF_DEGRADED


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
        "check", help="statistical wall-time degradation check"
    )
    history_arg(p_check)
    p_check.add_argument(
        "--suite", default=None, metavar="NAME",
        help="suite to check (default: every suite in the history)",
    )
    p_check.add_argument(
        "--gate-wall", action="store_true",
        help="exit 23 on a confirmed wall-time degradation "
        "(default: report only)",
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
        help="also print per-run compute seconds of one "
        "workload/scheme/width cell",
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


def _run_check(args: argparse.Namespace) -> int:
    from repro.perf.detect import check_history
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
        report = check_history(entries, suite=suite)
        doc = build_verdict_document(
            report, sha=sha, branch=branch, gate_wall=args.gate_wall
        )
        validate_verdict_document(doc)
        documents.append(doc)
        texts.append(render_text_report(report, sha=sha, branch=branch))
        if args.gate_wall:
            failing.extend(report.degraded())

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
            f"error: confirmed wall-time degradation in "
            f"{len(failing)} cell(s); worst is {worst.cell} "
            f"[{worst.metric}] {worst.delta_pct:+.1f}%{since}",
            file=sys.stderr,
        )
        return EXIT_PERF_DEGRADED
    return 0


def _run_log(args: argparse.Namespace) -> int:
    from repro.bench.results import cell_label

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
            cell = next((c for c in cells if cell_label(c) == args.cell), None)
            if cell is None:
                value = "absent"
            elif cell.get("cached"):
                value = "cached"
            else:
                value = f"{cell.get('compute_seconds', 0.0):.3f}s"
            line += f"  {args.cell}: {value}"
        print(line)
    return 0
