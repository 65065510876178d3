"""``repro bench`` — run the experiment matrix, emit BENCH JSON.

Examples::

    repro bench --suite fig8 --jobs 4
    repro bench --suite fig8 --jobs 4 --baseline benchmarks/baseline.json
    repro bench --suite all --jobs 2 --timeout 60
    repro bench --validate BENCH_fig8.json
    repro bench --list

A failing, hung or crashed cell does not abort the sweep: it is
recorded in the document's ``failures`` section and the run exits 4
when the count exceeds ``--max-failures`` (default 0, so CI still fails
loudly).  Rerunning a killed or failed sweep recomputes only what the
on-disk result cache does not already hold.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from repro.errors import EXIT_BENCH_FAILURES, ReproError, exit_code_for


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--suite",
        default="fig8",
        metavar="NAME",
        help="experiment suite to run (see --list; default: fig8)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes; 0 = one per CPU (default: 1, serial)",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help="force one workload scale on every cell (default: per-workload)",
    )
    parser.add_argument(
        "--output",
        "-o",
        default=None,
        metavar="PATH",
        help="BENCH JSON path (default: BENCH_<suite>.json; '-' = stdout only)",
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro-bench-cache",
        metavar="DIR",
        help="on-disk result cache directory (default: .repro-bench-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the on-disk cache",
    )
    parser.add_argument(
        "--trace-cache",
        default=None,
        metavar="DIR",
        help="on-disk packed-trace store: interpret each (workload, "
        "scheme) once and replay the trace for every machine config "
        "(equivalent to REPRO_TRACE_CACHE=DIR; default: env/off)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="recompute every cell even on cache hits (cache is rewritten)",
    )
    parser.add_argument(
        "--timeout",
        type=_positive_seconds,
        default=None,
        metavar="SECS",
        help="hard per-cell wall-clock limit; a cell still running at "
        "the limit is killed and recorded as a timeout (default: none)",
    )
    parser.add_argument(
        "--max-failures",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="tolerate up to N failed cells before exiting non-zero "
        "(default: 0 — any failure fails the run)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="compare against this committed BENCH JSON; exit 1 when any "
        "result field of any baseline cell differs",
    )
    parser.add_argument(
        "--validate",
        default=None,
        metavar="PATH",
        help="only validate an existing BENCH JSON file, then exit",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_suites",
        help="list available suites and their cells, then exit",
    )
    parser.add_argument(
        "--quiet",
        "-q",
        action="store_true",
        help="suppress per-cell progress lines",
    )


def run(args: argparse.Namespace) -> int:
    from repro.bench.cache import ResultCache
    from repro.bench.compare import compare_documents, format_report
    from repro.bench.harness import CellError, run_cells
    from repro.bench.matrix import SUITES, suite_cells
    from repro.bench.results import (
        build_document,
        cell_label,
        load_document,
        save_document,
        validate_document,
    )

    if args.list_suites:
        for name in sorted(SUITES):
            cells = SUITES[name]()
            print(f"{name:8s} {len(cells):3d} cells  "
                  + ", ".join(c.label for c in cells[:4])
                  + (", ..." if len(cells) > 4 else ""))
        from repro.gen import GENERATORS

        print()
        print("generator specs (usable anywhere a workload name is; "
              "see docs/fuzzing.md):")
        for gname in sorted(GENERATORS):
            generator = GENERATORS[gname]
            axes = ", ".join(generator.axes)
            print(f"  gen:{gname:8s} {generator.description}  [axes: {axes}]")
        print("  example: repro bench --suite gen-smoke, or any cell with "
              "workload='gen:mixer?seed=7&ldst=0.3'")
        return 0

    if args.validate is not None:
        doc = load_document(args.validate)
        validate_document(doc)
        print(
            f"{args.validate}: valid {doc['schema']} document, "
            f"suite {doc['suite']!r}, {len(doc['cells'])} cells"
        )
        return 0

    cells = suite_cells(args.suite, scale=args.scale)
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    if args.trace_cache is not None:
        # via the environment so pool workers inherit the setting
        from repro.trace.store import TRACE_CACHE_ENV

        os.environ[TRACE_CACHE_ENV] = args.trace_cache
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    output = args.output
    if output is None:
        output = f"BENCH_{args.suite}.json"

    def progress(outcome) -> None:
        if args.quiet:
            return
        if not outcome.ok:
            error = outcome.error or CellError("Unknown", "unknown", "")
            print(
                f"  [{outcome.status.upper():>8s}] {outcome.cell.label:32s} "
                f"{error.type} at {error.stage}: {error.message}",
                file=sys.stderr,
            )
            return
        tag = outcome.source if outcome.cached else f"{outcome.seconds:6.2f}s"
        print(
            f"  [{tag:>8s}] {outcome.cell.label:32s} "
            f"{outcome.result.cycles:>9d} cycles",
            file=sys.stderr,
        )

    print(
        f"suite {args.suite!r}: {len(cells)} cells, jobs={jobs}, "
        f"cache={'off' if cache is None else args.cache_dir}",
        file=sys.stderr,
    )
    start = time.perf_counter()
    outcomes = run_cells(
        cells,
        jobs=jobs,
        cache=cache,
        force=args.force,
        progress=progress,
        timeout=args.timeout,
    )
    total_seconds = time.perf_counter() - start

    hits = sum(1 for o in outcomes if o.cached)
    doc = build_document(
        args.suite,
        outcomes,
        jobs=jobs,
        total_seconds=total_seconds,
        # replay rate over memo + disk; cache.stats() alone misses memo hits
        cache_stats={
            "dir": None if cache is None else str(cache.root),
            "hits": hits,
            "misses": len(outcomes) - hits,
            "hit_rate": hits / len(outcomes) if outcomes else 0.0,
        },
    )
    validate_document(doc)

    if output == "-":
        import json

        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        save_document(doc, output)

    failures = doc["failures"]
    compute_total = sum(o.compute_seconds for o in outcomes)
    print(
        f"{len(outcomes)} cells in {total_seconds:.1f}s wall "
        f"({compute_total:.1f}s of pipeline work; {hits} replayed from "
        f"cache, hit rate {hits / len(outcomes):.0%}"
        f"{f', {len(failures)} FAILED' if failures else ''})"
        + (f"; wrote {output}" if output != "-" else ""),
        file=sys.stderr,
    )
    for failure in failures:
        error = failure.get("error", {})
        print(
            f"  failure: {cell_label(failure)} [{failure['status']}] "
            f"{error.get('type')} at {error.get('stage')}: "
            f"{error.get('message')}",
            file=sys.stderr,
        )
    if len(failures) > args.max_failures:
        print(
            f"error: {len(failures)} failed cell(s) exceed "
            f"--max-failures {args.max_failures}",
            file=sys.stderr,
        )
        return EXIT_BENCH_FAILURES

    if args.baseline is not None:
        baseline = load_document(args.baseline)
        validate_document(baseline)
        report = compare_documents(doc, baseline)
        print(format_report(report))
        if not report.ok:
            return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.bench.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro bench", description=__doc__.splitlines()[0]
    )
    configure_parser(parser)
    try:
        return run(parser.parse_args(argv))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    raise SystemExit(main())
