"""Command-line interface.

Usage::

    python -m repro compile prog.mc            # print optimized IR
    python -m repro run prog.mc                # execute, print the result
    python -m repro partition prog.mc          # annotated partition + stats
    python -m repro lint prog.mc               # static checks on partitioned IR
    python -m repro analyze prog.mc            # abstract-interpretation warnings
    python -m repro analyze --compare-profile  # static vs measured profiles
    python -m repro simulate prog.mc           # conventional vs partitioned
    python -m repro report [fig8 fig9 ...]     # regenerate paper artifacts
    python -m repro bench --suite fig8 -j 4    # benchmark matrix -> BENCH JSON
    python -m repro perf append BENCH_fig8.json  # record run in perf history
    python -m repro perf check                 # statistical degradation gate
    python -m repro fuzz --seeds 200           # differential partition fuzzing
    python -m repro fuzz --replay              # replay the regression corpus

``prog.mc`` is a MiniC source file (see ``examples/`` and the README for
the language).  ``-`` reads from stdin, and ``workload:<name>`` uses the
generated source of a registered benchmark workload (e.g.
``workload:compress``) so CI can lint exactly what the harness runs.
Generator specs (``gen:mixer?seed=7&ldst=0.3`` — see ``docs/fuzzing.md``)
are accepted anywhere a workload name is.

Exit codes are documented per error class — 0 success, 1 generic
failure, 2 usage, 3 unreadable input file, 4 the bench failure gate,
10-25 the :mod:`repro.errors` hierarchy, including 23 for a confirmed
performance degradation from ``perf check`` and 25 for a differential
fuzzing violation (see ``docs/robustness.md``).
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import EXIT_IO, ReproError, exit_code_for


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    if path.startswith("workload:") or path.startswith("gen:"):
        from repro.workloads import workload_source

        if path.startswith("workload:"):
            path = path[len("workload:"):]
        return workload_source(path)
    with open(path) as handle:
        return handle.read()


def _compile(args: argparse.Namespace):
    from repro.minic.compile import compile_source

    return compile_source(_read_source(args.file), optimize=not args.no_opt)


def _profile_for(program, mode: str):
    """Resolve a ``--profile`` choice to an ExecutionProfile (or None for
    the paper's probabilistic estimate)."""
    if mode == "measured":
        from repro.runtime.interp import run_program

        return run_program(program).profile
    if mode == "static":
        from repro.analysis.freq import static_profile

        return static_profile(program)
    return None  # "estimate": p_B * 5^d fallback inside the cost model


def cmd_compile(args: argparse.Namespace) -> int:
    from repro.analysis.warnings import AnalysisWarning
    from repro.ir.printer import print_program
    from repro.minic.compile import compile_source

    warnings: list[AnalysisWarning] = []
    program = compile_source(
        _read_source(args.file), optimize=not args.no_opt, warnings=warnings
    )
    for warning in warnings:
        print(warning.render(), file=sys.stderr)
    print(print_program(program), end="")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.runtime.interp import run_program

    result = run_program(_compile(args), fuel=args.fuel)
    print(f"result: {result.value}")
    print(f"dynamic instructions: {result.instructions}")
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    from repro.partition.advanced import advanced_partition
    from repro.partition.basic import basic_partition
    from repro.partition.interproc import decide_fp_arguments
    from repro.partition.partition import partition_stats
    from repro.partition.report import annotate_partition, offload_by_opcode

    program = _compile(args)
    profile = _profile_for(program, args.profile) if args.scheme == "advanced" else None
    partitions = {}
    for name, func in program.functions.items():
        if args.scheme == "basic":
            partitions[name] = basic_partition(func)
        else:
            partitions[name] = advanced_partition(
                func, profile=profile, balance_limit=args.balance_limit
            )
    if args.interprocedural:
        decisions = decide_fp_arguments(program, partitions)
        for callee, indices in sorted(decisions.fp_params.items()):
            print(
                f"interprocedural: {callee} receives parameter(s) "
                f"{sorted(indices)} in FP registers"
            )
        if not decisions.fp_params:
            print("interprocedural: no safe FP-argument opportunities found")
        print()
    for func in program.functions.values():
        partition = partitions[func.name]
        print(annotate_partition(func, partition))
        stats = partition_stats(partition)
        print(
            f"  -> {stats['offloaded_instructions']} offloaded, "
            f"{stats['copies']} copies, {stats['dups']} duplicates, "
            f"{stats['back_copies']} back-copies"
        )
        usage = offload_by_opcode(partition)
        if usage:
            ops = ", ".join(f"{op}x{n}" for op, n in sorted(usage.items()))
            print(f"  -> opcodes: {ops}")
        print()
    if args.verify:
        from repro.ir.verify import verify_program
        from repro.lint import lint_program, partition_rule_ids, render_text
        from repro.partition.rewrite import apply_partition

        result = lint_program(
            program,
            partitions=partitions,
            profile=profile,
            scheme=args.scheme,
            rules=partition_rule_ids(),
        )
        for name, func in program.functions.items():
            kwargs = {}
            if args.interprocedural:
                kwargs = dict(
                    fp_params=decisions.fp_params.get(name),
                    fp_call_args=decisions.fp_call_args.get(name),
                    skip_back_copies=decisions.dropped_back_copies.get(name),
                    skip_param_copies=decisions.dropped_param_copies.get(name),
                )
            apply_partition(func, partitions[name], **kwargs)
        verify_program(program)
        result.extend(lint_program(program, scheme=args.scheme))
        result.finalize()
        if result.diagnostics:
            print(render_text(result))
        else:
            print("verify: structural checks and all lint rules clean")
        return 0 if result.ok else 1
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        Severity,
        lint_program,
        partition_rule_ids,
        render_json,
        render_text,
    )

    program = _compile(args)
    rules = [r for r in args.rules.split(",") if r.strip()] if args.rules else None
    fail_on = Severity.from_name(args.fail_on)
    if args.scheme == "none":
        result = lint_program(program, rules=rules)
    else:
        from repro.ir.verify import verify_program
        from repro.partition.advanced import advanced_partition
        from repro.partition.basic import basic_partition
        from repro.partition.rewrite import apply_partition

        profile = _profile_for(program, args.profile) if args.scheme == "advanced" else None
        partitions = {}
        for name, func in program.functions.items():
            if args.scheme == "basic":
                partitions[name] = basic_partition(func)
            else:
                partitions[name] = advanced_partition(func, profile=profile)
        partition_only = partition_rule_ids()
        pre_rules = (
            [r for r in rules if r in partition_only]
            if rules is not None
            else partition_only
        )
        result = lint_program(
            program,
            partitions=partitions,
            profile=profile,
            scheme=args.scheme,
            rules=pre_rules,
        )
        for name, func in program.functions.items():
            apply_partition(func, partitions[name])
        verify_program(program)
        post_rules = (
            [r for r in rules if r not in partition_only]
            if rules is not None
            else None
        )
        result.extend(
            lint_program(program, scheme=args.scheme, rules=post_rules)
        )
        result.finalize()
    print(render_json(result) if args.json else render_text(result))
    return 1 if result.failed(fail_on) else 0


def cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.freq import static_profile
    from repro.analysis.profilecmp import compare_profiles
    from repro.analysis.warnings import analyze_program
    from repro.lint import Severity
    from repro.minic.compile import compile_source

    fail_on = Severity.from_name(args.fail_on)
    if args.file is not None:
        targets = [(args.file, _read_source(args.file))]
    else:
        from repro.workloads import WORKLOADS, workload_source

        targets = [
            (f"workload:{name}", workload_source(name, scale=args.scale))
            for name in sorted(WORKLOADS)
        ]

    documents = []
    total_warnings = 0
    for label, source in targets:
        program = compile_source(source, optimize=not args.no_opt)
        warnings = analyze_program(program)
        total_warnings += len(warnings)
        entry: dict = {
            "source": label,
            "warnings": [w.to_dict() for w in warnings],
        }
        if args.compare_profile:
            from repro.partition.advanced import advanced_partition
            from repro.partition.partition import partition_stats
            from repro.runtime.interp import run_program

            static = static_profile(program)
            measured = run_program(program).profile
            agreement = compare_profiles(program, static, measured)
            offload_static = offload_measured = 0
            intersection = union = 0
            for func in program.functions.values():
                part_s = advanced_partition(func, profile=static)
                part_m = advanced_partition(func, profile=measured)
                offload_static += partition_stats(part_s)["offloaded_instructions"]
                offload_measured += partition_stats(part_m)["offloaded_instructions"]
                intersection += len(part_s.fp & part_m.fp)
                union += len(part_s.fp | part_m.fp)
            entry["agreement"] = agreement.to_dict()
            entry["partition_impact"] = {
                "offloaded_static": offload_static,
                "offloaded_measured": offload_measured,
                "decision_agreement": round(
                    intersection / union if union else 1.0, 6
                ),
            }
        documents.append(entry)

    if args.json:
        print(
            json.dumps(
                {
                    "version": "repro-analyze/1",
                    "fail_on": str(fail_on),
                    "programs": documents,
                    "summary": {"warnings": total_warnings},
                },
                indent=2,
                sort_keys=False,
            )
        )
    else:
        for entry in documents:
            if len(documents) > 1:
                print(f"== {entry['source']} ==")
            if entry["warnings"]:
                for w in entry["warnings"]:
                    print(
                        f"warning: {w['kind']}: {w['function']}:{w['block']}: "
                        f"{w['message']}"
                    )
            else:
                print("no analysis warnings")
            if "agreement" in entry:
                agr = entry["agreement"]
                impact = entry["partition_impact"]
                matches = sum(1 for f in agr["functions"] if f["hottest_match"])
                print(
                    f"agreement: weighted overlap {agr['weighted_overlap']:.3f}, "
                    f"hottest block match {matches}/{len(agr['functions'])}, "
                    f"uncovered {len(agr['uncovered'])}"
                )
                print(
                    f"partitions: static profile offloads "
                    f"{impact['offloaded_static']} instr vs "
                    f"{impact['offloaded_measured']} measured; "
                    f"decision agreement "
                    f"{100 * impact['decision_agreement']:.1f}%"
                )
            if len(documents) > 1:
                print()
    return 1 if total_warnings and fail_on <= Severity.WARNING else 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.partition.program import partition_program
    from repro.regalloc.linear_scan import allocate_program
    from repro.runtime.interp import run_program
    from repro.runtime.trace import dynamic_mix
    from repro.sim.config import eight_way, four_way
    from repro.sim.pipeline import simulate_trace

    config = four_way() if args.width == 4 else eight_way()
    source = _read_source(args.file)

    def build(scheme: str | None):
        from repro.minic.compile import compile_source

        program = compile_source(source, optimize=not args.no_opt)
        if scheme is not None:
            profile = _profile_for(program, args.profile)
            # with --verify, partition_program also runs the linter on the
            # partitions and the rewritten IR, raising on any error.
            partition_program(
                program, scheme, profile=profile,
                lint=True if args.verify else None,
            )
        allocate_program(program)
        return program

    baseline_run = run_program(build(None), collect_trace=True, fuel=args.fuel)
    baseline = simulate_trace(baseline_run.trace, config)
    print(f"machine: {config.name}")
    print(
        f"conventional : {baseline.cycles:>9d} cycles, IPC {baseline.ipc:.2f}, "
        f"result {baseline_run.value}"
    )
    for scheme in ("basic", "advanced"):
        run = run_program(build(scheme), collect_trace=True, fuel=args.fuel)
        if run.value != baseline_run.value:
            raise ReproError(f"{scheme}: result changed ({run.value})")
        stats = simulate_trace(run.trace, config)
        offload = dynamic_mix(run.trace)["fp_executed"] / run.instructions
        print(
            f"{scheme:13s}: {stats.cycles:>9d} cycles, IPC {stats.ipc:.2f}, "
            f"offload {100 * offload:.1f}%, "
            f"speedup {100 * (baseline.cycles / stats.cycles - 1):+.1f}%"
        )
        if args.timeline and scheme == "advanced":
            from repro.sim.timeline import render_timeline, simulate_with_timeline

            _, timeline = simulate_with_timeline(run.trace, config)
            print("\npipeline timeline (advanced, first instructions):")
            print(render_timeline(timeline, max_instructions=args.timeline))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import main as report_main

    return report_main(args.experiments, jobs=args.jobs)


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.cli import run as bench_run

    return bench_run(args)


def cmd_perf(args: argparse.Namespace) -> int:
    from repro.perf.cli import run as perf_run

    return perf_run(args)


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.gen.cli import run as fuzz_run

    return fuzz_run(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Exploiting Idle Floating-Point "
        "Resources for Integer Execution' (PLDI 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("file", help="MiniC source file, - for stdin, or "
                                    "workload:<name> for a registered workload")
        p.add_argument("--no-opt", action="store_true", help="skip optimizations")

    p = sub.add_parser("compile", help="compile MiniC and print the IR")
    add_source(p)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("run", help="compile and execute")
    add_source(p)
    p.add_argument("--fuel", type=int, default=50_000_000)
    p.set_defaults(fn=cmd_run)

    def add_profile(p):
        p.add_argument(
            "--profile", choices=("measured", "static", "estimate"),
            default="measured",
            help="profile source for the advanced cost model: execute the "
                 "program (measured), Ball/Wu-Larus static estimation "
                 "(static), or the paper's p_B*5^d fallback (estimate)")

    p = sub.add_parser("partition", help="show the partition, annotated")
    add_source(p)
    p.add_argument("--scheme", choices=("basic", "advanced"), default="advanced")
    add_profile(p)
    p.add_argument("--balance-limit", type=float, default=None,
                   help="optional FPa share cap (the §6.6 extension)")
    p.add_argument("--interprocedural", action="store_true",
                   help="pass integer arguments in FP registers where safe "
                        "(the §6.6 extension)")
    p.add_argument("--verify", action="store_true",
                   help="rewrite the partitioned program, run the structural "
                        "verifier plus all lint rules, and exit non-zero on "
                        "errors")
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("lint", help="static checks on partitioned IR")
    add_source(p)
    p.add_argument("--scheme", choices=("basic", "advanced", "none"),
                   default="advanced",
                   help="partition + rewrite with this scheme before linting; "
                        "'none' lints the compiled IR as-is")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON diagnostics")
    p.add_argument("--fail-on", choices=("note", "warning", "error"),
                   default="error",
                   help="lowest severity that makes the exit status non-zero")
    p.add_argument("--rules", default=None, metavar="ID,ID",
                   help="comma-separated rule ids to run (default: all)")
    add_profile(p)
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "analyze",
        help="abstract-interpretation warnings and static-profile agreement",
    )
    p.add_argument("file", nargs="?", default=None,
                   help="MiniC source file, - for stdin, or workload:<name>; "
                        "omit to analyze every registered workload")
    p.add_argument("--no-opt", action="store_true", help="skip optimizations")
    p.add_argument("--scale", type=int, default=3,
                   help="workload scale when FILE is omitted (default: 3)")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable repro-analyze/1 document")
    p.add_argument("--fail-on", choices=("note", "warning", "error"),
                   default="error",
                   help="lowest severity that makes the exit status non-zero "
                        "(analysis findings are warnings; the default "
                        "'error' never fails)")
    p.add_argument("--compare-profile", action="store_true",
                   help="also compare the static profile against a measured "
                        "run and report partition impact")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("simulate", help="conventional vs partitioned timing")
    add_source(p)
    p.add_argument("--width", type=int, choices=(4, 8), default=4)
    add_profile(p)
    p.add_argument("--fuel", type=int, default=50_000_000)
    p.add_argument("--timeline", type=int, default=0, metavar="N",
                   help="print an N-instruction pipeline diagram of the "
                        "advanced-scheme run")
    p.add_argument("--verify", action="store_true",
                   help="run the structural verifier plus all lint rules on "
                        "each partitioned build, exiting non-zero on errors")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("report", help="regenerate the paper's tables/figures")
    p.add_argument("experiments", nargs="*", default=[])
    p.add_argument("--jobs", "-j", type=int, default=1,
                   help="worker processes for pipeline cells; 0 = one per "
                        "CPU (default: 1)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "bench",
        help="run the benchmark matrix in parallel, emit BENCH_<suite>.json",
    )
    from repro.bench.cli import configure_parser as configure_bench_parser

    configure_bench_parser(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "perf",
        help="per-branch performance history and degradation detection",
    )
    from repro.perf.cli import configure_parser as configure_perf_parser

    configure_perf_parser(p)
    p.set_defaults(fn=cmd_perf)

    p = sub.add_parser(
        "fuzz",
        help="differential partition fuzzing: random MiniC vs the §6.1 "
        "contract, with crash bundles and a replayable corpus",
    )
    from repro.gen.cli import configure_parser as configure_fuzz_parser

    configure_fuzz_parser(p)
    p.set_defaults(fn=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except OSError as exc:
        # covers FileNotFoundError, IsADirectoryError, PermissionError
        # on the input path — a clean message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
