"""Baseline comparison — the CI numbers gate.

Compares a freshly produced BENCH document against a committed baseline
(``benchmarks/baseline.json``).  Cells are matched on
(workload, scheme, width, scale), and each matched cell's whole
``result`` block must equal the baseline's exactly: checksum, cycles,
instruction counts, IPC, offload fraction, and every ``mix``,
``partition_summary`` and ``stats`` entry.
The pipeline is deterministic, so unchanged code reproduces every field
bit for bit; a change that means to move the numbers regenerates the
baseline (``repro bench --suite fig8 --force -o benchmarks/baseline.json``)
and says why.

Both sides are normalised through ``result_from_dict`` →
``result_to_dict`` first, so a field the result no longer has (the
retired ``degraded`` flag of older documents) is ignored on either side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.results import cell_label, result_from_dict, result_to_dict


def _fields(result: dict) -> dict:
    """Dotted field name -> value of one normalised ``result`` block."""
    flat = {}
    for key, value in result_to_dict(result_from_dict(result)).items():
        if isinstance(value, dict):
            flat.update((f"{key}.{sub}", v) for sub, v in value.items())
        else:
            flat[key] = value
    return flat


@dataclass(eq=False, slots=True)
class ComparisonReport:
    matched: int = 0
    #: One ``label: field baseline -> current`` line per moved field.
    mismatches: list[str] = field(default_factory=list)
    missing_in_current: list[str] = field(default_factory=list)
    missing_in_baseline: list[str] = field(default_factory=list)
    #: Labels of cells the current run recorded in ``failures``.
    #: Informational here: failed cells that the baseline also has are
    #: already gated via ``missing_in_current``, and the bench CLI gates
    #: the total count via ``--max-failures``.
    failed_in_current: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every baseline cell is present and equal.

        Cells missing from the *current* run also fail: silently
        dropping a benchmark is how regressions hide.
        """
        return not (self.mismatches or self.missing_in_current)


def compare_documents(current: dict, baseline: dict) -> ComparisonReport:
    """Gate ``current`` against ``baseline`` (see module docstring)."""
    report = ComparisonReport()
    current_cells = {cell_label(c): c for c in current.get("cells", [])}
    baseline_cells = {cell_label(c): c for c in baseline.get("cells", [])}
    for failure in current.get("failures", []):
        report.failed_in_current.append(
            f"{cell_label(failure)} ({failure.get('status', 'failed')})"
        )
    report.missing_in_current = sorted(set(baseline_cells) - set(current_cells))
    report.missing_in_baseline = sorted(set(current_cells) - set(baseline_cells))

    for label in sorted(set(baseline_cells) & set(current_cells)):
        base = _fields(baseline_cells[label]["result"])
        cur = _fields(current_cells[label]["result"])
        report.matched += 1
        for name in sorted(set(base) | set(cur)):
            before, after = base.get(name, "absent"), cur.get(name, "absent")
            if before != after:
                report.mismatches.append(f"{label}: {name} {before} -> {after}")
    return report


def format_report(report: ComparisonReport) -> str:
    lines = [
        "baseline comparison (exact, every result field):",
        f"  matched cells : {report.matched}",
    ]
    for mismatch in report.mismatches:
        lines.append(f"  MISMATCH      : {mismatch}")
    for label in report.missing_in_current:
        lines.append(f"  MISSING       : {label} (in baseline, not in this run)")
    for label in report.failed_in_current:
        lines.append(f"  failed        : {label} (recorded in failures)")
    for label in report.missing_in_baseline:
        lines.append(f"  new cell      : {label} (not in baseline)")
    lines.append("  verdict       : " + ("OK" if report.ok else "FAIL"))
    return "\n".join(lines)
