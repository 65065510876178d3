"""Machine- and human-readable forms of a perf check verdict.

``repro perf check --json`` emits a ``repro-perf/1`` document — the
perf analogue of the ``repro-bench/1`` results document — so other
tooling (CI annotations, dashboards) can consume the verdict without
parsing console text.  The same :class:`~repro.perf.detect.PerfReport`
also renders to the plain-text report CI uploads as an artifact.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.perf.detect import (
    METRIC_WALL,
    STATUS_DEGRADED,
    STATUS_IMPROVED,
    STATUS_INSUFFICIENT,
    STATUS_OK,
    PerfReport,
)

#: Verdict document schema; bump on incompatible layout changes.
PERF_SCHEMA = "repro-perf/1"

_VALID_STATUSES = (
    STATUS_OK, STATUS_DEGRADED, STATUS_IMPROVED, STATUS_INSUFFICIENT
)

_TOP_LEVEL_REQUIRED = (
    "schema", "suite", "sha", "branch", "runs", "status", "gated_metrics",
    "noise", "verdicts",
)

_VERDICT_REQUIRED = (
    "cell", "metric", "status", "runs", "threshold_pct", "reason",
)


def build_verdict_document(
    report: PerfReport,
    *,
    sha: str,
    branch: str,
    gate_wall: bool,
) -> dict:
    """Assemble the ``repro-perf/1`` document for one checked suite.

    ``status`` is the overall gate outcome: ``degraded`` iff wall time
    gates (``gate_wall``) and some cell has a confirmed degradation,
    else ``ok``.
    """
    degraded = gate_wall and report.degraded()
    return {
        "schema": PERF_SCHEMA,
        "suite": report.suite,
        "sha": sha,
        "branch": branch,
        "runs": report.runs,
        "status": STATUS_DEGRADED if degraded else STATUS_OK,
        "gated_metrics": [METRIC_WALL] if gate_wall else [],
        "noise": {METRIC_WALL: round(100.0 * report.noise, 4)},
        "verdicts": [v.as_dict() for v in report.verdicts],
    }


def validate_verdict_document(doc: dict) -> None:
    """Raise :class:`ReproError` listing every schema violation."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ReproError("perf verdict document must be a JSON object")
    if doc.get("schema") != PERF_SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {PERF_SCHEMA!r}"
        )
    for field in _TOP_LEVEL_REQUIRED:
        if field not in doc:
            problems.append(f"missing top-level field {field!r}")
    if doc.get("status") not in (STATUS_OK, STATUS_DEGRADED):
        problems.append(
            f"status must be '{STATUS_OK}' or '{STATUS_DEGRADED}', "
            f"not {doc.get('status')!r}"
        )
    noise = doc.get("noise")
    if noise is not None and not isinstance(noise, dict):
        problems.append("noise must be an object")
    verdicts = doc.get("verdicts")
    if not isinstance(verdicts, list):
        problems.append("verdicts must be a list")
        verdicts = []
    for index, verdict in enumerate(verdicts):
        where = f"verdicts[{index}]"
        if not isinstance(verdict, dict):
            problems.append(f"{where} must be an object")
            continue
        for field in _VERDICT_REQUIRED:
            if field not in verdict:
                problems.append(f"{where} missing {field!r}")
        if verdict.get("status") not in _VALID_STATUSES:
            problems.append(
                f"{where}.status must be one of {_VALID_STATUSES}, "
                f"not {verdict.get('status')!r}"
            )
    if problems:
        raise ReproError(
            "invalid perf verdict document:\n  " + "\n  ".join(problems)
        )


def render_text_report(report: PerfReport, *, sha: str, branch: str) -> str:
    """Human-readable summary (the CI ``perf-report.txt`` artifact)."""
    lines = [
        f"perf check: suite={report.suite} branch={branch} sha={sha[:12]}",
        f"history: {report.runs} recorded run(s)",
    ]
    lines.append(f"noise floor [{METRIC_WALL}]: {100.0 * report.noise:.2f}%")
    degraded = report.degraded()
    improved = report.improved()
    ok = report.by_status(STATUS_OK)
    thin = report.by_status(STATUS_INSUFFICIENT)
    lines.append(
        f"verdicts: {len(degraded)} degraded, {len(improved)} improved, "
        f"{len(ok)} ok, {len(thin)} with insufficient data"
    )
    for title, group in (("DEGRADED", degraded), ("IMPROVED", improved)):
        for v in group:
            since = f" since {v.change_sha[:12]}" if v.change_sha else ""
            delta = (
                f"{v.delta_pct:+.1f}%" if v.delta_pct is not None else "?"
            )
            lines.append(
                f"  {title} [{v.metric}] {v.cell}: {delta}{since} — {v.reason}"
            )
    if not degraded and not improved:
        lines.append("  no material changes detected")
    return "\n".join(lines) + "\n"
