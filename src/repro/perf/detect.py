"""Statistical degradation detection over a wall-time history.

The series judged here are wall clock: each cell's fresh-computation
time (``compute_seconds``) on one host.  Simulated cycles, checksums
and every other result field are deterministic and need no statistics
— the exact baseline gate (:mod:`repro.bench.compare`) pins them.

Three detectors cooperate; none uses a hard-coded tolerance:

1. **Best-fit-model comparison** (change-point localization).  Each
   per-cell series is fitted with three models — *constant* (no
   change), *linear* (drift) and *step* (a change point at index k,
   two segment means, k chosen to minimize SSE) — and the winner is
   selected by BIC, so a step must buy enough residual reduction to
   pay for its extra parameters.  A winning step localizes the change
   point; a winning linear fit with material total change is reported
   as *drift*, not a step.

2. **Moving average with a confidence band** over the last N runs.
   The newest value is compared against the mean of the preceding
   window; an excursion beyond ``z`` spreads flags a just-landed
   regression even before the model comparison has enough post-change
   points to prefer a step.

3. **A noise-floor estimator.**  Detection thresholds derive from the
   data: the residual spread of the fitted model, widened by the
   measured noise floor — the cross-run scatter of runs that share a
   code version and host (identical code re-measures the same
   quantity, so any spread there *is* noise).  A quiet host gets a
   tight threshold and a noisy one a wide threshold, automatically.

Wall time is analyzed per host fingerprint and reported, but gates only
when explicitly requested (``repro perf check --gate-wall``) — CI
runners are too heterogeneous for wall time to block a merge by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.bench.results import cell_label
from repro.perf.history import HistoryEntry

#: Status values a cell verdict can carry.
STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_IMPROVED = "improved"
STATUS_INSUFFICIENT = "insufficient-data"

#: How a degradation (or improvement) manifested.
KIND_STEP = "step"
KIND_DRIFT = "drift"
KIND_SPIKE = "spike"

#: The metric the detectors judge (lower is better); verdicts carry it.
METRIC_WALL = "wall"

_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class DetectorConfig:
    """Tunables of the detection engine (all derived thresholds scale
    from the data; these only shape *how* they are derived).

    Attributes:
        window: Moving-average window length (runs).
        min_runs: Minimum series length before any verdict is attempted.
        z: Confidence multiplier on the estimated noise spread.
        min_rel_change: Absolute floor on the relative-change threshold,
            so a series with no measured noise does not flag on a
            tiny wobble.
        max_runs: Only the most recent ``max_runs`` points are analyzed.
    """

    window: int = 10
    min_runs: int = 5
    z: float = 4.0
    min_rel_change: float = 0.005
    max_runs: int = 50


@dataclass(frozen=True, slots=True)
class ModelFit:
    """One fitted model of a series."""

    model: str  # "constant" | "linear" | "step"
    sse: float
    n_params: int
    #: Step models: index of the first post-change point.
    change_index: int | None = None
    #: Linear models: least-squares slope per run.
    slope: float = 0.0
    #: Model prediction at each index (used for residual noise).
    predictions: tuple[float, ...] = ()

    def bic(self, n: int) -> float:
        return n * math.log(max(self.sse, _EPS) / n) + self.n_params * math.log(n)


def fit_constant(values: list[float]) -> ModelFit:
    n = len(values)
    mean = sum(values) / n
    sse = sum((v - mean) ** 2 for v in values)
    return ModelFit("constant", sse, 1, predictions=tuple([mean] * n))


def fit_linear(values: list[float]) -> ModelFit:
    n = len(values)
    xs = range(n)
    x_mean = (n - 1) / 2.0
    y_mean = sum(values) / n
    sxx = sum((x - x_mean) ** 2 for x in xs)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, values))
    slope = sxy / sxx if sxx > 0 else 0.0
    intercept = y_mean - slope * x_mean
    predictions = tuple(intercept + slope * x for x in xs)
    sse = sum((v - p) ** 2 for v, p in zip(values, predictions))
    return ModelFit("linear", sse, 2, slope=slope, predictions=predictions)


def fit_step(values: list[float]) -> ModelFit:
    """Best two-segment-mean fit; O(n) over prefix sums.

    The change index k (1..n-1) is the first point of the second
    segment — the run where the new behaviour landed.
    """
    n = len(values)
    prefix = [0.0]
    prefix_sq = [0.0]
    for v in values:
        prefix.append(prefix[-1] + v)
        prefix_sq.append(prefix_sq[-1] + v * v)

    def segment_sse(lo: int, hi: int) -> float:  # [lo, hi)
        count = hi - lo
        total = prefix[hi] - prefix[lo]
        total_sq = prefix_sq[hi] - prefix_sq[lo]
        return max(0.0, total_sq - total * total / count)

    best_k, best_sse = 1, math.inf
    for k in range(1, n):
        sse = segment_sse(0, k) + segment_sse(k, n)
        if sse < best_sse - _EPS:
            best_k, best_sse = k, sse
    before = prefix[best_k] / best_k
    after = (prefix[n] - prefix[best_k]) / (n - best_k)
    predictions = tuple(
        before if i < best_k else after for i in range(n)
    )
    return ModelFit("step", best_sse, 3, change_index=best_k,
                    predictions=predictions)


def best_model(values: list[float]) -> ModelFit:
    """The BIC-preferred model of the three candidates.

    Ties break toward the simpler model (fewer parameters), so a flat
    deterministic series is "constant", never a spurious zero-SSE step.
    """
    n = len(values)
    fits = [fit_constant(values), fit_linear(values)]
    if n >= 3:
        fits.append(fit_step(values))
    fits.sort(key=lambda f: (f.bic(n), f.n_params))
    return fits[0]


def residual_rel_spread(values: list[float], fit: ModelFit) -> float:
    """Residual standard deviation of ``fit``, relative to the mean."""
    n = len(values)
    mean = sum(values) / n
    if mean <= 0 or n <= fit.n_params:
        return 0.0
    var = sum(
        (v - p) ** 2 for v, p in zip(values, fit.predictions)
    ) / (n - fit.n_params)
    return math.sqrt(max(0.0, var)) / mean


@dataclass(frozen=True, slots=True)
class SeriesJudgment:
    """Verdict of the combined detectors on one numeric series."""

    status: str  # STATUS_*
    kind: str | None  # KIND_* when status is degraded/improved
    model: str
    change_index: int | None
    before: float | None
    after: float | None
    delta_rel: float | None
    threshold_rel: float
    noise_rel: float
    runs: int
    reason: str


def judge_series(
    values: list[float],
    *,
    noise_rel: float = 0.0,
    config: DetectorConfig = DetectorConfig(),
) -> SeriesJudgment:
    """Run all three detectors over one lower-is-better series."""
    if len(values) > config.max_runs:
        values = values[-config.max_runs:]
    n = len(values)
    if n < config.min_runs or not all(v > 0 for v in values):
        return SeriesJudgment(
            STATUS_INSUFFICIENT, None, "constant", None, None, None, None,
            0.0, noise_rel, n,
            f"need at least {config.min_runs} positive runs, have {n}",
        )

    fit = best_model(values)
    sigma_rel = max(residual_rel_spread(values, fit), noise_rel)
    threshold_rel = max(config.min_rel_change, config.z * sigma_rel)

    def verdict(status, kind, index, before, after, reason):
        delta = (after - before) / before if before else None
        return SeriesJudgment(
            status, kind, fit.model, index, before, after, delta,
            threshold_rel, noise_rel, n, reason,
        )

    if fit.model == "step" and fit.change_index is not None:
        k = fit.change_index
        before = sum(values[:k]) / k
        after = sum(values[k:]) / (n - k)
        delta_rel = (after - before) / before
        if abs(delta_rel) > threshold_rel:
            status = STATUS_DEGRADED if delta_rel > 0 else STATUS_IMPROVED
            return verdict(
                status, KIND_STEP, k, before, after,
                f"step of {100 * delta_rel:+.1f}% at run {k + 1}/{n} "
                f"(threshold ±{100 * threshold_rel:.1f}%)",
            )

    if fit.model == "linear":
        base = fit.predictions[0]
        total_rel = (fit.predictions[-1] - base) / base if base else 0.0
        if abs(total_rel) > threshold_rel:
            status = STATUS_DEGRADED if total_rel > 0 else STATUS_IMPROVED
            return verdict(
                status, KIND_DRIFT, 0, base, fit.predictions[-1],
                f"linear drift of {100 * total_rel:+.1f}% over {n} runs "
                f"({100 * fit.slope / base:+.2f}%/run, "
                f"threshold ±{100 * threshold_rel:.1f}%)",
            )

    # Moving average with a confidence band: is the newest run an
    # excursion from the recent past?  Catches a regression that landed
    # on the very last run, where the model comparison has only one
    # post-change point to work with.
    window = values[-(config.window + 1):-1]
    if len(window) >= 3:
        mu = sum(window) / len(window)
        var = sum((v - mu) ** 2 for v in window) / (len(window) - 1)
        spread = max(
            math.sqrt(var),
            mu * noise_rel,
            mu * config.min_rel_change / config.z,
        )
        excursion = (values[-1] - mu) / mu if mu else 0.0
        if values[-1] > mu + config.z * spread:
            return verdict(
                STATUS_DEGRADED, KIND_SPIKE, n - 1, mu, values[-1],
                f"latest run {100 * excursion:+.1f}% above the "
                f"{len(window)}-run moving average "
                f"(band ±{100 * config.z * spread / mu:.1f}%)",
            )

    return SeriesJudgment(
        STATUS_OK, None, fit.model, None, None, None, None,
        threshold_rel, noise_rel, n, f"{fit.model} model, no material change",
    )


# -- series extraction from history entries ----------------------------

@dataclass(frozen=True, slots=True)
class Point:
    """One observation of one cell's metric."""

    sha: str
    unix: float
    value: float


def _wall_seconds(cell: dict) -> float | None:
    """A cell's fresh-computation time, or ``None`` when the cell was
    replayed (it repeats the wall clock of the run that computed it and
    would flatten the series) or carries no positive time."""
    if cell.get("cached"):
        return None
    value = cell.get("compute_seconds")
    if not isinstance(value, (int, float)) or value <= 0:
        return None
    return float(value)


def extract_series(
    entries: list[HistoryEntry], *, host: str | None = None
) -> dict[str, list[Point]]:
    """Per-cell wall-time series in run (append) order, from
    *non-cached* cells only and, when ``host`` is given, only from runs
    on that host fingerprint."""
    series: dict[str, list[Point]] = {}
    for entry in entries:
        if host is not None and entry.host_fingerprint != host:
            continue
        for cell in entry.document.get("cells", []):
            value = _wall_seconds(cell)
            if value is not None:
                series.setdefault(cell_label(cell), []).append(
                    Point(entry.sha, entry.unix, value)
                )
    return series


def noise_floor(entries: list[HistoryEntry]) -> float:
    """Relative wall-time noise estimate from repeat data — never
    hard-coded.

    The repeats are a cell's wall time across runs that share a
    ``code_version`` and host fingerprint — identical code on an
    identical host re-measures the same quantity.  The *median*
    relative spread over all such groups is returned (zero when the
    history holds no repeats).
    """
    groups: dict[tuple, list[float]] = {}
    for entry in entries:
        for cell in entry.document.get("cells", []):
            value = _wall_seconds(cell)
            if value is None:
                continue
            group = (
                cell_label(cell), entry.code_version, entry.host_fingerprint
            )
            groups.setdefault(group, []).append(value)
    rels = sorted(
        rel
        for samples in groups.values()
        if (rel := _rel_spread(samples)) is not None
    )
    if not rels:
        return 0.0
    mid = len(rels) // 2
    if len(rels) % 2:
        return rels[mid]
    return 0.5 * (rels[mid - 1] + rels[mid])


def _rel_spread(samples: list[float]) -> float | None:
    if len(samples) < 2:
        return None
    mean = sum(samples) / len(samples)
    if mean <= 0:
        return None
    var = sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
    return math.sqrt(var) / mean


# -- whole-history verdicts --------------------------------------------

@dataclass(frozen=True, slots=True)
class CellVerdict:
    """Judgment of one cell's wall time, anchored back to history shas."""

    cell: str
    metric: str
    status: str
    kind: str | None
    model: str
    runs: int
    change_index: int | None
    change_sha: str | None
    before: float | None
    after: float | None
    delta_pct: float | None
    threshold_pct: float
    noise_pct: float
    reason: str

    def as_dict(self) -> dict:
        return {
            "cell": self.cell,
            "metric": self.metric,
            "status": self.status,
            "kind": self.kind,
            "model": self.model,
            "runs": self.runs,
            "change_index": self.change_index,
            "change_sha": self.change_sha,
            "before": self.before,
            "after": self.after,
            "delta_pct": self.delta_pct,
            "threshold_pct": self.threshold_pct,
            "noise_pct": self.noise_pct,
            "reason": self.reason,
        }


@dataclass(eq=False, slots=True)
class PerfReport:
    """Everything ``repro perf check`` learned about one suite."""

    suite: str
    runs: int
    #: Relative wall-time noise floor the thresholds were derived from.
    noise: float = 0.0
    verdicts: list[CellVerdict] = field(default_factory=list)

    def by_status(self, status: str) -> list[CellVerdict]:
        return [v for v in self.verdicts if v.status == status]

    def degraded(self) -> list[CellVerdict]:
        return self.by_status(STATUS_DEGRADED)

    def improved(self) -> list[CellVerdict]:
        return self.by_status(STATUS_IMPROVED)


def check_history(
    entries: list[HistoryEntry],
    *,
    suite: str,
    config: DetectorConfig = DetectorConfig(),
) -> PerfReport:
    """Judge every cell's wall time in ``suite`` with all three detectors.

    Only cells present in the most recent run are judged (a cell that
    vanished from the suite is the baseline gate's business, not a
    statistical question), only runs on the latest run's host count,
    and the change index is mapped back to the sha of the run where the
    new behaviour first appears.
    """
    entries = [e for e in entries if e.suite == suite]
    report = PerfReport(suite=suite, runs=len(entries))
    if not entries:
        return report
    latest = entries[-1]
    latest_cells = {
        cell_label(c) for c in latest.document.get("cells", [])
    }
    report.noise = noise_floor(entries)
    series = extract_series(entries, host=latest.host_fingerprint)
    for label in sorted(latest_cells):
        points = series.get(label, [])[-config.max_runs:]
        judgment = judge_series(
            [p.value for p in points], noise_rel=report.noise, config=config
        )
        change_sha = None
        if judgment.change_index is not None and points:
            change_sha = points[judgment.change_index].sha
        report.verdicts.append(
            CellVerdict(
                cell=label,
                metric=METRIC_WALL,
                status=judgment.status,
                kind=judgment.kind,
                model=judgment.model,
                runs=judgment.runs,
                change_index=judgment.change_index,
                change_sha=change_sha,
                before=judgment.before,
                after=judgment.after,
                delta_pct=(
                    None if judgment.delta_rel is None
                    else 100.0 * judgment.delta_rel
                ),
                threshold_pct=100.0 * judgment.threshold_rel,
                noise_pct=100.0 * judgment.noise_rel,
                reason=judgment.reason,
            )
        )
    return report
