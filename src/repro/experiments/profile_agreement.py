"""Static-vs-measured profile agreement and its partition impact.

The advanced scheme is profile-driven; the paper assumes a measured
profile is available.  :mod:`repro.analysis.freq` estimates one purely
statically (Ball/Wu–Larus heuristics).  This experiment quantifies, per
workload:

* how well the static profile matches the measured one (normalized
  per-function overlap, hottest-block agreement — see
  :mod:`repro.analysis.profilecmp`), and
* what that disagreement *costs*: the advanced partitions computed from
  each profile are compared node-by-node (Jaccard agreement of the FPa
  sets) and by total offloaded instruction count.

The punchline mirrors the Profit model's scale invariance: partition
decisions depend only on the per-component *sign* of
``Benefit − Overhead``, so even moderately accurate static frequencies
tend to reproduce the measured partitions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.freq import static_profile
from repro.analysis.profilecmp import ProfileAgreement, compare_profiles
from repro.ir.program import Program
from repro.partition.program import plan_partitions
from repro.runtime.interp import run_program
from repro.workloads import WORKLOADS, compile_workload


@dataclass(frozen=True, slots=True)
class AgreementRow:
    """Static-profile quality figures for one program."""

    benchmark: str
    agreement: ProfileAgreement
    offloaded_static: int
    offloaded_measured: int
    #: Jaccard agreement of the FPa sets, pooled over all functions.
    decision_agreement: float

    @property
    def weighted_overlap(self) -> float:
        return self.agreement.weighted_overlap

    @property
    def hottest_match_fraction(self) -> float:
        return self.agreement.hottest_match_fraction

    def to_dict(self) -> dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "weighted_overlap": round(self.weighted_overlap, 6),
            "hottest_match_fraction": round(self.hottest_match_fraction, 6),
            "offloaded_static": self.offloaded_static,
            "offloaded_measured": self.offloaded_measured,
            "decision_agreement": round(self.decision_agreement, 6),
        }


def compare_program(program: Program, label: str) -> AgreementRow:
    """Profile ``program`` statically and by running it, and partition it
    (advanced scheme) under each profile."""
    static = static_profile(program)
    measured = run_program(program).profile
    by_static = plan_partitions(program, "advanced", profile=static)
    by_measured = plan_partitions(program, "advanced", profile=measured)
    intersection = union = 0
    for name, part_s in by_static.partitions.items():
        part_m = by_measured.partitions[name]
        intersection += len(part_s.fp & part_m.fp)
        union += len(part_s.fp | part_m.fp)
    return AgreementRow(
        benchmark=label,
        agreement=compare_profiles(program, static, measured),
        offloaded_static=by_static.total("offloaded_instructions"),
        offloaded_measured=by_measured.total("offloaded_instructions"),
        decision_agreement=intersection / union if union else 1.0,
    )


def characterize(name: str, scale: int | None = None) -> AgreementRow:
    """Compare static against measured profiles for one benchmark."""
    return compare_program(compile_workload(name, scale), name)


def run(
    benchmarks: list[str] | None = None, scale: int | None = None
) -> list[AgreementRow]:
    return [
        characterize(name, scale) for name in benchmarks or sorted(WORKLOADS)
    ]


def format_table(rows: list[AgreementRow]) -> str:
    lines = [
        "Static profile vs measured: agreement and partition impact",
        "(advanced-scheme partitions recomputed under each profile)",
        f"{'benchmark':10s} {'overlap':>8s} {'hottest':>8s} "
        f"{'offl(stat)':>10s} {'offl(meas)':>10s} {'decisions':>9s}",
    ]
    for row in rows:
        lines.append(
            f"{row.benchmark:10s} {100 * row.weighted_overlap:7.1f}% "
            f"{100 * row.hottest_match_fraction:7.1f}% "
            f"{row.offloaded_static:10d} {row.offloaded_measured:10d} "
            f"{100 * row.decision_agreement:8.1f}%"
        )
    return "\n".join(lines)
