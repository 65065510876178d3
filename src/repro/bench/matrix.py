"""The experiment matrix: cells and named suites.

One :class:`Cell` is one (workload, scheme, machine width, scale)
configuration — exactly the unit the paper varies between bars of
Figures 8–10.  Suites are the standard collections of cells the
``repro bench`` CLI and CI run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ReproError
from repro.workloads import FP_BENCHMARKS, INT_BENCHMARKS, WORKLOADS

#: Schemes a cell may use (mirrors ``experiments.runner.SCHEMES``).
SCHEMES = ("conventional", "basic", "advanced")

#: Machine widths of Table 1.
WIDTHS = (4, 8)


@dataclass(frozen=True, slots=True)
class Cell:
    """One point of the experiment matrix.

    Attributes:
        workload: Workload name from :mod:`repro.workloads`.
        scheme: ``"conventional"``, ``"basic"`` or ``"advanced"``.
        width: Machine width, 4 or 8 (Table 1).
        scale: Workload scale override (``None`` = the workload default).
    """

    workload: str
    scheme: str
    width: int
    scale: int | None = None

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ReproError(
                f"unknown workload {self.workload!r}; "
                f"available: {sorted(WORKLOADS)}"
            )
        if self.scheme not in SCHEMES:
            raise ReproError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}"
            )
        if self.width not in WIDTHS:
            raise ReproError(f"width must be one of {WIDTHS}, got {self.width}")
        if self.scale is not None and self.scale <= 0:
            raise ReproError(f"scale must be positive, got {self.scale}")

    @property
    def label(self) -> str:
        return cell_label(self.as_dict())

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "scheme": self.scheme,
            "width": self.width,
            "scale": self.scale,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Cell":
        return cls(doc["workload"], doc["scheme"], doc["width"], doc.get("scale"))


def cell_label(cell: dict) -> str:
    """Canonical ``workload/scheme/width-way[@scale]`` label of a cell
    dict: :meth:`Cell.as_dict`, or a BENCH ``cells``/``failures`` entry."""
    scale = cell.get("scale")
    suffix = f"@{scale}" if scale is not None else ""
    return f"{cell['workload']}/{cell['scheme']}/{cell['width']}-way{suffix}"


def _grid(names, schemes, width) -> list[Cell]:
    return [Cell(n, s, width) for n in names for s in schemes]


def fig8_matrix() -> list[Cell]:
    """Figure 8: FPa partition sizes — both schemes, 4-way machine."""
    return _grid(INT_BENCHMARKS, ("basic", "advanced"), 4)


def fig9_matrix() -> list[Cell]:
    """Figure 9: speedups on the 4-way machine (needs the baseline)."""
    return _grid(INT_BENCHMARKS, SCHEMES, 4)


def fig10_matrix() -> list[Cell]:
    """Figure 10: speedups on the 8-way machine."""
    return _grid(INT_BENCHMARKS, SCHEMES, 8)


def fp_matrix() -> list[Cell]:
    """§7.5: both schemes applied to the floating-point surrogates."""
    return _grid(FP_BENCHMARKS, SCHEMES, 4)


def all_matrix() -> list[Cell]:
    """Every cell the paper's figures and tables need, deduplicated."""
    seen: dict[Cell, None] = {}
    for cell in fig8_matrix() + fig9_matrix() + fig10_matrix() + fp_matrix():
        seen.setdefault(cell, None)
    return list(seen)


#: Small, fast cells for CI smoke tests and the harness's own tests.
_SMOKE_SCALES = {"compress": 150, "m88ksim": 2}


def smoke_matrix() -> list[Cell]:
    return [
        Cell(name, scheme, 4, scale)
        for name, scale in _SMOKE_SCALES.items()
        for scheme in SCHEMES
    ]


SUITES = {
    "fig8": fig8_matrix,
    "fig9": fig9_matrix,
    "fig10": fig10_matrix,
    "fp": fp_matrix,
    "all": all_matrix,
    "smoke": smoke_matrix,
}


def suite_cells(name: str, scale: int | None = None) -> list[Cell]:
    """Cells of a named suite, optionally forcing one scale everywhere."""
    factory = SUITES.get(name)
    if factory is None:
        raise ReproError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    cells = factory()
    if scale is not None:
        cells = [replace(cell, scale=scale) for cell in cells]
    return cells
