"""``Cell`` validation: each field's rejection, and the dict round trip
BENCH documents and the result cache rely on."""

from __future__ import annotations

import re

import pytest

from repro.bench.matrix import Cell
from repro.errors import ReproError
from repro.workloads import WORKLOADS


@pytest.mark.parametrize(
    "fields, message",
    [
        (("no-such-workload", "basic", 4),
         f"unknown workload 'no-such-workload'; available: {sorted(WORKLOADS)}"),
        (("compress", "greedy", 4), "unknown scheme 'greedy'"),
        (("compress", "basic", 6), "width must be one of (4, 8), got 6"),
        (("compress", "basic", 4, 0), "scale must be positive, got 0"),
        (("compress", "basic", 4, -3), "scale must be positive, got -3"),
    ],
    ids=["workload", "scheme", "width", "scale-zero", "scale-negative"],
)
def test_cell_rejects_invalid_fields(fields, message):
    with pytest.raises(ReproError, match=re.escape(message)):
        Cell(*fields)


@pytest.mark.parametrize("cell", [
    Cell("compress", "advanced", 8),
    Cell("m88ksim", "conventional", 4, 2),
], ids=lambda cell: cell.label)
def test_cell_round_trips_through_its_dict(cell):
    assert Cell.from_dict(cell.as_dict()) == cell
