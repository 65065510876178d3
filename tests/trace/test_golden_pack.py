"""The packs a traced run returns, pinned byte for byte.

A traced interpreter run packs its trace as it executes.  Trace stores
are keyed by :data:`~repro.trace.pack.TRACE_FORMAT_VERSION`, so any
change to what that packing writes — row or token order, a column value
— must either keep every byte or bump the version.  The golden digest
was computed with the entry-stream packer (:func:`pack_entries` over the
interpreter's ``TraceEntry`` list) before the interpreter packed
directly; the round trip holds the two packers to the same bytes on
every smoke cell.
"""

from __future__ import annotations

import hashlib
import sys

import pytest

from repro.experiments.runner import SCHEMES, prepare_program
from repro.runtime.interp import run_program
from repro.trace.pack import pack_entries

from tests.trace.test_replay_equivalence import SMOKE

#: sha256 of ``packed.to_bytes()`` for compress/advanced at SMOKE scale
#: (functional value set, no metadata), on a little-endian host.
GOLDEN_COMPRESS_ADVANCED = (
    "fe69392f93100143efd695fa469b92ecbb2be3d35c465645a6d378e5b8b70687"
)


def _traced(workload: str, scheme: str):
    program = prepare_program(workload, scheme, scale=SMOKE[workload]).program
    return program, run_program(program, collect_trace=True)


@pytest.mark.skipif(sys.byteorder != "little", reason="digest pins little-endian arrays")
def test_compress_advanced_pack_is_pinned():
    _, run = _traced("compress", "advanced")
    digest = hashlib.sha256(run.packed.to_bytes()).hexdigest()
    assert digest == GOLDEN_COMPRESS_ADVANCED


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_unpack_repack_round_trip(workload, scheme):
    program, run = _traced(workload, scheme)
    packed = run.packed
    repacked = pack_entries(packed.unpack_entries(program), value=packed.value)
    assert repacked.to_bytes() == packed.to_bytes()
