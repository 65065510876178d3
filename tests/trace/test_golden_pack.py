"""The packs and block profiles a traced run returns, pinned byte for byte.

A traced interpreter run packs its trace as it executes.  Trace stores
are keyed by :data:`~repro.trace.pack.TRACE_FORMAT_VERSION`, so any
change to what that packing writes — row or token order, a column value
— must either keep every byte or bump the version.  :data:`GOLDEN` pins
every workload under every scheme: the pack's bytes and the block
profile's counts in insertion order (the order the §6.1 cost model and
the pack's ``meta`` see).  The compress/advanced digest was computed
with the entry-stream packer (:func:`pack_entries` over the
interpreter's ``TraceEntry`` list) before the interpreter packed
directly, and the rest with the interpreter that decoded each
instruction on every execution, before it became a step table; the
round trip holds the two packers to the same bytes on every smoke cell.
"""

from __future__ import annotations

import hashlib
import sys

import pytest

from repro.experiments.runner import SCHEMES, prepare_program
from repro.runtime.interp import run_program
from repro.trace.pack import pack_entries
from repro.workloads import WORKLOADS

from tests.trace.test_replay_equivalence import SMOKE

#: Scale of each workload's pinned run: the smoke scale where the smoke
#: matrix has one, else the workload's smallest.
GOLDEN_SCALES = {
    **SMOKE,
    "ear": 1,
    "gcc": 1,
    "go": 1,
    "ijpeg": 1,
    "li": 1,
    "perl": 1,
    "swim": 1,
}

#: (workload, scheme) -> (sha256 of ``packed.to_bytes()``, sha256 of
#: ``repr(list(profile.counts.items()))``) of the traced run at
#: :data:`GOLDEN_SCALES` (functional value set, no metadata), on a
#: little-endian host.
GOLDEN = {
    ("compress", "advanced"): (
        "fe69392f93100143efd695fa469b92ecbb2be3d35c465645a6d378e5b8b70687",
        "1237e648df1e4a8df641ca1e51b2c52d466d508ecff801171e10007987123c54",
    ),
    ("compress", "basic"): (
        "8e3b43894ff38e2ae154c3724332d69dac15b27a26d293b6bfccd061916f6beb",
        "1237e648df1e4a8df641ca1e51b2c52d466d508ecff801171e10007987123c54",
    ),
    ("compress", "conventional"): (
        "73b7418a9a02c62cd8c1b44dc2cd3fe832b9a53276211dd95f075ab84e6b3e30",
        "1237e648df1e4a8df641ca1e51b2c52d466d508ecff801171e10007987123c54",
    ),
    ("ear", "advanced"): (
        "e38d2bc4b5a2c95c37dc4d2ea8a107c76a935989978f4ba5ec23af51d1dc2cf5",
        "c9372d3978336cd6807865faf7ab0f82908be19f6f65ec7deb0bdf0ba97e3a1f",
    ),
    ("ear", "basic"): (
        "188c389d0b24d4304cfa264e71731d67e135a21c4bcd50ced9932bf1a402a5b5",
        "c9372d3978336cd6807865faf7ab0f82908be19f6f65ec7deb0bdf0ba97e3a1f",
    ),
    ("ear", "conventional"): (
        "682b0d41ed8d4dc3e4293b7a8fb79bfd027bd5f3e5365077ca45aa92bb90ddf1",
        "c9372d3978336cd6807865faf7ab0f82908be19f6f65ec7deb0bdf0ba97e3a1f",
    ),
    ("gcc", "advanced"): (
        "a0788a492885515c59bbd7bb21f0c798bbf2ae3f78dfea87619bf7df11bbd6e1",
        "b4f19ee7bb2ab32711a6ca06e3f59ee843d573d8b4e3a4d9b825288341503cc4",
    ),
    ("gcc", "basic"): (
        "5a9ba7b7dde94a3f259af21f051970b4a6a3c09823bfa4f16019c8939f570848",
        "b4f19ee7bb2ab32711a6ca06e3f59ee843d573d8b4e3a4d9b825288341503cc4",
    ),
    ("gcc", "conventional"): (
        "1a377129e9fe1037af0f32c7be52e8804c98b2d567a274100cc78be43075f249",
        "b4f19ee7bb2ab32711a6ca06e3f59ee843d573d8b4e3a4d9b825288341503cc4",
    ),
    ("go", "advanced"): (
        "d11bc6afeeb076d786eb07042fa133058a843952c52d16b6dedc056c0abee703",
        "0284abf10ed9034f37961fd5350e30e389c003e857176ed1cd2bdab9b45bbdac",
    ),
    ("go", "basic"): (
        "4a37c7a7946de73d7fd70818b3c2972e1ee5826bcc4a9200e398e0cdcd00186a",
        "0284abf10ed9034f37961fd5350e30e389c003e857176ed1cd2bdab9b45bbdac",
    ),
    ("go", "conventional"): (
        "b0081db943b6cd65b28423fe67f1d9323aa346332c7b1a723407db08dc7c9985",
        "0284abf10ed9034f37961fd5350e30e389c003e857176ed1cd2bdab9b45bbdac",
    ),
    ("ijpeg", "advanced"): (
        "f409b5153a4161f826de2f09e7d697bfee3c4b24a4a4f9709ea1b5b9df790b5a",
        "573bec2063747224c079c1bc6fd419d15e2b855d9c13773720f14d7390a863de",
    ),
    ("ijpeg", "basic"): (
        "c7f37d08a3edfecba1d633dde4fabbb1ac18142586959f6b801d64f1c6e24939",
        "573bec2063747224c079c1bc6fd419d15e2b855d9c13773720f14d7390a863de",
    ),
    ("ijpeg", "conventional"): (
        "b0b0c9cf201933d29f02afa949fb16f4b9437e23a9ddc492aee83a60392a041d",
        "573bec2063747224c079c1bc6fd419d15e2b855d9c13773720f14d7390a863de",
    ),
    ("li", "advanced"): (
        "98779a5883040815a029e8fc2f79da5b0d53af08251891fa2aa1fb30070f5afe",
        "a7deff441eda7214be83d76b62b3dda6a84e24f4bf0702d319cd4cf6e60406e3",
    ),
    ("li", "basic"): (
        "06fa8206fbacb4d642b376034a93d212904d12c1f8d6bfaafce92fde75aa1e83",
        "a7deff441eda7214be83d76b62b3dda6a84e24f4bf0702d319cd4cf6e60406e3",
    ),
    ("li", "conventional"): (
        "c6491eb58a64425455b961c7342e4abbabf9af2289e6428031155a0880e2abd4",
        "a7deff441eda7214be83d76b62b3dda6a84e24f4bf0702d319cd4cf6e60406e3",
    ),
    ("m88ksim", "advanced"): (
        "065ea19d88cb663aab827a0967f8430fe17823c4f798ebd849e8a83c2e05eff3",
        "1517aae10808c8e923c7b55475bfb7e74420f8b75c04b854e3d5664cf4df3336",
    ),
    ("m88ksim", "basic"): (
        "434bae58d5da7f96e00b65dabb84e41eab9f87d04a7eb683e4762e1fa3817176",
        "1517aae10808c8e923c7b55475bfb7e74420f8b75c04b854e3d5664cf4df3336",
    ),
    ("m88ksim", "conventional"): (
        "d24e10df912276a68263baaa580ab761269525dcb2bd381c9336858a3f422ef5",
        "1517aae10808c8e923c7b55475bfb7e74420f8b75c04b854e3d5664cf4df3336",
    ),
    ("perl", "advanced"): (
        "7e5a48a8e34b79b5e90324a9be70ce46215f7c442a3467b2d4c6b96067c0d94a",
        "14d319f47432c73a9f781b1a1247b25da745ec1fd3ce933e1f7849f190e7ccfd",
    ),
    ("perl", "basic"): (
        "b7701bfebbab9535eb6a02df9f0f9e6e900460604cffad707efd549f76880ae7",
        "14d319f47432c73a9f781b1a1247b25da745ec1fd3ce933e1f7849f190e7ccfd",
    ),
    ("perl", "conventional"): (
        "a1db889e5df3b87b07bd87cea2f51d27953b6bc7c689356595f34cbb3a672d79",
        "14d319f47432c73a9f781b1a1247b25da745ec1fd3ce933e1f7849f190e7ccfd",
    ),
    ("swim", "advanced"): (
        "d1db166725a07ee5f8dbc8e12e44a82ac477029c2832a32c04fd11158fe60faf",
        "a3dca298c03bac383dd39f411ba8d9bf281212d9bda3dae5c24357032aae729b",
    ),
    ("swim", "basic"): (
        "bae9bcd63d97d04a4655370ff4d7cf4a33bc6957fa23a46e317ffc11d2789723",
        "a3dca298c03bac383dd39f411ba8d9bf281212d9bda3dae5c24357032aae729b",
    ),
    ("swim", "conventional"): (
        "a007579ac1ccc533da0a4112a2431162c7a2fc5878047a759e21c7016fedebd7",
        "a3dca298c03bac383dd39f411ba8d9bf281212d9bda3dae5c24357032aae729b",
    ),
}


def _traced(workload: str, scheme: str, scale: int):
    program = prepare_program(workload, scheme, scale=scale).program
    return program, run_program(program, collect_trace=True)


def test_golden_covers_every_workload_and_scheme():
    assert set(GOLDEN_SCALES) == set(WORKLOADS)
    assert set(GOLDEN) == {(w, s) for w in WORKLOADS for s in SCHEMES}


@pytest.mark.skipif(sys.byteorder != "little", reason="digest pins little-endian arrays")
@pytest.mark.parametrize("workload,scheme", sorted(GOLDEN))
def test_pack_and_profile_are_pinned(workload, scheme):
    _, run = _traced(workload, scheme, GOLDEN_SCALES[workload])
    pack_digest, profile_digest = GOLDEN[workload, scheme]
    assert hashlib.sha256(run.packed.to_bytes()).hexdigest() == pack_digest
    counts = repr(list(run.profile.counts.items())).encode()
    assert hashlib.sha256(counts).hexdigest() == profile_digest


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_unpack_repack_round_trip(workload, scheme):
    program, run = _traced(workload, scheme, SMOKE[workload])
    packed = run.packed
    repacked = pack_entries(packed.unpack_entries(program), value=packed.value)
    assert repacked.to_bytes() == packed.to_bytes()
