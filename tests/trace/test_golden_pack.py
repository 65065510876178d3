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
        "a241fa02afdca950a6b5ef71cea9c87f4ff89404df934c1dc228c38aa8e8b768",
        "1237e648df1e4a8df641ca1e51b2c52d466d508ecff801171e10007987123c54",
    ),
    ("compress", "basic"): (
        "da879319f1de627d3154bf7a51bd8f1d54ee5d4c4134f0e3a4c66de3b29aef62",
        "1237e648df1e4a8df641ca1e51b2c52d466d508ecff801171e10007987123c54",
    ),
    ("compress", "conventional"): (
        "77e3d3ed64bda4a4be2a46e17db5a6a1192c2abcbd482b46ca0c7b0c6d932de8",
        "1237e648df1e4a8df641ca1e51b2c52d466d508ecff801171e10007987123c54",
    ),
    ("ear", "advanced"): (
        "791b7d85e75626386496df938b651a6eaf91e1cf51346c74bc87b88f4a157b2c",
        "c9372d3978336cd6807865faf7ab0f82908be19f6f65ec7deb0bdf0ba97e3a1f",
    ),
    ("ear", "basic"): (
        "acd9d5d1d25068946b2af2acd1fd40ed955881ddef292bd7d597ec4f7899ad2a",
        "c9372d3978336cd6807865faf7ab0f82908be19f6f65ec7deb0bdf0ba97e3a1f",
    ),
    ("ear", "conventional"): (
        "5160610227a3d0ed5b123c10bbb1bdf7f4c8ac95686e327f9d0a8c6f360db58b",
        "c9372d3978336cd6807865faf7ab0f82908be19f6f65ec7deb0bdf0ba97e3a1f",
    ),
    ("gcc", "advanced"): (
        "57ac633057382a22593df9159ca2137e1a1a5f89c63dc3d00a839c7a46ca7878",
        "b4f19ee7bb2ab32711a6ca06e3f59ee843d573d8b4e3a4d9b825288341503cc4",
    ),
    ("gcc", "basic"): (
        "9fdb3ed0804199136d467158cc76af25a7f4be9d4a0c04d33a8d5c7887f33ac9",
        "b4f19ee7bb2ab32711a6ca06e3f59ee843d573d8b4e3a4d9b825288341503cc4",
    ),
    ("gcc", "conventional"): (
        "85910b42bb7f9289775858b4638a568a13abd617a5cdb33691bd8971d97d6d5b",
        "b4f19ee7bb2ab32711a6ca06e3f59ee843d573d8b4e3a4d9b825288341503cc4",
    ),
    ("go", "advanced"): (
        "7fa39bb153206f91baf98b872411d9eb3426d05a5de8395aa27306fa0ba40d34",
        "0284abf10ed9034f37961fd5350e30e389c003e857176ed1cd2bdab9b45bbdac",
    ),
    ("go", "basic"): (
        "3b45040a178980051bfede751322681b4cec188339da909212d5a20096649d80",
        "0284abf10ed9034f37961fd5350e30e389c003e857176ed1cd2bdab9b45bbdac",
    ),
    ("go", "conventional"): (
        "b8864ae480d2b0ea9f83aa45431c4cf4e3a723f0c911ced9c1b6a224ada8f2d9",
        "0284abf10ed9034f37961fd5350e30e389c003e857176ed1cd2bdab9b45bbdac",
    ),
    ("ijpeg", "advanced"): (
        "4aa22eefcc9aa5c815da1346296bb02c2e27c3b38c956899ba98b58bb05d8a82",
        "573bec2063747224c079c1bc6fd419d15e2b855d9c13773720f14d7390a863de",
    ),
    ("ijpeg", "basic"): (
        "5b9e651962dbab8ac8916f716d475cd59cc598ae7ccbc460b91dd7fd8c98304d",
        "573bec2063747224c079c1bc6fd419d15e2b855d9c13773720f14d7390a863de",
    ),
    ("ijpeg", "conventional"): (
        "4925d3584be33ecfd0ede8c0c59e63b2e1c40a087a23313e69f6e4c36f37dad4",
        "573bec2063747224c079c1bc6fd419d15e2b855d9c13773720f14d7390a863de",
    ),
    ("li", "advanced"): (
        "da1485594392e8e674cdc458e66e55933786954e5ae670b9851bcaca9642d4d5",
        "a7deff441eda7214be83d76b62b3dda6a84e24f4bf0702d319cd4cf6e60406e3",
    ),
    ("li", "basic"): (
        "86664d8d045ab4ce26b98e7e968bf83bc29cac8eaa69fbe8d5a030d4b4160725",
        "a7deff441eda7214be83d76b62b3dda6a84e24f4bf0702d319cd4cf6e60406e3",
    ),
    ("li", "conventional"): (
        "f2156d84db36de61649ccaa1cdadc068c6c640d0a0b81e4cad2c6c7d3624abac",
        "a7deff441eda7214be83d76b62b3dda6a84e24f4bf0702d319cd4cf6e60406e3",
    ),
    ("m88ksim", "advanced"): (
        "e4d0bc51a046610126636bb9a0f647b074b04d3fa60079883e4f49497f382dbb",
        "1517aae10808c8e923c7b55475bfb7e74420f8b75c04b854e3d5664cf4df3336",
    ),
    ("m88ksim", "basic"): (
        "97ff5f8634d0a1c9ed02ade42fad005b0c9b65b6024b93946d580df159018c59",
        "1517aae10808c8e923c7b55475bfb7e74420f8b75c04b854e3d5664cf4df3336",
    ),
    ("m88ksim", "conventional"): (
        "82700fcaf932b786aafb6721ea2164b914978eb65d4b262adc992bd86cfd6ff7",
        "1517aae10808c8e923c7b55475bfb7e74420f8b75c04b854e3d5664cf4df3336",
    ),
    ("perl", "advanced"): (
        "aa70ec13e0b192a3c6c1a29cd5dbf01586ca9a577c1b8d237d757f5d12437fa3",
        "14d319f47432c73a9f781b1a1247b25da745ec1fd3ce933e1f7849f190e7ccfd",
    ),
    ("perl", "basic"): (
        "1da591c154f416afcdbb66f5d5cc5ed9d0ebc5c6deb588e4bfb9df52fa2c7aa6",
        "14d319f47432c73a9f781b1a1247b25da745ec1fd3ce933e1f7849f190e7ccfd",
    ),
    ("perl", "conventional"): (
        "2a22d236a5bffa5f65f6ac0b940c9bf6abfcddc01a782e4616434bbb13b7ae5f",
        "14d319f47432c73a9f781b1a1247b25da745ec1fd3ce933e1f7849f190e7ccfd",
    ),
    ("swim", "advanced"): (
        "2ed14c9a80c22a799bdfb04f57261bdb8014d4fb47c8b8cc56e89f195aee0ba5",
        "a3dca298c03bac383dd39f411ba8d9bf281212d9bda3dae5c24357032aae729b",
    ),
    ("swim", "basic"): (
        "7e61b34c1da3e8d805c9574a332411510d78b1b84240354c98dc4e6d0378f2e3",
        "a3dca298c03bac383dd39f411ba8d9bf281212d9bda3dae5c24357032aae729b",
    ),
    ("swim", "conventional"): (
        "f646e45deddb8f77ae4961c2a8b2fc30e2cbab40d1608465baa79645c3fa7594",
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
