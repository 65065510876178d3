"""The packs and block profiles a traced run returns, pinned byte for byte.

A traced interpreter run packs its trace as it executes.  Trace stores
are keyed by :data:`~repro.trace.pack.TRACE_FORMAT_VERSION`, so any
change to what that packing writes — row or token order, a column value
— must either keep every byte or bump the version.  :data:`GOLDEN` pins
every workload under every scheme: the pack's encoding and the block
profile's counts in insertion order (the order the §6.1 cost model and
the pack's ``meta`` see).  The encoding holds only what replay reads,
so :data:`GOLDEN_TOKENS` pins the rest of the interpreter's recording,
the in-memory token and offset columns and their name table, on the
same runs.  The round trip holds the interpreter and the entry-stream
packer (:func:`pack_entries`) to the same encoding and token columns on
every smoke cell.
"""

from __future__ import annotations

import hashlib
import json
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
        "83a9ed662292bfd67927f21a0bb7c2b264167a53dc73db7aaac44fc5817698fe",
        "1237e648df1e4a8df641ca1e51b2c52d466d508ecff801171e10007987123c54",
    ),
    ("compress", "basic"): (
        "f2463418e0cf407c198275d943da580e1e9c93e3e01e736b2859482cef62cc7a",
        "1237e648df1e4a8df641ca1e51b2c52d466d508ecff801171e10007987123c54",
    ),
    ("compress", "conventional"): (
        "6f5dd180e38268d83f798a5249ad95745e551dbae53082f92815b08d2299f099",
        "1237e648df1e4a8df641ca1e51b2c52d466d508ecff801171e10007987123c54",
    ),
    ("ear", "advanced"): (
        "b106c4f79614e6ae924baf586e09322e15352f2a677084971c8cff5f038122c6",
        "c9372d3978336cd6807865faf7ab0f82908be19f6f65ec7deb0bdf0ba97e3a1f",
    ),
    ("ear", "basic"): (
        "c7add8eb54566f79ed38e76c952c1214398560910909217a669674b141ee45df",
        "c9372d3978336cd6807865faf7ab0f82908be19f6f65ec7deb0bdf0ba97e3a1f",
    ),
    ("ear", "conventional"): (
        "b86f52445a24db2de85bc80171438dc3f72e60b22b66d611e0d02c70a2cbcf9b",
        "c9372d3978336cd6807865faf7ab0f82908be19f6f65ec7deb0bdf0ba97e3a1f",
    ),
    ("gcc", "advanced"): (
        "44ad181a81bc31f45f3961a9f3b2b37d0de24ca83273731f4f0086630070d78b",
        "b4f19ee7bb2ab32711a6ca06e3f59ee843d573d8b4e3a4d9b825288341503cc4",
    ),
    ("gcc", "basic"): (
        "7e20dc25883ee9930abd2b70307a18bc18197d372912e5e732dcfe1798f5e438",
        "b4f19ee7bb2ab32711a6ca06e3f59ee843d573d8b4e3a4d9b825288341503cc4",
    ),
    ("gcc", "conventional"): (
        "1eff3d974fea001cc3761f1cecfb6ce70b24dbf72d7eed58043f174b215d3a65",
        "b4f19ee7bb2ab32711a6ca06e3f59ee843d573d8b4e3a4d9b825288341503cc4",
    ),
    ("go", "advanced"): (
        "6686bf5149528a2eeeb28d176fbd7f4ce375819f8a6cd0ce265ae456013a694d",
        "0284abf10ed9034f37961fd5350e30e389c003e857176ed1cd2bdab9b45bbdac",
    ),
    ("go", "basic"): (
        "ad707e5dccb1c103f6cd9985265116f4b334d3dc9baab8ed5f7f4d57a67ee906",
        "0284abf10ed9034f37961fd5350e30e389c003e857176ed1cd2bdab9b45bbdac",
    ),
    ("go", "conventional"): (
        "4bda74a16adfcd8951fbb6f6eba024045e223c3c1a911d88ea3a51ceb8b0ec55",
        "0284abf10ed9034f37961fd5350e30e389c003e857176ed1cd2bdab9b45bbdac",
    ),
    ("ijpeg", "advanced"): (
        "2c2e06c2b7fbba9242a2ad3eacb7d96d4b1171ce425fb28c65a485097a40ea01",
        "573bec2063747224c079c1bc6fd419d15e2b855d9c13773720f14d7390a863de",
    ),
    ("ijpeg", "basic"): (
        "7731e4011bab688b6f0d99953a32cdb40723a24fea0817195b7706c5faeeb1d6",
        "573bec2063747224c079c1bc6fd419d15e2b855d9c13773720f14d7390a863de",
    ),
    ("ijpeg", "conventional"): (
        "3facd4dfaff5a34373c038f28a7b5367ff949d4096cbd047f77319f29e01ce61",
        "573bec2063747224c079c1bc6fd419d15e2b855d9c13773720f14d7390a863de",
    ),
    ("li", "advanced"): (
        "b1efc7e486332e2758f62d7e8c05f376c446f7b7210e1add11a79c791ab6d2d7",
        "a7deff441eda7214be83d76b62b3dda6a84e24f4bf0702d319cd4cf6e60406e3",
    ),
    ("li", "basic"): (
        "92a88285740a725d59ff852a1c7a7a813b3b12756d15c0c76cc82d943b63547d",
        "a7deff441eda7214be83d76b62b3dda6a84e24f4bf0702d319cd4cf6e60406e3",
    ),
    ("li", "conventional"): (
        "21f7719645f57b333350f21783adc82733b4d3ba11805ca5be0620e237d78c3d",
        "a7deff441eda7214be83d76b62b3dda6a84e24f4bf0702d319cd4cf6e60406e3",
    ),
    ("m88ksim", "advanced"): (
        "a03ab78c58f048814109038ab80f47a6a12c70e0bc49e8358559ee1b3378bb19",
        "1517aae10808c8e923c7b55475bfb7e74420f8b75c04b854e3d5664cf4df3336",
    ),
    ("m88ksim", "basic"): (
        "67b5f328c6c5027df208ca574e619b0e618af442671b504bf250824a4cba4290",
        "1517aae10808c8e923c7b55475bfb7e74420f8b75c04b854e3d5664cf4df3336",
    ),
    ("m88ksim", "conventional"): (
        "1a6808e5047e681956a28d7d2b596b1030148acd584fad3dc51dbe959778ca20",
        "1517aae10808c8e923c7b55475bfb7e74420f8b75c04b854e3d5664cf4df3336",
    ),
    ("perl", "advanced"): (
        "8cea844dd935896c3827ac7d90d49f5c3c6085e3700b84a418a392ac3ed1c71a",
        "14d319f47432c73a9f781b1a1247b25da745ec1fd3ce933e1f7849f190e7ccfd",
    ),
    ("perl", "basic"): (
        "a78e35788357a2efc27bfde9cacd53d57feb08838c25334c490fa94efbef2226",
        "14d319f47432c73a9f781b1a1247b25da745ec1fd3ce933e1f7849f190e7ccfd",
    ),
    ("perl", "conventional"): (
        "7e8272a27c92c69dfc2586ac2e5e96753d0cf4add0e3f6f9e010d0692143a9a4",
        "14d319f47432c73a9f781b1a1247b25da745ec1fd3ce933e1f7849f190e7ccfd",
    ),
    ("swim", "advanced"): (
        "bf39432c5e85e4836a7b6607d1816a4ad92c6d0022ecc48c681d61e3360b9698",
        "a3dca298c03bac383dd39f411ba8d9bf281212d9bda3dae5c24357032aae729b",
    ),
    ("swim", "basic"): (
        "7735bd40ecd01c05756eb0a0287f3f7f8b624ab3a6c9d10fc1cf50f606520049",
        "a3dca298c03bac383dd39f411ba8d9bf281212d9bda3dae5c24357032aae729b",
    ),
    ("swim", "conventional"): (
        "b26fd8ef1fbd8c55345c89695c7f7aeadd3db6fd472d75670d6a07c7147e9894",
        "a3dca298c03bac383dd39f411ba8d9bf281212d9bda3dae5c24357032aae729b",
    ),
}


#: (workload, scheme) -> :func:`token_digest` of the traced run's pack at
#: :data:`GOLDEN_SCALES`, on a little-endian host: the pin on the
#: interpreter's dependence recording, which the encoding does not hold.
GOLDEN_TOKENS = {
    ("compress", "advanced"): "dd829ba8ff61af3d08acbc22aef103138275f0f65b6cecf7767b3f81b9c82cbf",
    ("compress", "basic"): "1bdfb2922d5012cace22571f37c913a65bdf45e17938f26222c5a05783265dd6",
    ("compress", "conventional"): "eaa77ff468079ea437a0b55487e7043e66f068dab063070d10eb061639443510",
    ("ear", "advanced"): "d8362c21de6f2a562bdc92622f9e23949c0b780dcd90cc9470c2b7646ce7d8f3",
    ("ear", "basic"): "233db5ca47f409396bf2d0f4b3778124b17a44a4a36df94441c14bf63e569245",
    ("ear", "conventional"): "83363d59dfaa2e59c63aa6fcc3e2499ad17b09ae1c42f10275f63a76b8a44092",
    ("gcc", "advanced"): "4b727f2822177637e519073e66ca12722e1477ecf6c90a71213cdbe2356514df",
    ("gcc", "basic"): "d1727eb012bcf762079930b722843c649c59d350253a7a845c5932ca9adf4199",
    ("gcc", "conventional"): "dd71f27b057db117c1eb85266782e4bf567dc6a653c43cb67991a77c687fb446",
    ("go", "advanced"): "580149389d1d27c87d24ffb9d6a8afef8a507b412d8004d3956ca0e7598ef3f0",
    ("go", "basic"): "e2d9ce1a8d89f677db978abb09a1f6483c9d8b6eb3b72f0919bf1f20c1d3a636",
    ("go", "conventional"): "d189aa9dd788df90e4757fd56e92c45d137725e2717c7043370b4edf5fb36b34",
    ("ijpeg", "advanced"): "61f53d884f55c3ce0e924807a08b45358430a1c253f11e338a0dddd201ffc9a6",
    ("ijpeg", "basic"): "29139e38f1668414c9a64d56349f535534e3cf9fe5d9ddd5702ff20d5bba1c72",
    ("ijpeg", "conventional"): "d1867cf5761f245b3e9221874d7e23e3e06516aa544877a371cf31b714c4e7c7",
    ("li", "advanced"): "7b32a5fa35f2631b0c908ed3f63e4da8b64d82815490598819632548612c2dfd",
    ("li", "basic"): "4fcb21ad95bd70b4a9478a4d4fee7ff2e0387ee2708030a57bef3efa81502042",
    ("li", "conventional"): "d652336616ea5db75762e8907775a2113112d5be11a2ce3b5b6d87aa38a51872",
    ("m88ksim", "advanced"): "5496e6a0ddeb8a886411e0084fa28c31cc8d6d511ea45000d0f57941996e0a14",
    ("m88ksim", "basic"): "6efe3a834da1ac653411ac032d1bf6180dd5d9a0bd47be1f81faaf34d872d924",
    ("m88ksim", "conventional"): "dee6cb604bd27760c9a9355d57922d6e91cc7b3423a45d7bf2ff00d9f40568a3",
    ("perl", "advanced"): "1ee6d7d5dfc5b7f8e48f2b3c2eb3cd5d4ca5629df9fc02f6d947b71702ae18bb",
    ("perl", "basic"): "c1e7b3673bba9e9476d319b5b33dc6a6f8cde3b0a399aa1b31c4d79e9c1dbb31",
    ("perl", "conventional"): "327a5ada1d19ca224e3ec82c652c592999fb372dcfa9965d81ab2ab39a28779b",
    ("swim", "advanced"): "7b38b634ca0c79d92348765a9d6ec69bd4907c68f15672981372f6cc3c811f38",
    ("swim", "basic"): "ad61a188d0e5373ce2c051e2467c1800419e267bed08e345d5ab4203ecffd0e5",
    ("swim", "conventional"): "d787a07d6e47433cb9042a296648165635b964d3622294f8af6989f96dd68dc9",
}

#: A fresh pack's dependence recording: the columns the interpreter
#: writes and :meth:`~repro.trace.pack.PackedTrace.unpack_entries` reads.
TOKEN_COLUMNS = (
    "read_offsets",
    "read_tokens",
    "write_offsets",
    "write_tokens",
    "token_frames",
    "token_names",
)


def token_digest(pack) -> str:
    """sha256 of a fresh pack's token and offset columns and name table."""
    digest = hashlib.sha256()
    for name in TOKEN_COLUMNS:
        column = getattr(pack, name)
        digest.update(f"{name}:{column.typecode}:{len(column)}:".encode())
        digest.update(column)
    digest.update(json.dumps(pack.names).encode())
    return digest.hexdigest()


def _traced(workload: str, scheme: str, scale: int):
    program = prepare_program(workload, scheme, scale=scale).program
    return program, run_program(program, collect_trace=True)


def test_golden_covers_every_workload_and_scheme():
    assert set(GOLDEN_SCALES) == set(WORKLOADS)
    assert set(GOLDEN) == {(w, s) for w in WORKLOADS for s in SCHEMES}
    assert set(GOLDEN_TOKENS) == set(GOLDEN)


@pytest.mark.skipif(sys.byteorder != "little", reason="digest pins little-endian arrays")
@pytest.mark.parametrize("workload,scheme", sorted(GOLDEN))
def test_pack_and_profile_are_pinned(workload, scheme):
    _, run = _traced(workload, scheme, GOLDEN_SCALES[workload])
    pack_digest, profile_digest = GOLDEN[workload, scheme]
    assert hashlib.sha256(run.packed.to_bytes()).hexdigest() == pack_digest
    counts = repr(list(run.profile.counts.items())).encode()
    assert hashlib.sha256(counts).hexdigest() == profile_digest


@pytest.mark.skipif(sys.byteorder != "little", reason="digest pins little-endian arrays")
@pytest.mark.parametrize("workload,scheme", sorted(GOLDEN_TOKENS))
def test_token_columns_are_pinned(workload, scheme):
    _, run = _traced(workload, scheme, GOLDEN_SCALES[workload])
    assert token_digest(run.packed) == GOLDEN_TOKENS[workload, scheme]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_unpack_repack_round_trip(workload, scheme):
    program, run = _traced(workload, scheme, SMOKE[workload])
    packed = run.packed
    repacked = pack_entries(packed.unpack_entries(program), value=packed.value)
    assert repacked.to_bytes() == packed.to_bytes()
    assert token_digest(repacked) == token_digest(packed)
