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
        "51187c859750e5312d082f2fea19f89dff5174d3b222142aff10e6e6a9bc2cb4",
        "1237e648df1e4a8df641ca1e51b2c52d466d508ecff801171e10007987123c54",
    ),
    ("compress", "basic"): (
        "ba07e78d75100dc9d219a1192bf1985952de8a2a5cf23f2650c6d8c2d6f75963",
        "1237e648df1e4a8df641ca1e51b2c52d466d508ecff801171e10007987123c54",
    ),
    ("compress", "conventional"): (
        "595fb2222765f0d7ac80836eb1399ffbff3a816384142739c500ba8a4782f122",
        "1237e648df1e4a8df641ca1e51b2c52d466d508ecff801171e10007987123c54",
    ),
    ("ear", "advanced"): (
        "8b8277676deda0ef31a95011f2521497c881932f67eab4be916577032a8646cf",
        "c9372d3978336cd6807865faf7ab0f82908be19f6f65ec7deb0bdf0ba97e3a1f",
    ),
    ("ear", "basic"): (
        "63d65597c9923f2257276a014b3f288981c1673ee2d1aaf845a027f4d02768a1",
        "c9372d3978336cd6807865faf7ab0f82908be19f6f65ec7deb0bdf0ba97e3a1f",
    ),
    ("ear", "conventional"): (
        "7d0c572846c182aac2db222662cd984db3a1a4627e619ae842ff2ff5aa16994f",
        "c9372d3978336cd6807865faf7ab0f82908be19f6f65ec7deb0bdf0ba97e3a1f",
    ),
    ("gcc", "advanced"): (
        "657b94404fde9d7f7848c02598f031a47496ddb0cbbdf378c2ae610fc2f01bdd",
        "b4f19ee7bb2ab32711a6ca06e3f59ee843d573d8b4e3a4d9b825288341503cc4",
    ),
    ("gcc", "basic"): (
        "76f64fc9c10abb6807d9879d3f93984278822c36d20b9c59d75d278ba7bd58f8",
        "b4f19ee7bb2ab32711a6ca06e3f59ee843d573d8b4e3a4d9b825288341503cc4",
    ),
    ("gcc", "conventional"): (
        "cae1969be9fc835f3b01f63567361523982a1d1c90ccade236470234211b82cf",
        "b4f19ee7bb2ab32711a6ca06e3f59ee843d573d8b4e3a4d9b825288341503cc4",
    ),
    ("go", "advanced"): (
        "570e341ce6487bd4e59d32c63b1af780846c0a59b0806d6560e719122fd28962",
        "0284abf10ed9034f37961fd5350e30e389c003e857176ed1cd2bdab9b45bbdac",
    ),
    ("go", "basic"): (
        "4bd1b6feda2582e89e7932566313399669dc09c320e1242db9facb545333340a",
        "0284abf10ed9034f37961fd5350e30e389c003e857176ed1cd2bdab9b45bbdac",
    ),
    ("go", "conventional"): (
        "509f306b36c8787737fcc3cc982d07c54b3dd828d30196a2c095b479c3597295",
        "0284abf10ed9034f37961fd5350e30e389c003e857176ed1cd2bdab9b45bbdac",
    ),
    ("ijpeg", "advanced"): (
        "c50851fb99da914858b3be6389184c9926bd25fa146e9bc7f85de3c19d098e7c",
        "573bec2063747224c079c1bc6fd419d15e2b855d9c13773720f14d7390a863de",
    ),
    ("ijpeg", "basic"): (
        "be9a9492c6b136e3b2bab5e5a1caf8c10fe082927d2aa88882394c9b7f19420a",
        "573bec2063747224c079c1bc6fd419d15e2b855d9c13773720f14d7390a863de",
    ),
    ("ijpeg", "conventional"): (
        "7c180ffee5e676c65f4654f15a824ebdaa4ce949bcae024ba3d98f1c6b7825e8",
        "573bec2063747224c079c1bc6fd419d15e2b855d9c13773720f14d7390a863de",
    ),
    ("li", "advanced"): (
        "da4664a08c95a18d525c36c07805cefa36c1c3f27315d699abf71953e99723d4",
        "a7deff441eda7214be83d76b62b3dda6a84e24f4bf0702d319cd4cf6e60406e3",
    ),
    ("li", "basic"): (
        "07e6737ce3a463c75ab1616cc1b8259a860635ff6f335284c32b1313bef733ef",
        "a7deff441eda7214be83d76b62b3dda6a84e24f4bf0702d319cd4cf6e60406e3",
    ),
    ("li", "conventional"): (
        "5d2c3fe430c9af644ca11db0e6c03e09880be66993a630616000765fe0850815",
        "a7deff441eda7214be83d76b62b3dda6a84e24f4bf0702d319cd4cf6e60406e3",
    ),
    ("m88ksim", "advanced"): (
        "d5c53f0ff37eb4fe72e878d4335f300454b2dcb521330180316ef6c54bb4eaa3",
        "1517aae10808c8e923c7b55475bfb7e74420f8b75c04b854e3d5664cf4df3336",
    ),
    ("m88ksim", "basic"): (
        "8496c98e05a523d9e95f3c0344e09539dfc3d6252b44f2e2ea0a157e21843d7e",
        "1517aae10808c8e923c7b55475bfb7e74420f8b75c04b854e3d5664cf4df3336",
    ),
    ("m88ksim", "conventional"): (
        "bbccc14e8f3d1e7d42262686d3924597edd437fec64714edc7e01f2e97e46c7f",
        "1517aae10808c8e923c7b55475bfb7e74420f8b75c04b854e3d5664cf4df3336",
    ),
    ("perl", "advanced"): (
        "73536f9e3d2d6d74655ba76931efe7a28026f97479c33fa4a948399e78efa9e5",
        "14d319f47432c73a9f781b1a1247b25da745ec1fd3ce933e1f7849f190e7ccfd",
    ),
    ("perl", "basic"): (
        "61a41c6a4fcf37aa64f13803a312ba148e4034b2b817088fa3f4b7dfa9edf091",
        "14d319f47432c73a9f781b1a1247b25da745ec1fd3ce933e1f7849f190e7ccfd",
    ),
    ("perl", "conventional"): (
        "63ff2338d399b3c3077ea7812944505edafe0111ddf06568f73b1f5d21a8775f",
        "14d319f47432c73a9f781b1a1247b25da745ec1fd3ce933e1f7849f190e7ccfd",
    ),
    ("swim", "advanced"): (
        "e8240aafc0138edbc5eeb432fee80a32446ce32e2a51bb5859e291e65b088aaf",
        "a3dca298c03bac383dd39f411ba8d9bf281212d9bda3dae5c24357032aae729b",
    ),
    ("swim", "basic"): (
        "f26ca637b190a775c08cec9a081cccbbc9788005b616933577d00015dba6c639",
        "a3dca298c03bac383dd39f411ba8d9bf281212d9bda3dae5c24357032aae729b",
    ),
    ("swim", "conventional"): (
        "371816e7d3f3d1ed93bd209e59cf06dfe729ebe07f953f141fd0394d0ac8e116",
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
