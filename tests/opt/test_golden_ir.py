"""The optimized IR of the paper surrogates and of generated programs,
pinned byte for byte.

:data:`GOLDEN` holds the SHA-256 of ``print_program`` for every paper
surrogate at its default scale and at the scales the wall-clock
benchmark runs the Figure 9 cells at; :data:`GOLDEN_CATALOG` covers a
fixed slice of generator seeds.  They were computed with the optimizer
whose round loop ran until no pass reported a change (or 8 rounds), so
any change to how the optimizer stops or what a pass emits must keep
these bytes.  Run this file as a script to print the current digests.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.gen.build import build_program
from repro.ir.printer import print_program
from repro.minic.compile import compile_source
from repro.workloads import compile_workload

#: The reduced scales of the benchmark's Figure 9 cells
#: (``BENCH_SCALES`` in ``perfbench/worker.py``).
BENCH_SCALES = {
    "compress": 150,
    "gcc": 1,
    "go": 1,
    "ijpeg": 1,
    "li": 3,
    "m88ksim": 2,
    "perl": 1,
}

#: Every fifth of the 200 generator seeds in ``perfbench/fuzz_catalog.json``.
CATALOG_SLICE = range(0, 200, 5)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def surrogate_digest(name: str, scale: int | None) -> str:
    return _sha(print_program(compile_workload(name, scale)))


def catalog_digest() -> str:
    texts = [
        print_program(compile_source(build_program(seed), optimize=True))
        for seed in CATALOG_SLICE
    ]
    return _sha("\n".join(texts))


#: (workload, scale or None for the default) -> digest of the optimized IR.
GOLDEN = {
    ("compress", None): (
        "f6242d905458dfd59a2f12d927a516d1f351a4cc4a0db7e9e13a42373e1d2b69"
    ),
    ("compress", 150): (
        "35ae56142f6bf7e022d7511924ac834678d40dff4f282dff19adb55cdbeca5cf"
    ),
    ("ear", None): (
        "5cf3598ae196a2de44894ba00f3d089424fafe77b4150ab9ec28b7050550aaed"
    ),
    ("gcc", None): (
        "8b59aa86e829778fc112f7385b845b0fdfb57a5bacc35534924401571b0c5674"
    ),
    ("gcc", 1): (
        "12d25d7d5fa1249365dd894f1a17de12dbda26790cc93b93323ebf000a3e4b1a"
    ),
    ("go", None): (
        "5fa1e5f793fe83bfc65e2b6a6c99b178851099fa493b766c64ce25773824d582"
    ),
    ("go", 1): (
        "4708e5a24a346aed36680eaac2ef4556e6136b595d01e0f60568e1dffba40006"
    ),
    ("ijpeg", None): (
        "c79d400ab5f28f7ce35068deeb835d5e91cd0abe62484010911e1c44fc41eff3"
    ),
    ("ijpeg", 1): (
        "ba029d589d0984799b9474e1c6abdc0468fd26762306522ffbf83aa09c55be8d"
    ),
    ("li", None): (
        "50e2a79c6dbdadc0d7dbe76c0a5075e81b1fd6177dc5395088b24471cffb62dc"
    ),
    ("li", 3): (
        "7310c60ef139b262c6f60c6ab4691f52638cc5079ccccfa3e1839a56dac35788"
    ),
    ("m88ksim", None): (
        "ebe26b98ec7dcd7bb861b324443534f0797cdbcb568006bc108dbc6fc2389035"
    ),
    ("m88ksim", 2): (
        "492d2e26066475b263c58d12a8d9fb77f0f9727253a04a1c8ad446c849bc25a8"
    ),
    ("perl", None): (
        "a47b6317815b18ff36b06fcfb7f7b676eef524ec6ddffa4b96818930a2add57b"
    ),
    ("perl", 1): (
        "139181c3debefc5298d2cd703945002de6e6ab093e87189d17f26992fe5617ac"
    ),
    ("swim", None): (
        "d60d96c9176c8ba32475a030472d7c159426f101c753c097271e16539595e954"
    ),
}

GOLDEN_CATALOG = (
    "01ab25ee2df0ec54ca615e99067ead65613b1cc9e6a91dd8c9f5fe153be4b907"
)


@pytest.mark.parametrize("name,scale", list(GOLDEN))
def test_surrogate_ir_is_pinned(name, scale):
    assert surrogate_digest(name, scale) == GOLDEN[(name, scale)]


def test_catalog_slice_ir_is_pinned():
    assert catalog_digest() == GOLDEN_CATALOG


if __name__ == "__main__":
    for key in GOLDEN:
        print(f"    {key!r}: {surrogate_digest(*key)!r},")
    print(f"GOLDEN_CATALOG = {catalog_digest()!r}")
