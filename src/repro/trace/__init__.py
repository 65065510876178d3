"""Trace capture/replay: columnar packing, on-disk store, replay pool.

The interpreter's dynamic trace depends only on (workload, scheme,
partition options, code version) — not on the machine configuration —
so a sweep over machine configs can interpret each program **once** and
replay the packed trace everywhere else.  See :mod:`repro.trace.pack`
for the columnar format and :mod:`repro.trace.store` for the
``REPRO_TRACE_CACHE`` store and in-process pool.
"""

from repro.trace.pack import (
    TRACE_FORMAT_VERSION,
    PackedTrace,
    pack_entries,
    program_fingerprint,
)
from repro.trace.store import (
    TRACE_CACHE_ENV,
    TraceStore,
    clear_trace_pool,
    load_trace,
    store_trace,
    trace_key,
    trace_pool,
)

__all__ = [
    "TRACE_CACHE_ENV",
    "TRACE_FORMAT_VERSION",
    "PackedTrace",
    "TraceStore",
    "clear_trace_pool",
    "load_trace",
    "pack_entries",
    "program_fingerprint",
    "store_trace",
    "trace_key",
    "trace_pool",
]
