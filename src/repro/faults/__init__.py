"""Deterministic fault injection for the experiment pipeline.

The benchmark pipeline is a long chain of deterministic stages; proving
that the harness survives a crashed worker, a hang, or a corrupted cache
entry requires *causing* those events on demand and reproducibly.  This
package injects faults at named pipeline-stage boundaries, driven by the
``REPRO_FAULTS`` environment variable::

    REPRO_FAULTS="execute:crash:match=m88ksim;simulate:hang:secs=60"

See :mod:`repro.faults.spec` for the grammar and
``docs/robustness.md`` for the failure model.  With ``REPRO_FAULTS``
unset, every fault point is a near-free no-op — production runs pay one
dict lookup per stage boundary.

Injection is *per process*: worker processes parse the spec themselves,
each with its own ``times=`` budgets, so a given spec produces the same
faults run after run.
"""

from __future__ import annotations

from repro.faults.inject import (
    FaultInjector,
    active_injector,
    corrupt_point,
    fault_point,
    reset_faults,
)
from repro.faults.spec import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultClause,
    parse_spec,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultClause",
    "FaultInjector",
    "active_injector",
    "corrupt_point",
    "fault_point",
    "parse_spec",
    "reset_faults",
]
