"""The injector: fault points, firing decisions, and fault actions.

Pipeline code calls :func:`fault_point` at stage boundaries and
:func:`corrupt_point` where data crosses a trust boundary (e.g. a disk
cache read).  Both are no-ops unless ``REPRO_FAULTS`` is set.

The active injector is built lazily from the environment and cached on
the spec text, so tests can flip ``REPRO_FAULTS`` with ``monkeypatch``
and get a fresh injector each time.  ``times=`` budgets are per
process.
"""

from __future__ import annotations

import os
import time

from repro.errors import FaultInjected
from repro.faults.spec import FaultClause, parse_spec, resolve_error_type

#: Environment variable holding the fault spec.
FAULTS_ENV = "REPRO_FAULTS"

#: Exit status used by ``crash`` faults (distinctive in worker logs).
CRASH_EXIT_CODE = 13


class FaultInjector:
    """Evaluates parsed clauses at fault points, statefully."""

    def __init__(self, clauses: tuple[FaultClause, ...]):
        self.clauses = clauses
        self.fired: list[int] = [0] * len(clauses)

    def select(
        self, site: str, label: str = "", *, corrupt: bool = False
    ) -> FaultClause | None:
        """The first clause that fires at ``site`` for ``label``, if any.

        Consumes the clause's ``times`` budget.  ``corrupt`` selects
        between data corruption clauses and the error/hang/crash kinds,
        so a clause never burns its budget at a point that would ignore
        it.
        """
        for index, clause in enumerate(self.clauses):
            if clause.site != site or (clause.kind == "corrupt") != corrupt:
                continue
            if clause.match is not None and clause.match not in label:
                continue
            if clause.times is not None and self.fired[index] >= clause.times:
                continue
            self.fired[index] += 1
            return clause
        return None


#: (spec text, injector) — rebuilt whenever the env var's value changes.
_cached: tuple[str, FaultInjector] | None = None


def active_injector() -> FaultInjector | None:
    """The injector for the current ``REPRO_FAULTS`` value, or ``None``."""
    global _cached
    text = os.environ.get(FAULTS_ENV, "").strip()
    if not text or text == "0":
        _cached = None
        return None
    if _cached is None or _cached[0] != text:
        _cached = (text, FaultInjector(parse_spec(text)))
    return _cached[1]


def reset_faults() -> None:
    """Drop injector state (``times`` budgets); tests."""
    global _cached
    _cached = None


def fault_point(site: str, label: str = "") -> None:
    """Execute any fault configured for ``site`` (error/hang/crash).

    ``corrupt`` clauses are ignored here — they only make sense where a
    value flows through :func:`corrupt_point`.
    """
    injector = active_injector()
    if injector is None:
        return
    clause = injector.select(site, label)
    if clause is None:
        return
    where = f"{site} ({label})" if label else site
    if clause.kind == "hang":
        time.sleep(clause.secs)
        return
    if clause.kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    error_cls = resolve_error_type(clause.error_type)
    message = f"injected {clause.error_type} at {where}"
    if error_cls is FaultInjected:
        raise FaultInjected(message, site=site)
    raise error_cls(message)


def corrupt_point(site: str, entry, label: str = ""):
    """Return ``entry``, scrambled if a ``corrupt`` clause fires here.

    Corruption is shaped to the value crossing the trust boundary:

    * ``dict`` (a decoded cache entry) — the envelope is kept (so cheap
      integrity checks pass) but the payload is destroyed, modelling a
      torn entry that decodes as JSON yet holds no usable result;
    * ``bytes`` (a raw trace pack) — deterministic bit flips spread
      through the buffer, modelling on-disk rot that the decoder's
      checksum must catch.
    """
    injector = active_injector()
    if injector is None:
        return entry
    clause = injector.select(site, label, corrupt=True)
    if clause is None:
        return entry
    if isinstance(entry, (bytes, bytearray)):
        if not entry:
            return entry
        corrupted_bytes = bytearray(entry)
        step = max(1, len(corrupted_bytes) // 8)
        for index in range(0, len(corrupted_bytes), step):
            corrupted_bytes[index] ^= 0xFF
        return bytes(corrupted_bytes)
    corrupted = dict(entry)
    corrupted["result"] = {"__corrupted__": True}
    return corrupted
