"""The ``REPRO_FAULTS`` specification grammar.

A spec is a ``;``-separated list of clauses::

    spec    := clause (";" clause)*
    clause  := site ":" kind (":" key "=" value)*

``site`` names a pipeline-stage boundary (see :data:`FAULT_SITES`),
``kind`` selects what happens when the clause fires:

========  ==========================================================
kind      effect at the fault point
========  ==========================================================
error     raise an exception (``type=<ReproError subclass>``,
          default ``FaultInjected``)
hang      ``time.sleep(secs)`` (default 30) — exercises timeouts
crash     ``os._exit(13)`` — kills the worker process outright
corrupt   scramble the value flowing through a ``corrupt_point``
          (only honoured at data boundaries such as ``cache.get``
          and ``trace_pack``)
========  ==========================================================

Per-clause parameters:

``times=<int>``
    Maximum number of firings per process (default unlimited), e.g.
    ``cache.get:corrupt:times=1`` scrambles only the first cache read.
``match=<substring>``
    Only fire when the fault point's label contains the substring.
    Pipeline fault points use ``<workload>/<scheme>`` labels (so
    ``match=m88ksim`` hits every scheme and ``match=m88ksim/advanced``
    just one); ``cache.get`` uses the cache key and ``trace_pack``
    the ``<workload>/<scheme>`` label of the trace being read.
``secs=<float>``
    Sleep duration for ``hang`` clauses.
``type=<name>``
    Exception class for ``error`` clauses; any subclass of
    :class:`~repro.errors.ReproError` by name, e.g.
    ``type=PartitionError``.

Example — crash every ``m88ksim`` worker, time out one ``compress``
simulation, and make the first disk-cache read corrupt::

    REPRO_FAULTS="execute:crash:match=m88ksim;\
simulate:hang:secs=60:match=compress;cache.get:corrupt:times=1"
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError

#: Named pipeline-stage boundaries that host a fault point.
FAULT_SITES = (
    "partition",
    "execute",
    "simulate",
    "cache.get",
    "trace_pack",
)

#: What a firing clause does.
FAULT_KINDS = ("error", "hang", "crash", "corrupt")


@dataclass(frozen=True, slots=True)
class FaultClause:
    """One parsed ``site:kind[:key=value...]`` clause."""

    site: str
    kind: str
    times: int | None = None
    match: str | None = None
    secs: float = 30.0
    error_type: str = "FaultInjected"

    def describe(self) -> str:
        parts = [f"{self.site}:{self.kind}"]
        if self.times is not None:
            parts.append(f"times={self.times}")
        if self.match:
            parts.append(f"match={self.match}")
        return ":".join(parts)


def _parse_float(value: str, what: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ReproError(f"REPRO_FAULTS: {what} must be a number, got {value!r}")


def _parse_clause(text: str) -> FaultClause:
    fields = text.split(":")
    if len(fields) < 2:
        raise ReproError(
            f"REPRO_FAULTS: clause {text!r} must be 'site:kind[:key=value...]'"
        )
    site, kind = fields[0].strip(), fields[1].strip()
    if site not in FAULT_SITES:
        raise ReproError(
            f"REPRO_FAULTS: unknown site {site!r}; available: {FAULT_SITES}"
        )
    if kind not in FAULT_KINDS:
        raise ReproError(
            f"REPRO_FAULTS: unknown kind {kind!r}; available: {FAULT_KINDS}"
        )
    kwargs: dict = {}
    for param in fields[2:]:
        key, sep, value = param.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not value:
            raise ReproError(
                f"REPRO_FAULTS: parameter {param!r} must be 'key=value'"
            )
        if key == "times":
            try:
                times = int(value)
            except ValueError:
                raise ReproError(f"REPRO_FAULTS: times must be an int, got {value!r}")
            if times < 1:
                raise ReproError(f"REPRO_FAULTS: times must be >= 1, got {times}")
            kwargs["times"] = times
        elif key == "match":
            kwargs["match"] = value
        elif key == "secs":
            secs = _parse_float(value, "secs")
            if secs < 0:
                raise ReproError(f"REPRO_FAULTS: secs must be >= 0, got {value}")
            kwargs["secs"] = secs
        elif key == "type":
            kwargs["error_type"] = value
        else:
            raise ReproError(f"REPRO_FAULTS: unknown parameter {key!r} in {text!r}")
    if "error_type" in kwargs:
        resolve_error_type(kwargs["error_type"])  # fail fast on bad names
    return FaultClause(site, kind, **kwargs)


def parse_spec(text: str) -> tuple[FaultClause, ...]:
    """Parse a full ``REPRO_FAULTS`` value into its clauses, in order;
    raises :class:`ReproError`."""
    clauses = tuple(
        _parse_clause(part.strip()) for part in text.split(";") if part.strip()
    )
    if not clauses:
        raise ReproError("REPRO_FAULTS: spec contains no fault clauses")
    return clauses


def resolve_error_type(name: str) -> type[ReproError]:
    """Look up a :class:`ReproError` subclass by name (``error`` clauses)."""
    from repro import errors

    cls = getattr(errors, name, None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        raise ReproError(
            f"REPRO_FAULTS: type={name!r} is not a ReproError subclass"
        )
    return cls
