"""Declarative generator specs: ``gen:<generator>?axis=value&...``.

A :class:`GeneratorSpec` names a registered MiniC program generator plus
a point in its axis space.  The spec *string* form is accepted anywhere
a workload name is today — ``repro bench``, ``repro lint workload:...``
(via ``gen:`` directly), the trace and result cache keys — so an
unbounded family of programs rides the existing cell machinery.

Sweepable axes (every generator consumes the subset it documents):

=========  ======================================================
``seed``   RNG seed keying all structural choices (int >= 0)
``calls``  call density: fraction of kernel work behind calls
``branch`` branch-slice weight: fraction of branchy kernels
``ldst``   load/store fraction: array-traffic weight
``fp``     genuine floating-point fraction
``depth``  loop nesting depth (1..4)
``scale``  default workload scale (positive int; a bench cell's
           ``scale`` still overrides it, like any workload)
=========  ======================================================

Spec strings have one canonical spelling — axes sorted by name, floats
normalized by ``repr`` — produced by :meth:`GeneratorSpec.canonical`.
Parsing is strict: unknown generators, unknown axes, malformed or
out-of-range values all raise :class:`~repro.errors.WorkloadError` with
the documented grammar, so a typo in a bench matrix fails loudly
instead of silently generating the wrong program.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import WorkloadError

#: Prefix marking a generator spec wherever workload names are accepted.
GEN_PREFIX = "gen:"

#: Fraction axes, validated into [0, 1].
_FRACTION_AXES = ("calls", "branch", "ldst", "fp")


@dataclass(frozen=True, slots=True)
class GeneratorSpec:
    """One point of a generator's axis space (defaults are per-axis)."""

    generator: str
    seed: int = 0
    calls: float = 0.25
    branch: float = 0.35
    ldst: float = 0.4
    fp: float = 0.0
    depth: int = 2
    scale: int = 120

    def __post_init__(self) -> None:
        from repro.gen.emit import GENERATORS

        if self.generator not in GENERATORS:
            raise WorkloadError(
                f"unknown generator {self.generator!r}; "
                f"available: {sorted(GENERATORS)}"
            )
        if not isinstance(self.seed, int) or self.seed < 0:
            raise WorkloadError(f"generator seed must be a non-negative int, got {self.seed!r}")
        for axis in _FRACTION_AXES:
            value = getattr(self, axis)
            if not isinstance(value, float) or not 0.0 <= value <= 1.0:
                raise WorkloadError(
                    f"generator axis {axis!r} must be a float in [0, 1], got {value!r}"
                )
        if not isinstance(self.depth, int) or not 1 <= self.depth <= 4:
            raise WorkloadError(f"generator axis 'depth' must be an int in [1, 4], got {self.depth!r}")
        if not isinstance(self.scale, int) or self.scale <= 0:
            raise WorkloadError(f"generator axis 'scale' must be a positive int, got {self.scale!r}")

    # -- spec-string codec ------------------------------------------------
    def canonical(self) -> str:
        """The canonical ``gen:...`` spelling of this spec.

        Only axes that differ from their defaults are spelled out, in
        sorted order, so equal specs have equal strings (and therefore
        equal cache keys when used as workload names).
        """
        parts = []
        for field in sorted(fields(self), key=lambda f: f.name):
            if field.name == "generator":
                continue
            value = getattr(self, field.name)
            if value == field.default:
                continue
            parts.append(f"{field.name}={_axis_text(value)}")
        query = "&".join(parts)
        return f"{GEN_PREFIX}{self.generator}" + (f"?{query}" if query else "")

    @classmethod
    def parse(cls, spec: str) -> "GeneratorSpec":
        """Parse a ``gen:<generator>?axis=value&...`` spec string."""
        if not spec.startswith(GEN_PREFIX):
            raise WorkloadError(
                f"generator spec must start with {GEN_PREFIX!r}, got {spec!r}"
            )
        body = spec[len(GEN_PREFIX):]
        generator, _, query = body.partition("?")
        if not generator:
            raise WorkloadError(
                f"empty generator name in {spec!r}; expected "
                "gen:<generator>?axis=value&..."
            )
        axes: dict[str, int | float] = {}
        known = {f.name: f for f in fields(cls) if f.name != "generator"}
        if query:
            for item in query.split("&"):
                name, sep, text = item.partition("=")
                if not sep or not name or not text:
                    raise WorkloadError(
                        f"malformed axis {item!r} in {spec!r}; expected axis=value"
                    )
                if name not in known:
                    raise WorkloadError(
                        f"unknown generator axis {name!r} in {spec!r}; "
                        f"axes: {sorted(known)}"
                    )
                if name in axes:
                    raise WorkloadError(f"duplicate axis {name!r} in {spec!r}")
                axes[name] = _axis_value(name, text, spec)
        return cls(generator=generator, **axes)


def _axis_text(value: int | float) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _axis_value(name: str, text: str, spec: str) -> int | float:
    if name in _FRACTION_AXES:
        try:
            return float(text)
        except ValueError:
            raise WorkloadError(
                f"axis {name!r} in {spec!r} needs a float, got {text!r}"
            ) from None
    try:
        return int(text)
    except ValueError:
        raise WorkloadError(
            f"axis {name!r} in {spec!r} needs an integer, got {text!r}"
        ) from None


def is_generator_spec(name: str) -> bool:
    """True when ``name`` is spelled as a generator spec (may still fail
    to parse — use :meth:`GeneratorSpec.parse` for validation)."""
    return name.startswith(GEN_PREFIX)


__all__ = ["GEN_PREFIX", "GeneratorSpec", "is_generator_spec"]
