"""Machine configurations (paper Table 1).

Two standard machines:

* :func:`four_way` — 4-way fetch/decode/retire, 2 INT + 2 FP units,
  32-entry windows, 32 in-flight, 48+48 physical registers, one
  load/store port.
* :func:`eight_way` — 8-way, 4 INT + 4 FP units, 64 in-flight, 80+80
  physical registers, two load/store ports.

Shared parameters: 64 KB 2-way I-cache with 128-byte lines, 32 KB 2-way
D-cache with 32-byte lines, both 1-cycle hit / 6-cycle miss penalty;
McFarling gshare with 32 K 2-bit counters and 15-bit global history;
unconditional control flow predicted perfectly; 6-cycle multiply,
12-cycle divide, everything else single-cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError, SimulationError
from repro.trace.pack import NO_PRODUCER, FrontEnd


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Set-associative cache geometry and timing."""

    size_bytes: int
    assoc: int
    line_bytes: int
    hit_cycles: int = 1
    miss_penalty: int = 6

    def __post_init__(self) -> None:
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise SimulationError("cache size not divisible by assoc * line size")
        n_sets = self.size_bytes // (self.assoc * self.line_bytes)
        if n_sets & (n_sets - 1):
            raise SimulationError("cache set count must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(frozen=True, slots=True)
class PredictorConfig:
    """gshare geometry: 2-bit counters indexed by pc XOR global history."""

    counter_bits: int = 2
    table_entries: int = 32 * 1024
    history_bits: int = 15
    perfect_unconditional: bool = True


@dataclass(frozen=True, slots=True)
class MachineConfig:
    """One machine of Table 1."""

    name: str
    fetch_width: int
    decode_width: int
    retire_width: int
    int_window: int
    fp_window: int
    max_inflight: int
    int_units: int
    fp_units: int
    ls_ports: int
    phys_int: int
    phys_fp: int
    mul_latency: int = 6
    div_latency: int = 12
    mispredict_redirect: int = 1
    icache: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 2, 128)
    )
    dcache: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 2, 32)
    )
    predictor: PredictorConfig = field(default_factory=PredictorConfig)

    def __post_init__(self) -> None:
        # the simulator waits on producers up to max_inflight back, read
        # from distance columns clipped at NO_PRODUCER: a window that
        # reaches the clip would take "no producer" for a real one
        if self.max_inflight >= NO_PRODUCER:
            raise ReproError(
                f"max_inflight must be below {NO_PRODUCER}, got {self.max_inflight}"
            )

    def front_end(self, perfect_branches: bool = False) -> FrontEnd:
        """The key of this machine's fetch events on a pack (see
        :meth:`~repro.trace.pack.PackedTrace.front_end_events`)."""
        return FrontEnd(
            self.icache.line_bytes,
            self.icache.n_sets,
            self.icache.assoc,
            self.predictor.table_entries,
            self.predictor.history_bits,
            perfect_branches,
        )

    @property
    def rename_int(self) -> int:
        """Physical integer registers available for renaming (beyond the
        32 architectural ones)."""
        return self.phys_int - 32

    @property
    def rename_fp(self) -> int:
        return self.phys_fp - 32


def four_way(**overrides) -> MachineConfig:
    """The paper's 4-way (2 int + 2 fp) machine."""
    base = dict(
        name="4-way",
        fetch_width=4,
        decode_width=4,
        retire_width=4,
        int_window=32,
        fp_window=32,
        max_inflight=32,
        int_units=2,
        fp_units=2,
        ls_ports=1,
        phys_int=48,
        phys_fp=48,
    )
    base.update(overrides)
    return MachineConfig(**base)


def eight_way(**overrides) -> MachineConfig:
    """The paper's 8-way (4 int + 4 fp) machine."""
    base = dict(
        name="8-way",
        fetch_width=8,
        decode_width=8,
        retire_width=8,
        int_window=32,
        fp_window=32,
        max_inflight=64,
        int_units=4,
        fp_units=4,
        ls_ports=2,
        phys_int=80,
        phys_fp=80,
    )
    base.update(overrides)
    return MachineConfig(**base)


def config_for_width(width: int) -> MachineConfig:
    """The Table 1 machine of issue width ``width`` (4 or 8)."""
    if width == 4:
        return four_way()
    if width == 8:
        return eight_way()
    raise ReproError(f"width must be 4 or 8, got {width}")
