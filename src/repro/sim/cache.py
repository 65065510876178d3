"""Set-associative LRU cache model.

Timing-only (no data): an access returns its latency and updates tag
state.  The pipeline uses it as the D-cache (per load/store issue).
The I-cache is not accessed while simulating: trace-driven fetch visits
the trace in program order, so each entry's I-cache miss is resolved
once per pack, by
:meth:`~repro.trace.pack.PackedTrace.front_end_events`, which inlines
this class's LRU update for line changes only.  This class remains the
I-cache of the reference simulator and of the tests' per-entry walk.
"""

from __future__ import annotations

from repro.sim.config import CacheConfig


class Cache:
    """One cache level.

    LRU is tracked per set with an ordered list of tags
    (most-recently-used last); set counts are small (2-way in the
    paper's machines) so list operations are cheap.
    """

    __slots__ = (
        "config",
        "_sets",
        "_offset_bits",
        "_index_mask",
        "hits",
        "misses",
    )

    def __init__(self, config: CacheConfig):
        self.config = config
        self._sets: list[list[int]] = [[] for _ in range(config.n_sets)]
        self._offset_bits = config.line_bytes.bit_length() - 1
        self._index_mask = config.n_sets - 1
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> int:
        """Access ``addr``; returns latency in cycles (hit time, or hit
        time plus miss penalty) and updates tag/LRU state."""
        line = addr >> self._offset_bits
        index = line & self._index_mask
        tag = line >> (self._index_mask.bit_length())
        ways = self._sets[index]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.hits += 1
            return self.config.hit_cycles
        self.misses += 1
        ways.append(tag)
        if len(ways) > self.config.assoc:
            ways.pop(0)
        return self.config.hit_cycles + self.config.miss_penalty

    def probe(self, addr: int) -> bool:
        """True if ``addr`` currently hits (no state change)."""
        line = addr >> self._offset_bits
        index = line & self._index_mask
        tag = line >> (self._index_mask.bit_length())
        return tag in self._sets[index]

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0
