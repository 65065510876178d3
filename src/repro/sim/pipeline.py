"""Trace-driven out-of-order pipeline model.

The model replays a dynamic trace through a superscalar pipeline with the
stage structure of Figure 1: shared fetch/decode, then partitioned INT
and FP(a) subsystems, each with its own issue window and functional
units.  All memory instructions flow through the INT subsystem's
load/store port(s) regardless of which register file their data targets
(``l.s``/``s.s`` included), matching the paper's machine.

Per simulated cycle, in reverse pipeline order:

1. **Retire** — in order from the ROB head, up to the retire width;
   frees rename registers.
2. **Issue** — oldest-first out of each subsystem's window: an entry
   issues when its producers have completed, a functional unit of its
   class is free, and (loads/stores) a load/store port is free.  Loads
   additionally wait until every older in-flight store has computed its
   address, and until any older store to the same word has completed
   (store-to-load data dependence).
3. **Dispatch** — from the fetch buffer into the windows, up to the
   decode width, blocked by window space, the in-flight cap, and free
   rename registers of the destination's register class.
4. **Fetch** — up to the fetch width from the trace, stopping at taken
   control flow; I-cache misses stall fetch; conditional branches are
   predicted with gshare and a misprediction stalls fetch until the
   branch resolves (wrong-path work is not simulated, its cost is the
   fetch bubble — the standard trace-driven approximation).

The loop consumes a :class:`~repro.trace.pack.PackedTrace` — latency
and control classes pre-resolved per static row, dependence tokens as
dense integers — so the per-dynamic-instruction work is array indexing
and integer dict lookups.  A plain ``list[TraceEntry]`` is accepted too
and packed on entry (the compatibility adapter the differential tests
pin against).
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError
from repro.progress import report_progress
from repro.runtime.trace import TraceEntry
from repro.sim.branch_pred import GSharePredictor, PerfectPredictor
from repro.sim.cache import Cache
from repro.sim.config import MachineConfig
from repro.sim.stats import SimStats
from repro.trace.pack import (
    CTRL_BRANCH,
    CTRL_JUMP,
    LAT_DIV,
    LAT_LOAD,
    LAT_MUL,
    LAT_STORE,
    PackedTrace,
    pack_entries,
)


class _Dyn:
    """Pipeline bookkeeping for one dynamic instruction.

    Static properties (subsystem side, latency class, rename-register
    demand) arrive pre-resolved from the packed trace's static table —
    the constructor only copies integers.
    """

    __slots__ = (
        "entry",
        "seq",
        "producers",
        "complete",
        "issued",
        "lat_class",
        "is_load",
        "is_store",
        "is_mem",
        "fp_side",
        "int_defs",
        "fp_defs",
        "mem_addr",
        "fetched_at",
        "dispatched_at",
        "issued_at",
        "retired_at",
    )

    def __init__(
        self,
        seq: int,
        fp_side: bool,
        lat_class: int,
        int_defs: int,
        fp_defs: int,
        mem_addr: int,
        entry: TraceEntry | None,
    ):
        self.seq = seq
        self.fp_side = fp_side
        self.lat_class = lat_class
        self.is_load = lat_class == LAT_LOAD
        self.is_store = lat_class == LAT_STORE
        self.is_mem = self.is_load or self.is_store
        self.int_defs = int_defs
        self.fp_defs = fp_defs
        self.mem_addr = mem_addr
        self.entry = entry
        self.producers: list[_Dyn] = []
        self.complete: int | None = None
        self.issued = False
        self.fetched_at = -1
        self.dispatched_at = -1
        self.issued_at = -1
        self.retired_at = -1


class TimingSimulator:
    """Simulates one trace on one machine configuration."""

    def __init__(
        self,
        config: MachineConfig,
        perfect_branches: bool = False,
        record_timeline: bool = False,
    ):
        self.config = config
        self.icache = Cache(config.icache)
        self.dcache = Cache(config.dcache)
        self.perfect_branches = perfect_branches
        if perfect_branches:
            self.predictor = PerfectPredictor(config.predictor)
        else:
            self.predictor = GSharePredictor(config.predictor)
        self.stats = SimStats()
        self.record_timeline = record_timeline
        #: per-instruction stage timestamps, populated when
        #: ``record_timeline`` is set; see :mod:`repro.sim.timeline`
        self.timeline: list[_Dyn] = []

    # ------------------------------------------------------------------
    def run(
        self,
        trace: "list[TraceEntry] | PackedTrace",
        max_cycles: int | None = None,
    ) -> SimStats:
        """Replay ``trace``; returns the populated :class:`SimStats`.

        ``trace`` is either a :class:`~repro.trace.pack.PackedTrace`
        (the fast path) or a list of :class:`TraceEntry` objects, which
        is packed here; both produce bit-identical statistics.
        """
        if isinstance(trace, PackedTrace):
            return self._run_packed(trace, None, max_cycles)
        entries = trace if isinstance(trace, list) else list(trace)
        return self._run_packed(pack_entries(entries), entries, max_cycles)

    def _run_packed(
        self,
        packed: PackedTrace,
        entries: list[TraceEntry] | None,
        max_cycles: int | None,
    ) -> SimStats:
        config = self.config
        stats = self.stats
        n = packed.n
        if n == 0:
            return stats

        # column handles: per-dynamic work is indexing into these
        ids = packed.instr_ids
        mem_col = packed.mem_addr
        taken_col = packed.taken
        roff, rtok = packed.read_offsets, packed.read_tokens
        woff, wtok = packed.write_offsets, packed.write_tokens
        row_pc = packed.pcs
        row_fp = packed.fp_side
        row_lat = packed.row_lat
        row_ctrl = packed.row_ctrl
        row_int_defs = packed.int_defs
        row_fp_defs = packed.fp_defs

        fetch_index = 0
        fetch_buffer: deque[_Dyn] = deque()
        fetch_buffer_cap = 2 * config.fetch_width
        fetch_stall_until = 0
        blocking_branch: _Dyn | None = None

        int_window: list[_Dyn] = []
        fp_window: list[_Dyn] = []
        rob: deque[_Dyn] = deque()
        last_writer: dict[int, _Dyn] = {}
        inflight_stores: list[_Dyn] = []

        free_int = config.rename_int
        free_fp = config.rename_fp
        retired = 0
        now = 0
        hit_cycles = config.icache.hit_cycles
        limit = max_cycles if max_cycles is not None else 200 * n + 10_000

        while retired < n:
            if now & 1023 == 0:
                report_progress(cycles=now, retired=retired)
            now += 1
            if now > limit:
                raise SimulationError(
                    f"simulation exceeded {limit} cycles with "
                    f"{retired}/{n} instructions retired"
                )

            # ---- retire ------------------------------------------------
            width = config.retire_width
            while rob and width:
                head = rob[0]
                if head.complete is None or head.complete > now:
                    break
                rob.popleft()
                head.retired_at = now
                free_int += head.int_defs
                free_fp += head.fp_defs
                if head.is_store:
                    inflight_stores.remove(head)
                retired += 1
                width -= 1

            # ---- issue ---------------------------------------------------
            int_issued_now = self._issue_int(int_window, inflight_stores, now)
            fp_issued_now = self._issue_fp(fp_window, now)
            if int_issued_now:
                stats.int_busy_cycles += 1
            if fp_issued_now:
                stats.fp_busy_cycles += 1
                if not int_issued_now:
                    stats.int_idle_fp_busy_cycles += 1
            if blocking_branch is not None and blocking_branch.complete is not None:
                fetch_stall_until = max(
                    fetch_stall_until,
                    blocking_branch.complete + config.mispredict_redirect,
                )
                blocking_branch = None

            # ---- dispatch ------------------------------------------------
            width = config.decode_width
            dispatched_any = False
            while fetch_buffer and width:
                dyn = fetch_buffer[0]
                window = fp_window if dyn.fp_side else int_window
                window_cap = config.fp_window if dyn.fp_side else config.int_window
                if len(window) >= window_cap:
                    break
                if len(rob) >= config.max_inflight:
                    break
                if dyn.int_defs > free_int or dyn.fp_defs > free_fp:
                    break
                fetch_buffer.popleft()
                dyn.dispatched_at = now
                free_int -= dyn.int_defs
                free_fp -= dyn.fp_defs
                s = dyn.seq
                for ti in range(roff[s], roff[s + 1]):
                    producer = last_writer.get(rtok[ti])
                    if producer is not None and (
                        producer.complete is None or producer.complete > now
                    ):
                        dyn.producers.append(producer)
                for ti in range(woff[s], woff[s + 1]):
                    last_writer[wtok[ti]] = dyn
                window.append(dyn)
                rob.append(dyn)
                if dyn.is_store:
                    inflight_stores.append(dyn)
                width -= 1
                dispatched_any = True
            if fetch_buffer and not dispatched_any:
                stats.dispatch_stall_cycles += 1

            # ---- fetch ---------------------------------------------------
            if now < fetch_stall_until or blocking_branch is not None:
                if fetch_index < n:
                    stats.fetch_stall_cycles += 1
                continue
            width = config.fetch_width
            while width and fetch_index < n and len(fetch_buffer) < fetch_buffer_cap:
                sid = ids[fetch_index]
                pc = row_pc[sid]
                latency = self.icache.access(pc)
                if latency > hit_cycles:
                    fetch_stall_until = now + (latency - hit_cycles)
                    break
                dyn = _Dyn(
                    fetch_index,
                    row_fp[sid] == 1,
                    row_lat[sid],
                    row_int_defs[sid],
                    row_fp_defs[sid],
                    mem_col[fetch_index],
                    entries[fetch_index] if entries is not None else None,
                )
                dyn.fetched_at = now
                if self.record_timeline:
                    self.timeline.append(dyn)
                fetch_index += 1
                fetch_buffer.append(dyn)
                width -= 1
                ctrl = row_ctrl[sid]
                if ctrl == CTRL_BRANCH:
                    raw = taken_col[dyn.seq]
                    taken = None if raw < 0 else raw == 1
                    correct = self.predictor.update(pc, taken)
                    stats.branches += 1
                    if not correct:
                        stats.branch_mispredicts += 1
                        blocking_branch = dyn
                        break
                    if taken:
                        break  # cannot fetch past a taken branch this cycle
                elif ctrl == CTRL_JUMP:
                    break  # taken control flow, perfectly predicted

        stats.cycles = now
        stats.retired = retired
        stats.icache_hits = self.icache.hits
        stats.icache_misses = self.icache.misses
        stats.dcache_hits = self.dcache.hits
        stats.dcache_misses = self.dcache.misses
        report_progress(cycles=now, retired=retired)
        return stats

    # ------------------------------------------------------------------
    def _latency(self, dyn: _Dyn) -> int:
        lat = dyn.lat_class
        if lat == LAT_LOAD:
            return self.dcache.access(dyn.mem_addr)
        if lat == LAT_STORE:
            self.dcache.access(dyn.mem_addr)
            return 1
        if lat == LAT_MUL:
            return self.config.mul_latency
        if lat == LAT_DIV:
            return self.config.div_latency
        return 1

    @staticmethod
    def _ready(dyn: _Dyn, now: int) -> bool:
        for producer in dyn.producers:
            if producer.complete is None or producer.complete > now:
                return False
        return True

    def _issue_int(
        self, window: list[_Dyn], inflight_stores: list[_Dyn], now: int
    ) -> int:
        """Issue from the INT window; returns number issued."""
        budget = self.config.int_units
        ls_budget = self.config.ls_ports
        issued = 0
        stats = self.stats
        if not window:
            return 0
        oldest_unissued_store = None
        for store in inflight_stores:
            if not store.issued:
                oldest_unissued_store = store.seq
                break
        remaining: list[_Dyn] = []
        for dyn in window:
            if budget == 0:
                remaining.append(dyn)
                continue
            if dyn.is_mem and ls_budget == 0:
                remaining.append(dyn)
                continue
            if not self._ready(dyn, now):
                remaining.append(dyn)
                continue
            if dyn.is_load:
                if (
                    oldest_unissued_store is not None
                    and oldest_unissued_store < dyn.seq
                ):
                    remaining.append(dyn)
                    continue
                conflict = False
                word = dyn.mem_addr >> 2
                for store in inflight_stores:
                    if store.seq > dyn.seq:
                        break
                    if (
                        store.mem_addr >> 2 == word
                        and (store.complete is None or store.complete > now)
                    ):
                        conflict = True
                        break
                if conflict:
                    remaining.append(dyn)
                    continue
            dyn.issued = True
            dyn.issued_at = now
            dyn.complete = now + self._latency(dyn)
            if dyn.is_store and oldest_unissued_store == dyn.seq:
                oldest_unissued_store = None
                for store in inflight_stores:
                    if not store.issued:
                        oldest_unissued_store = store.seq
                        break
            budget -= 1
            if dyn.is_mem:
                ls_budget -= 1
                if dyn.is_load:
                    stats.loads += 1
                else:
                    stats.stores += 1
            issued += 1
            stats.int_issued += 1
        window[:] = remaining
        return issued

    def _issue_fp(self, window: list[_Dyn], now: int) -> int:
        """Issue from the FP window; returns number issued."""
        budget = self.config.fp_units
        issued = 0
        if not window:
            return 0
        remaining: list[_Dyn] = []
        for dyn in window:
            if budget == 0 or not self._ready(dyn, now):
                remaining.append(dyn)
                continue
            dyn.issued = True
            dyn.issued_at = now
            dyn.complete = now + self._latency(dyn)
            budget -= 1
            issued += 1
            self.stats.fp_issued += 1
        window[:] = remaining
        return issued

    # ------------------------------------------------------------------


def simulate_trace(
    trace: "list[TraceEntry] | PackedTrace",
    config: MachineConfig,
    perfect_branches: bool = False,
) -> SimStats:
    """Convenience wrapper: run ``trace`` on a fresh simulator."""
    return TimingSimulator(config, perfect_branches=perfect_branches).run(trace)
