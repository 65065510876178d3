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
dense integers.  A traced interpreter run returns such a pack directly.
A ``list[TraceEntry]`` (hand-built test traces, or
:meth:`~repro.trace.pack.PackedTrace.unpack_entries` output for the
timeline) is packed on entry with :func:`~repro.trace.pack.pack_entries`.

State is flat integers.  An in-flight instruction is its sequence
number ``s``: the fetch buffer, both windows, the ROB and the in-flight
store list hold sequence numbers, and per-instruction state (completion
cycle, static row, producers) lives in fixed-size ring lists indexed by
``s & mask``.  The ring is at least twice the in-flight span, so memory
stays O(window) whatever the trace length.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from repro.errors import SimulationError
from repro.runtime.trace import TraceEntry
from repro.sim.branch_pred import GSharePredictor, PerfectPredictor
from repro.sim.cache import Cache
from repro.sim.config import MachineConfig
from repro.sim.stats import SimStats
from repro.trace.pack import (
    CTRL_BRANCH,
    LAT_LOAD,
    LAT_MUL,
    LAT_SINGLE,
    LAT_STORE,
    PackedTrace,
    pack_entries,
)

#: completion cycle of an instruction that has not issued
_INF = 1 << 62


class StageTimes(NamedTuple):
    """Stage cycles of one dynamic instruction (``record_timeline``)."""

    entry: TraceEntry | None
    fetched_at: int
    dispatched_at: int
    issued_at: int
    complete: int
    retired_at: int


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
        #: per-instruction :class:`StageTimes`, populated when
        #: ``record_timeline`` is set; see :mod:`repro.sim.timeline`
        self.timeline: list[StageTimes] = []

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
        # one tuple per static row:
        # (pc, fp side, latency class, control class, int defs, fp defs)
        rows = list(
            zip(
                packed.pcs,
                packed.fp_side,
                packed.row_lat,
                packed.row_ctrl,
                packed.int_defs,
                packed.fp_defs,
            )
        )

        fetch_width = config.fetch_width
        decode_width = config.decode_width
        retire_width = config.retire_width
        int_cap = config.int_window
        fp_cap = config.fp_window
        max_inflight = config.max_inflight
        int_units = config.int_units
        fp_units = config.fp_units
        ls_ports = config.ls_ports
        mul_latency = config.mul_latency
        div_latency = config.div_latency
        redirect = config.mispredict_redirect
        fetch_buffer_cap = 2 * fetch_width

        # Ring state, indexed by ``s & mask``.  The ring's correctness
        # rests on one invariant: a slot is read only for an instruction
        # that is in flight, or for a producer p of an in-flight s with
        # s - p <= max_inflight.  In flight (fetch buffer + ROB) are at
        # most max_inflight + fetch_buffer_cap consecutive sequence
        # numbers, so the newest fetched one is less than the ring size
        # (>= 2x that) past such a p, and p's slot still holds p.  A
        # producer further back cannot share the ROB with s: it has
        # retired, hence completed, and its slot may hold a newer
        # instruction, so dispatch must not look it up.
        mask = (1 << (2 * (max_inflight + fetch_buffer_cap) - 1).bit_length()) - 1
        complete = [_INF] * (mask + 1)  # completion cycle; _INF = not issued
        row_of: list = [None] * (mask + 1)  # static row tuple
        producers: list = [()] * (mask + 1)  # slots of incomplete producers

        record = self.record_timeline
        if record:
            fetched_at = [-1] * n
            dispatched_at = [-1] * n
            issued_at = [-1] * n
            done_at = [-1] * n
            retired_at = [-1] * n

        icache = self.icache
        icache_access = icache.access
        icache_line_bits = config.icache.line_bytes.bit_length() - 1
        icache_hit_cycles = config.icache.hit_cycles
        icache_last_line = -1
        icache_fast_hits = 0
        dcache_access = self.dcache.access
        predict = self.predictor.update

        fetch_index = 0
        fetch_buffer: deque[int] = deque()
        fetch_stall_until = 0
        blocking_branch = -1

        int_window: list[int] = []
        fp_window: list[int] = []
        rob: deque[int] = deque()
        last_writer: dict[int, int] = {}
        writer_of = last_writer.get
        never = -_INF  # last_writer default: never within max_inflight
        inflight_stores: deque[int] = deque()

        int_issued = fp_issued = loads = stores = 0
        branches = mispredicts = 0
        int_busy = fp_busy = int_idle_fp_busy = 0
        fetch_stalls = dispatch_stalls = 0

        free_int = config.rename_int
        free_fp = config.rename_fp
        retired = 0
        now = 0
        limit = max_cycles if max_cycles is not None else 200 * n + 10_000

        while retired < n:
            now += 1
            if now > limit:
                raise SimulationError(
                    f"simulation exceeded {limit} cycles with "
                    f"{retired}/{n} instructions retired"
                )

            # ---- retire ------------------------------------------------
            width = retire_width
            while rob and width:
                s = rob[0]
                slot = s & mask
                if complete[slot] > now:
                    break
                rob.popleft()
                row = row_of[slot]
                free_int += row[4]
                free_fp += row[5]
                if row[2] == LAT_STORE:
                    inflight_stores.popleft()  # stores retire in order
                if record:
                    retired_at[s] = now
                retired += 1
                width -= 1

            # ---- issue ---------------------------------------------------
            issued_int = 0
            if int_window:
                budget = int_units
                ls_budget = ls_ports
                oldest_unissued_store = _INF
                for st in inflight_stores:
                    if complete[st & mask] == _INF:
                        oldest_unissued_store = st
                        break
                remaining: list[int] = []
                keep = remaining.append
                for s in int_window:
                    if not budget:
                        keep(s)
                        continue
                    slot = s & mask
                    for p in producers[slot]:
                        if complete[p] > now:
                            keep(s)
                            break
                    else:
                        lat = row_of[slot][2]
                        if lat == LAT_SINGLE:
                            complete[slot] = now + 1
                        elif lat == LAT_LOAD:
                            if not ls_budget or oldest_unissued_store < s:
                                keep(s)
                                continue
                            word = mem_col[s] >> 2
                            conflict = False
                            for st in inflight_stores:
                                if st > s:
                                    break
                                if mem_col[st] >> 2 == word and complete[st & mask] > now:
                                    conflict = True
                                    break
                            if conflict:
                                keep(s)
                                continue
                            complete[slot] = now + dcache_access(mem_col[s])
                            ls_budget -= 1
                            loads += 1
                        elif lat == LAT_STORE:
                            if not ls_budget:
                                keep(s)
                                continue
                            dcache_access(mem_col[s])
                            complete[slot] = now + 1
                            ls_budget -= 1
                            stores += 1
                            if oldest_unissued_store == s:
                                oldest_unissued_store = _INF
                                for st in inflight_stores:
                                    if complete[st & mask] == _INF:
                                        oldest_unissued_store = st
                                        break
                        elif lat == LAT_MUL:
                            complete[slot] = now + mul_latency
                        else:
                            complete[slot] = now + div_latency
                        if record:
                            issued_at[s] = now
                            done_at[s] = complete[slot]
                        budget -= 1
                        issued_int += 1
                if issued_int:
                    int_window = remaining
                    int_issued += issued_int
                    int_busy += 1
            if fp_window:
                budget = fp_units
                issued_fp = 0
                remaining = []
                keep = remaining.append
                for s in fp_window:
                    if not budget:
                        keep(s)
                        continue
                    slot = s & mask
                    for p in producers[slot]:
                        if complete[p] > now:
                            keep(s)
                            break
                    else:
                        # no load/store port or ordering checks on this
                        # side, but FP-side memory rows still use the D-cache
                        lat = row_of[slot][2]
                        if lat == LAT_SINGLE:
                            complete[slot] = now + 1
                        elif lat == LAT_LOAD:
                            complete[slot] = now + dcache_access(mem_col[s])
                        elif lat == LAT_STORE:
                            dcache_access(mem_col[s])
                            complete[slot] = now + 1
                        elif lat == LAT_MUL:
                            complete[slot] = now + mul_latency
                        else:
                            complete[slot] = now + div_latency
                        if record:
                            issued_at[s] = now
                            done_at[s] = complete[slot]
                        budget -= 1
                        issued_fp += 1
                if issued_fp:
                    fp_window = remaining
                    fp_issued += issued_fp
                    fp_busy += 1
                    if not issued_int:
                        int_idle_fp_busy += 1
            if blocking_branch >= 0 and complete[blocking_branch & mask] != _INF:
                resume = complete[blocking_branch & mask] + redirect
                if resume > fetch_stall_until:
                    fetch_stall_until = resume
                blocking_branch = -1

            # ---- dispatch ------------------------------------------------
            width = decode_width
            while fetch_buffer and width:
                s = fetch_buffer[0]
                slot = s & mask
                row = row_of[slot]
                if row[1]:
                    if len(fp_window) >= fp_cap:
                        break
                elif len(int_window) >= int_cap:
                    break
                if len(rob) >= max_inflight:
                    break
                if row[4] > free_int or row[5] > free_fp:
                    break
                fetch_buffer.popleft()
                free_int -= row[4]
                free_fp -= row[5]
                waits = []
                for ti in range(roff[s], roff[s + 1]):
                    p = writer_of(rtok[ti], never)
                    if s - p <= max_inflight and complete[p & mask] > now:
                        waits.append(p & mask)
                producers[slot] = waits
                for ti in range(woff[s], woff[s + 1]):
                    last_writer[wtok[ti]] = s
                if row[1]:
                    fp_window.append(s)
                else:
                    int_window.append(s)
                rob.append(s)
                if row[2] == LAT_STORE:
                    inflight_stores.append(s)
                if record:
                    dispatched_at[s] = now
                width -= 1
            if fetch_buffer and width == decode_width:
                dispatch_stalls += 1

            # ---- fetch ---------------------------------------------------
            if now < fetch_stall_until or blocking_branch >= 0:
                if fetch_index < n:
                    fetch_stalls += 1
                continue
            width = fetch_width
            while width and fetch_index < n and len(fetch_buffer) < fetch_buffer_cap:
                s = fetch_index
                row = rows[ids[s]]
                pc = row[0]
                line = pc >> icache_line_bits
                if line == icache_last_line:
                    # the line is already most recently used: a hit that
                    # leaves the LRU state as Cache.access would
                    icache_fast_hits += 1
                else:
                    icache_last_line = line
                    latency = icache_access(pc)
                    if latency > icache_hit_cycles:
                        fetch_stall_until = now + (latency - icache_hit_cycles)
                        break
                slot = s & mask
                complete[slot] = _INF
                row_of[slot] = row
                if record:
                    fetched_at[s] = now
                fetch_index += 1
                fetch_buffer.append(s)
                width -= 1
                ctrl = row[3]
                if ctrl:
                    if ctrl != CTRL_BRANCH:
                        break  # taken control flow, perfectly predicted
                    raw = taken_col[s]
                    taken = None if raw < 0 else raw == 1
                    branches += 1
                    if not predict(pc, taken):
                        mispredicts += 1
                        blocking_branch = s
                        break
                    if taken:
                        break  # cannot fetch past a taken branch this cycle

        icache.hits += icache_fast_hits
        stats.cycles = now
        stats.retired = retired
        stats.int_issued += int_issued
        stats.fp_issued += fp_issued
        stats.loads += loads
        stats.stores += stores
        stats.branches += branches
        stats.branch_mispredicts += mispredicts
        stats.int_busy_cycles += int_busy
        stats.fp_busy_cycles += fp_busy
        stats.int_idle_fp_busy_cycles += int_idle_fp_busy
        stats.fetch_stall_cycles += fetch_stalls
        stats.dispatch_stall_cycles += dispatch_stalls
        stats.icache_hits = icache.hits
        stats.icache_misses = icache.misses
        stats.dcache_hits = self.dcache.hits
        stats.dcache_misses = self.dcache.misses
        if record:
            self.timeline = [
                StageTimes(
                    entries[s] if entries is not None else None,
                    fetched_at[s],
                    dispatched_at[s],
                    issued_at[s],
                    done_at[s],
                    retired_at[s],
                )
                for s in range(n)
            ]
        return stats


def simulate_trace(
    trace: "list[TraceEntry] | PackedTrace",
    config: MachineConfig,
    perfect_branches: bool = False,
) -> SimStats:
    """Convenience wrapper: run ``trace`` on a fresh simulator."""
    return TimingSimulator(config, perfect_branches=perfect_branches).run(trace)
