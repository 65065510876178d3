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
   control flow; an I-cache miss stalls fetch for the miss penalty;
   conditional branches are predicted with gshare and a misprediction
   stalls fetch until the branch resolves (wrong-path work is not
   simulated, its cost is the fetch bubble — the standard trace-driven
   approximation).  Fetch reads the trace in program order, so which
   entries miss, mispredict or end a fetch group does not depend on the
   machine's width: the loop reads them from the pack's front-end column
   (:meth:`~repro.trace.pack.PackedTrace.front_end_events`) and never
   touches an I-cache or a predictor.  The front end starts cold on
   every :meth:`TimingSimulator.run`.

The loop consumes a :class:`~repro.trace.pack.PackedTrace` — latency
classes pre-resolved per static row, register producers resolved once
per pack as distances back in the trace
(:meth:`~repro.trace.pack.PackedTrace.producer_columns`: one column for
each entry's first and second read, a small dict for the rare third and
later reads), and one front-end event byte per entry, derived once per
pack and front end; a decoded pack carries the producers and Table 1's
front-end events from its encoding.  A traced interpreter run returns
such a pack directly.  A ``list[TraceEntry]``
(hand-built test traces, or
:meth:`~repro.trace.pack.PackedTrace.unpack_entries` output for the
timeline) is packed on entry with :func:`~repro.trace.pack.pack_entries`.

State is flat integers.  An in-flight instruction is its sequence
number ``s``, and in-flight sequence numbers are consecutive, so the
ROB is the range ``[retired, dispatched)`` and the fetch buffer the
range ``[dispatched, fetch_index)`` — a hardware ROB's head and tail
pointers.  Retire, dispatch and fetch each bound their stage once per
cycle (width, ROB or buffer room, trace end).  Both windows and the
in-flight store list hold sequence numbers; an issue scan visits its
window oldest-first, stops once the issue width is spent and then
removes the entries it issued, compacting the window in place.
Per-instruction state (completion cycle, static row, the ring slots of
its first and second producers) lives in fixed-size ring lists indexed
by ``s & mask``.  Dispatch turns
a producer distance into a slot; a read with no producer within
``max_inflight`` gets a sentinel slot whose completion is cycle 0, so
an entry is ready when both its producer slots have completed.  The
ring is at least twice the in-flight span, so memory stays O(window)
whatever the trace length.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from repro.errors import SimulationError
from repro.runtime.trace import TraceEntry
from repro.sim.cache import Cache
from repro.sim.config import MachineConfig
from repro.sim.stats import SimStats
from repro.trace.pack import (
    FE_BRANCH,
    FE_MISPREDICT,
    FE_MISS,
    FE_STOP,
    LAT_LOAD,
    LAT_MUL,
    LAT_SINGLE,
    LAT_STORE,
    PackedTrace,
    count_events,
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
    """Simulates one trace on one machine configuration.

    The front end (I-cache and branch predictor) starts cold on every
    :meth:`run`: its events are a column of the trace.
    """

    def __init__(
        self,
        config: MachineConfig,
        perfect_branches: bool = False,
        record_timeline: bool = False,
    ):
        self.config = config
        self.dcache = Cache(config.dcache)
        self.perfect_branches = perfect_branches
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
        first_dist, second_dist, more_dist = packed.producer_columns()
        fe = packed.front_end_events(config.front_end(self.perfect_branches))
        # one tuple per static row: (fp side, latency class, int defs, fp defs)
        rows = list(
            zip(packed.fp_side, packed.row_lat, packed.int_defs, packed.fp_defs)
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
        # (>= 2x that) past such a p, and p's slot still holds p.  The
        # wait slots hold such producers whether or not they had
        # completed by s's dispatch.  A producer further back cannot
        # share the ROB with s: it has retired, hence completed, and its
        # slot may hold a newer instruction, so dispatch points s at the
        # sentinel slot past the ring instead, whose completion is 0.
        mask = (1 << (2 * (max_inflight + fetch_buffer_cap) - 1).bit_length()) - 1
        ready = mask + 1  # the sentinel slot: "no producer to wait for"
        # completion cycle; _INF = not issued
        complete = [_INF] * (mask + 1) + [0]
        row_of: list = [None] * (mask + 1)  # static row tuple
        # producer slots of the first and second read
        wait0 = [ready] * (mask + 1)
        wait1 = [ready] * (mask + 1)
        # s -> producer slots of its third and later reads, until they
        # have all completed
        more_waits: dict[int, list[int]] = {}

        record = self.record_timeline
        if record:
            fetched_at = [-1] * n
            dispatched_at = [-1] * n
            issued_at = [-1] * n
            done_at = [-1] * n
            retired_at = [-1] * n

        miss_penalty = config.icache.miss_penalty
        # a miss without a penalty does not stall fetch
        stalling_miss = FE_MISS if miss_penalty else 0
        # the entry whose I-cache miss fetch has stalled for: its retry hits
        miss_served = -1
        stop = FE_STOP
        mispredicted = FE_MISPREDICT
        dcache_access = self.dcache.access

        # sequence numbers: [retired, dispatched) is the ROB and
        # [dispatched, fetch_index) the fetch buffer
        retired = dispatched = fetch_index = 0
        fetch_stall_until = 0
        blocking_branch = -1

        int_window: list[int] = []
        fp_window: list[int] = []
        inflight_stores: deque[int] = deque()

        int_issued = fp_issued = loads = stores = 0
        int_busy = fp_busy = int_idle_fp_busy = 0
        fetch_stalls = dispatch_stalls = 0

        free_int = config.rename_int
        free_fp = config.rename_fp
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
            # the ROB is [retired, dispatched)
            end = retired + retire_width
            if end > dispatched:
                end = dispatched
            while retired < end:
                slot = retired & mask
                if complete[slot] > now:
                    break
                row = row_of[slot]
                free_int += row[2]
                free_fp += row[3]
                if row[1] == LAT_STORE:
                    inflight_stores.popleft()  # stores retire in order
                if record:
                    retired_at[retired] = now
                retired += 1

            # ---- issue ---------------------------------------------------
            # each scan collects what it issues (at most the issue width),
            # stops once the budget is spent, and drops those entries
            issued_int = 0
            if int_window:
                budget = int_units
                ls_budget = ls_ports
                oldest_unissued_store = _INF
                for st in inflight_stores:
                    if complete[st & mask] == _INF:
                        oldest_unissued_store = st
                        break
                issued = []
                for s in int_window:
                    slot = s & mask
                    if complete[wait0[slot]] > now or complete[wait1[slot]] > now:
                        continue
                    if more_waits and s in more_waits:
                        if any(complete[p] > now for p in more_waits[s]):
                            continue
                        del more_waits[s]
                    lat = row_of[slot][1]
                    if lat == LAT_SINGLE:
                        complete[slot] = now + 1
                    elif lat == LAT_LOAD:
                        if not ls_budget or oldest_unissued_store < s:
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
                            continue
                        complete[slot] = now + dcache_access(mem_col[s])
                        ls_budget -= 1
                        loads += 1
                    elif lat == LAT_STORE:
                        if not ls_budget:
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
                    issued.append(s)
                    budget -= 1
                    if not budget:
                        break
                if issued:
                    for s in issued:
                        int_window.remove(s)
                    issued_int = int_units - budget
                    int_issued += issued_int
                    int_busy += 1
            if fp_window:
                budget = fp_units
                issued = []
                for s in fp_window:
                    slot = s & mask
                    if complete[wait0[slot]] > now or complete[wait1[slot]] > now:
                        continue
                    if more_waits and s in more_waits:
                        if any(complete[p] > now for p in more_waits[s]):
                            continue
                        del more_waits[s]
                    # no load/store port or ordering checks on this
                    # side, but FP-side memory rows still use the D-cache
                    lat = row_of[slot][1]
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
                    issued.append(s)
                    budget -= 1
                    if not budget:
                        break
                if issued:
                    for s in issued:
                        fp_window.remove(s)
                    fp_issued += fp_units - budget
                    fp_busy += 1
                    if not issued_int:
                        int_idle_fp_busy += 1
            if blocking_branch >= 0 and complete[blocking_branch & mask] != _INF:
                resume = complete[blocking_branch & mask] + redirect
                if resume > fetch_stall_until:
                    fetch_stall_until = resume
                blocking_branch = -1

            # ---- dispatch ------------------------------------------------
            # the fetch buffer is [dispatched, fetch_index)
            start = dispatched
            end = dispatched + decode_width
            if end > retired + max_inflight:  # ROB room
                end = retired + max_inflight
            if end > fetch_index:
                end = fetch_index
            while dispatched < end:
                s = dispatched
                slot = s & mask
                row = row_of[slot]
                if row[0]:
                    if len(fp_window) >= fp_cap:
                        break
                elif len(int_window) >= int_cap:
                    break
                if row[2] > free_int or row[3] > free_fp:
                    break
                free_int -= row[2]
                free_fp -= row[3]
                # a producer more than max_inflight back has retired
                d = first_dist[s]
                wait0[slot] = (s - d) & mask if d <= max_inflight else ready
                d = second_dist[s]
                wait1[slot] = (s - d) & mask if d <= max_inflight else ready
                if more_dist and s in more_dist:
                    extra = [(s - d) & mask for d in more_dist[s] if d <= max_inflight]
                    if extra:
                        more_waits[s] = extra
                if row[0]:
                    fp_window.append(s)
                else:
                    int_window.append(s)
                if row[1] == LAT_STORE:
                    inflight_stores.append(s)
                if record:
                    dispatched_at[s] = now
                dispatched += 1
            if dispatched == start and dispatched < fetch_index:
                dispatch_stalls += 1

            # ---- fetch ---------------------------------------------------
            if now < fetch_stall_until or blocking_branch >= 0:
                if fetch_index < n:
                    fetch_stalls += 1
                continue
            end = fetch_index + fetch_width
            if end > dispatched + fetch_buffer_cap:  # buffer room
                end = dispatched + fetch_buffer_cap
            if end > n:
                end = n
            while fetch_index < end:
                s = fetch_index
                ev = fe[s]
                if ev & stalling_miss and s != miss_served:
                    miss_served = s
                    fetch_stall_until = now + miss_penalty
                    break
                slot = s & mask
                complete[slot] = _INF
                row_of[slot] = rows[ids[s]]
                if record:
                    fetched_at[s] = now
                fetch_index += 1
                if ev & stop:
                    # taken control flow ends the fetch group; a
                    # mispredict stalls fetch until the branch resolves
                    if ev & mispredicted:
                        blocking_branch = s
                    break

        stats.cycles = now
        stats.retired = retired
        stats.int_issued += int_issued
        stats.fp_issued += fp_issued
        stats.loads += loads
        stats.stores += stores
        stats.branches += count_events(fe, FE_BRANCH)
        stats.branch_mispredicts += count_events(fe, FE_MISPREDICT)
        stats.int_busy_cycles += int_busy
        stats.fp_busy_cycles += fp_busy
        stats.int_idle_fp_busy_cycles += int_idle_fp_busy
        stats.fetch_stall_cycles += fetch_stalls
        stats.dispatch_stall_cycles += dispatch_stalls
        # every entry is fetched once from a resident line: a missed
        # one on its retry
        stats.icache_hits = n
        stats.icache_misses = count_events(fe, FE_MISS)
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
