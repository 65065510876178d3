"""Host-speed calibration for a shared, noisy machine.

On a machine shared with other tenants the same Python code runs at
half to nine tenths of its best speed for seconds or minutes at a time,
in CPU time as well as wall time, so raw seconds from two runs are not
comparable.  While a timed phase runs, a timer interrupts it at random
intervals (``INTERVAL_S``) and times a short burst of a fixed calibration
loop on the same CPU.  Every reported time is then scaled to a reference
speed::

    reported = (measured - bursts inside it) * REFERENCE_UNIT_S / median unit time inside it

The loop is pure-Python work of the kind the pipeline spends its time on
(attribute and dict access, small-integer arithmetic, list appends), so
whatever slows the pipeline slows it alike.  Raw seconds and the speed
factors are printed next to the scaled values.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time

#: Seconds of one calibration unit at the reference speed (the median
#: measured on an idle 2.1 GHz x86-64 vCPU under CPython 3.11).
REFERENCE_UNIT_S = 2.5e-5
#: Calibration burst length, and the range the timer draws each gap
#: between bursts from (random, so the bursts cannot lock onto periodic
#: load on the host).
BURST_S = 0.005
INTERVAL_S = (0.025, 0.075)
#: Fewest bursts a speed factor is taken from.
MIN_BURSTS = 9


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: int, nxt: "_Node | None") -> None:
        self.value = value
        self.next = nxt


def _unit() -> int:
    node = None
    for i in range(64):
        node = _Node(i, node)
    regs: dict[int, int] = {}
    out: list[int] = []
    acc = 0
    while node is not None:
        value = node.value
        regs[value & 15] = acc
        acc = (acc * 31 + value + regs.get((value >> 1) & 15, 0)) & 0xFFFF
        out.append(acc)
        node = node.next
    return acc


def burst(seconds: float = BURST_S) -> float:
    """Seconds per calibration unit, measured over one burst.

    The collector is held off meanwhile: a full collection of the
    pipeline's heap, triggered by the loop's few allocations, would
    otherwise land in the burst.
    """
    units = 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        while True:
            _unit()
            units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return elapsed / units
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Timer-driven calibration bursts during one timed phase.

    Use as a context manager around the phase; then :meth:`measure`
    gives any interval of it in reference seconds (busy * factor).
    """

    def __init__(self) -> None:
        self._rng = random.Random(0)
        self._armed = False
        self.times: list[float] = []  # monotonic end of each burst
        self.units: list[float] = []  # seconds per unit in each burst
        self.costs: list[float] = []  # seconds each burst took
        self.cpu_spent = 0.0  # process CPU seconds of all bursts

    def tick(self, signum=None, frame=None) -> None:
        cpu = time.process_time()
        start = time.perf_counter()
        unit = burst()
        cost = time.perf_counter() - start
        self.cpu_spent += time.process_time() - cpu
        self.times.append(time.monotonic())
        self.units.append(unit)
        self.costs.append(cost)
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, self._rng.uniform(*INTERVAL_S))

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        self._armed = True
        self.tick()
        return self

    def __exit__(self, *exc) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.tick()

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(busy seconds, speed factor) of the monotonic interval
        ``start .. end``: its length minus the bursts inside it, and
        ``REFERENCE_UNIT_S`` over the median unit time of the bursts
        inside it, widened to the ``MIN_BURSTS`` nearest when fewer fell
        inside (a few bursts are too noisy to scale a short item)."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        spent = sum(self.costs[lo:hi])
        while hi - lo < MIN_BURSTS and (lo > 0 or hi < len(self.times)):
            if lo > 0:
                lo -= 1
            if hi < len(self.times) and hi - lo < MIN_BURSTS:
                hi += 1
        unit = statistics.median(self.units[lo:hi])
        return end - start - spent, REFERENCE_UNIT_S / unit
