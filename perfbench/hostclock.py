"""Host speed, sampled between units of work, to normalise timings.

The benchmark runs on a shared host whose speed drifts by 20–30% in
phases of tens of seconds (see README.md, "Host noise").  A phase that
covers a whole run moves every timing of that run, and no median inside
the run can remove it.  :class:`HostClock` therefore times a fixed
pure-Python reference loop between units of work, while the program is
idle, and expresses each unit's wall time in *reference seconds*: wall
seconds scaled by ``NOMINAL_S`` over the reference loop's time next to
the unit.  On a host that runs the loop in ``NOMINAL_S`` the two are
equal; a host that is 20% slower for a while also runs the loop 20%
slower, and the phase cancels.  The program never runs the loop, so a
change to the program moves the normalised timings in full.
"""

from __future__ import annotations

import heapq
import time

#: The reference loop's time on the host the benchmark was written on,
#: quiet (Intel Xeon, 2 vCPUs, Python 3.11).  A fixed constant: it only
#: sets the scale of the reported timings.
NOMINAL_S = 0.0025

#: Loops per probe; a probe reports their mean.  Not their median: when
#: the host shares a CPU between this process and another, every unit
#: of work waits its share, and a probe must too.
LOOPS = 3


class _Item:
    __slots__ = ("value", "hits")

    def __init__(self, value):
        self.value = value
        self.hits = 0

    def touch(self, step):
        self.hits += 1
        return (self.value * 31 + step) & 0xFFFF


def reference_loop() -> int:
    """A fixed mix of what the simulator spends its time on: a heap of
    timed events, method calls on small objects, dict and list traffic."""
    items = [_Item(i) for i in range(64)]
    table = {}
    events = [(i * 7 % 101, i) for i in range(64)]
    heapq.heapify(events)
    total = 0
    for step in range(2000):
        when, index = heapq.heappop(events)
        item = items[index]
        value = item.touch(step)
        table[value % 257] = table.get(value % 257, 0) + 1
        total += value
        heapq.heappush(events, (when + 1 + (value & 15), index))
    return total + len(table)


class HostClock:
    """Host slowness factors, one per probe, in probe order."""

    def __init__(self):
        self.factors = []

    def probe(self) -> float:
        """Run the reference loop; record and return wall ÷ ``NOMINAL_S``."""
        began = time.perf_counter()
        for _ in range(LOOPS):
            reference_loop()
        factor = (time.perf_counter() - began) / LOOPS / NOMINAL_S
        self.factors.append(factor)
        return factor


def reference_seconds(wall_s: float, before: float, after: float) -> float:
    """``wall_s`` of work between two probes, in reference seconds."""
    return 2.0 * wall_s / (before + after)


#: Key under which a probed pool task ships its worker's probe back.
WORKER_KEY = "perfbench.hostclock"

_WORKER_CLOCK = HostClock()


def probed_task(*task):
    """``WorkerPool`` runner: :func:`repro.core.pool.run_task`, then a host
    probe on the same worker.

    The probe's factor and its own duration ride back in the task's
    ``info`` under :data:`WORKER_KEY`; the benchmark's pool strips them
    again and takes the probe's duration off the task's elapsed time.
    """
    from repro.core.pool import run_task

    metrics, events, info = run_task(*task)
    began = time.perf_counter()
    factor = _WORKER_CLOCK.probe()
    info = dict(info or {})
    info[WORKER_KEY] = (factor, time.perf_counter() - began)
    return metrics, events, info
