"""The host's speed, measured by a fixed reference kernel during the run.

On a few cores of a shared machine, the speed drifts by tens of percent
over seconds to minutes while other work on the machine comes and goes.  The
timings a run reports are divided by the host factor measured in the
same run, so they read as seconds on a host running at the nominal
speed, and host drift between runs largely cancels.

The kernel is fixed pure-Python graph work of the same kind the pipeline
does (dict and set adjacency, a BFS, peeling the minimum-degree vertex)
on a fixed pseudo-random graph.  It calls no planarize code and no
third-party library, so a change to the program never moves it.

A wall-clock interval timer runs one kernel call every
NOMINAL_CALL_S / KERNEL_SHARE seconds, in a SIGALRM handler.  Python runs
the handler in the main thread between two bytecodes, so the samples fall
evenly in time, inside long layer calls too, and the pipeline stays in
one thread.  The host's speed jumps between levels for tenths of a
second at a time; samples that bunch up at layer boundaries would catch
a few of those moments, not the work's average.  ``clock`` is wall time
minus the kernel's own time, and every timing of the run uses it.  Each
timed stretch of work (a checked run, a set-up, a pass) is divided by the
factor of the samples taken during it, so it is corrected for the host's
speed at that time.  One kernel call fits in one scheduler time slice, so
time the process spends off the CPU, behind other processes, is not
corrected.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

# Median seconds of one kernel call on a quiet host (2 vCPUs, KVM, Intel
# Xeon, Python 3.11.7).  Only the scale of normalised times depends on it.
NOMINAL_CALL_S = 0.0028

KERNEL_SHARE = 0.1  # kernel seconds per second of the run
TRIM = 0.05  # share of samples left out at each end of the factor's mean
MIN_SAMPLES = 20  # a shorter stretch of work takes the samples nearest to it

_N = 120
_EDGES = 360
_EXPECTED = 4457  # the kernel's answer; a different one means it was broken


def kernel() -> int:
    """One fixed unit of pure-Python graph work; returns a checksum."""
    x = 12345
    adj: dict[int, set[int]] = {v: set() for v in range(_N)}
    for _ in range(_EDGES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u = x % _N
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        v = x % _N
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    seen = {0}
    order = [0]
    for u in order:
        for v in sorted(adj[u]):
            if v not in seen:
                seen.add(v)
                order.append(v)
    check = len(order)
    while adj:
        u = min(adj, key=lambda w: (len(adj[w]), w))
        for v in adj.pop(u):
            adj[v].discard(u)
        check = (check * 31 + u) % 65521
    return check


class HostMeter:
    """Samples the kernel on a timer between start() and stop()."""

    def __init__(self) -> None:
        self.at: list[float] = []  # clock() when each kernel call started
        self.samples: list[float] = []  # seconds per kernel call
        self.seconds = 0.0  # wall time spent in kernel calls
        self.ok = True

    def _tick(self, signum, frame) -> None:
        # The kernel makes no reference cycles, so the collector is held
        # off: a collection the work's garbage would trigger here is left
        # to the work.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        got = kernel()
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.ok = self.ok and got == _EXPECTED
        self.at.append(t0 - self.seconds)
        self.samples.append(dt)
        self.seconds += dt

    def start(self) -> None:
        interval = NOMINAL_CALL_S / KERNEL_SHARE
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """Wall seconds, less the time spent in kernel calls so far."""
        while True:
            spent = self.seconds
            now = time.perf_counter()
            if self.seconds == spent:  # no tick ran in between
                return now - spent

    def factor(self, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        """The host factor over the samples taken between clock() times t0
        and t1, or the MIN_SAMPLES samples nearest to them if there are fewer."""
        i0 = bisect.bisect_left(self.at, t0)
        i1 = bisect.bisect_right(self.at, t1)
        if i1 - i0 < MIN_SAMPLES:
            i0 = max(0, min((i0 + i1 - MIN_SAMPLES) // 2, len(self.at) - MIN_SAMPLES))
            i1 = i0 + MIN_SAMPLES
        return factor(self.samples[i0:i1])


def factor(samples: list[float]) -> float:
    """Trimmed mean kernel call time over the nominal one: 1.0 at nominal speed."""
    xs = sorted(samples)
    cut = int(len(xs) * TRIM)
    xs = xs[cut:len(xs) - cut] or [NOMINAL_CALL_S]
    return sum(xs) / len(xs) / NOMINAL_CALL_S
