"""Machine-speed probe, so that timings can be scaled to one fixed speed.

The CPU speed of a shared virtual machine changes by up to 2x within
seconds to minutes, and CPU time rises with wall time, so the process is not
waiting: the CPU runs slower. A timing taken at one moment cannot be
compared with one taken minutes later. The probe measures the speed while
the timed region runs: a timer signal interrupts the region every
``INTERVAL_S`` of wall time and times one ``chunk``, a fixed piece of
pure-Python and small-array work of the kind polarsnap does. The region's
time minus the probe's own, scaled by ``NOMINAL_CHUNK_S`` over the mean
chunk time, is the time the region takes at the reference speed.

Signal handlers run between bytecodes, so a long native call delays a tick
until it returns; coalesced ticks give fewer samples, not wrong ones.
"""
import heapq
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025
# Chunk time at the reference speed: a typical per-region mean on a 2-vCPU
# Intel Xeon VM (Python 3.11, numpy 2.4), where the means ranged from about
# 1.2 to 1.5 ms. Only its staying fixed matters: it turns chunk units back
# into seconds.
NOMINAL_CHUNK_S = 0.00125

_POINTS = np.linspace(0.0, 1.0, 66 * 3).reshape(66, 3)


def chunk() -> int:
    """A fixed piece of work: heap and dict traffic plus small numpy calls.

    It allocates one list and one dict and otherwise no container objects,
    so it barely advances the garbage collector of the program it
    interrupts."""
    heap: list = []
    for i in range(1500):
        heapq.heappush(heap, (i * 7919) % 1009)
    counts: dict = {}
    while heap:
        d = heapq.heappop(heap)
        counts[d % 101] = counts.get(d % 101, 0) + d
    for k in range(6):
        np.linalg.norm(_POINTS[k] - _POINTS, axis=1).sum()
    return len(counts)


def chunk_mean_s(seconds: float) -> float:
    """Mean time of back-to-back chunks over about ``seconds``."""
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        start = time.perf_counter()
        chunk()
        times.append(time.perf_counter() - start)
    return statistics.fmean(times)


def at_reference_speed(seconds: float, chunk_s: float) -> float:
    """A duration measured while chunks took ``chunk_s``, at the reference speed."""
    return seconds * NOMINAL_CHUNK_S / chunk_s


class Probe:
    """Times one region while sampling the machine's speed inside it.

        with Probe() as probe:
            work()
        probe.wall_s, probe.net_s, probe.scaled_s
    """

    def __init__(self):
        self.samples: list = []
        self.wall_s = 0.0
        self.probe_s = 0.0  # time the chunks took inside the region

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        chunk()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "Probe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall_s = time.perf_counter() - self._start
        self.probe_s = sum(self.samples)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a region shorter than one interval
            self._tick(None, None)

    @property
    def net_s(self) -> float:
        """Wall time of the region without the probe's own chunks."""
        return self.wall_s - self.probe_s

    @property
    def chunk_s(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def scaled_s(self) -> float:
        """``net_s`` at the reference speed."""
        return at_reference_speed(self.net_s, self.chunk_s)
