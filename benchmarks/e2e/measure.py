"""Host-speed-normalised timing and the statistics the benchmark reports.

The benchmark runs on shared virtual machines whose vCPUs change speed
by up to 2x from one second to the next, each independently, as
neighbouring tenants load the host.  Process CPU time tracks wall time
through these swings (it is contention, not descheduling), so a raw
timing says as much about the neighbours as about the code, and no
number of repetitions inside one run removes that from a comparison
between runs.

So every measured process is pinned to one CPU, where a
:class:`Speedometer` thread wakes every ``PERIOD_S`` seconds and times
a ~1 ms fixed piece of interpreter work (``PROBE_ITERATIONS`` rounds of
string formatting and dict updates).  An interval of wall time is then
reported in **reference seconds**: the wall time minus the probe's own
share of it, times ``REFERENCE_S / median probe time`` over the
samples taken during the interval.  On an idle host a reference second
is a second; under contention the probe slows down with the code next
to it and the ratio cancels the drift.  On a 2-vCPU KVM guest, 123
back-to-back passes of the batch pipeline over one world spread by
19% (IQR over median) in wall time, by 11% when normalised with probes
taken just before and after each pass, and by 6% with the probe
thread.

Raw wall times are kept next to every normalised one in the detailed
report, so the correction is always visible.
"""

import math
import os
import statistics
import threading
import time
from bisect import bisect_left, bisect_right
from typing import Callable, List, Sequence, Tuple, TypeVar

__all__ = [
    "REFERENCE_S",
    "SpeedClock",
    "Speedometer",
    "pin_to_cpu",
    "quartiles",
    "spread",
]

_T = TypeVar("_T")

#: rounds of the probe's work: about 1 ms of interpreter time
PROBE_ITERATIONS = 1250
#: probe duration on an idle 2-vCPU Xeon KVM guest (CPython 3.11);
#: this defines the reference second
REFERENCE_S = 0.00080
#: time between the end of one probe and the start of the next
PERIOD_S = 0.05


def _probe_work() -> None:
    """A fixed mix of the interpreter work the pipeline does: string
    formatting, dict updates and sorting."""
    table = {}
    for i in range(PROBE_ITERATIONS):
        key = "k%d" % (i * 7919 % 10007)
        table[key] = table.get(key, 0) + len(key)
    sorted(table.items())


def pin_to_cpu(index: int = 0) -> int:
    """Pin the calling thread (and threads it starts later) to the
    ``index``-th CPU this process may use; returns that CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[index % len(cpus)]
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speedometer:
    """A background thread sampling the speed of the CPU it runs on.

    Start it after :func:`pin_to_cpu`, so it shares the CPU with the
    work it measures.  ``samples`` holds ``(end, wall_s, cpu_s)`` per
    probe: its end in ``time.perf_counter`` time (system-wide on Linux,
    so one process can use another's samples), the wall time it took
    from the measured work, and its own thread CPU time, which is the
    speed sample: unlike wall time it does not grow when the process's
    other threads run on the CPU outside the interpreter lock.
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.samples: List[Tuple[float, float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="speedometer")

    def _run(self) -> None:
        while not self._stop.wait(self.period_s):
            start, cpu = time.perf_counter(), time.thread_time()
            _probe_work()
            cpu = time.thread_time() - cpu
            end = time.perf_counter()
            self.samples.append((end, end - start, cpu))

    def start(self) -> "Speedometer":
        """Start sampling; returns self."""
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling and wait for the thread."""
        self._stop.set()
        self._thread.join(timeout=5)

    def __enter__(self) -> "Speedometer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()


def speed(samples: Sequence[Tuple[float, float, float]], start: float,
          end: float) -> Tuple[float, float]:
    """``(factor, busy_s)`` of the wall interval ``[start, end]`` from a
    speedometer's samples (sorted by end time): reference seconds per
    second of work, and the probe's own time inside the interval.

    An interval shorter than three probe periods borrows the nearest
    samples on either side.
    """
    ends = [sample[0] for sample in samples]
    lo, hi = bisect_left(ends, start), bisect_right(ends, end)
    while hi - lo < 3 and (lo > 0 or hi < len(samples)):
        lo, hi = max(0, lo - 1), min(len(samples), hi + 1)
    if hi == lo:
        raise RuntimeError("no speedometer samples to normalise with")
    cpu = statistics.median(sample[2] for sample in samples[lo:hi])
    busy = sum(wall for t, wall, _ in samples[lo:hi]
               if start <= t - wall and t <= end)
    return REFERENCE_S / cpu, busy


def normalise(samples: Sequence[Tuple[float, float, float]],
              start: float, end: float) -> float:
    """Reference seconds of the wall interval ``[start, end]`` measured
    on the CPU the ``samples`` come from."""
    factor, busy = speed(samples, start, end)
    return (end - start - busy) * factor


class SpeedClock:
    """Times calls in wall seconds and in reference seconds."""

    def __init__(self, meter: Speedometer) -> None:
        self.meter = meter
        #: every (wall_s, reference_s) pair this clock has produced
        self.intervals: List[Tuple[float, float]] = []

    def settle(self, end: float) -> None:
        """Wait until the speedometer has sampled past ``end``."""
        deadline = end + 10 * self.meter.period_s
        while (not self.meter.samples or self.meter.samples[-1][0] < end) \
                and time.perf_counter() < deadline:
            time.sleep(self.meter.period_s / 5)

    def span(self, start: float, end: float) -> float:
        """Reference seconds of an interval this process timed."""
        self.settle(end)
        ref_s = normalise(self.meter.samples, start, end)
        self.intervals.append((end - start, ref_s))
        return ref_s

    def timed(self, fn: Callable[..., _T], *args, **kwargs
              ) -> Tuple[_T, float, float]:
        """Call ``fn``; returns ``(result, wall_s, reference_s)``."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        return result, end - start, self.span(start, end)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf

