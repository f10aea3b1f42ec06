"""Host-speed probe and the reference clock built from it.

A shared VM's CPU speed need not be steady: on a 2-core Xeon VM the same
fixed loop ran up to twice as fast in one stretch of seconds or minutes
as in the next, and the guest saw no steal time, so wall and CPU time
slowed down together.  The benchmark therefore pins itself and every
child to one CPU and runs this probe beside them on that CPU::

    python3 perfbench/probe.py     # stop it by closing its stdin

Every :data:`INTERVAL_S` it runs :func:`spin`, a fixed pure-Python loop,
and records the loop's own CPU time (its thread time, so time-slicing
with the workload does not count).  When stdin closes it prints the
samples as one JSON list of ``[midpoint, cpu_s]``.

:class:`ReferenceClock` turns those samples into a clock that runs at
the host's speed relative to :data:`NOMINAL_S`: around each sample, one
host second counts ``NOMINAL_S / cpu_s`` reference seconds.  Durations
read on it are what the benchmark reports, in seconds of a host on which
:func:`spin` takes :data:`NOMINAL_S`.
"""

from __future__ import annotations

import bisect
import json
import select
import statistics
import sys
import time

#: Pause between probes; :func:`spin` takes about 1 ms, so the probe
#: holds the shared CPU about 3% of the time.
INTERVAL_S = 0.03

#: CPU time of :func:`spin` that maps to one reference second per host
#: second: about its median beside the workloads on a 2-core 2.0 GHz
#: Xeon VM, Python 3.11.
NOMINAL_S = 0.001

#: Samples in the running median that smooths each sample's speed.
SMOOTHING = 5


def spin() -> float:
    """A fixed float recurrence: bytecode dispatch, float ops, a branch."""
    x, y, acc = 0.1, 0.2, 0.0
    for _ in range(10000):
        x = 0.9 * x + 0.1 * y
        y = y - 0.01 * x if x > 0.0 else y + 0.01
        acc += x * y
    return acc


def sample_until_stdin_closes() -> list[list[float]]:
    samples: list[list[float]] = []
    while True:
        started, cpu = time.perf_counter(), time.thread_time()
        spin()
        cpu, ended = time.thread_time() - cpu, time.perf_counter()
        samples.append([(started + ended) / 2.0, cpu])
        ready, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if ready:
            return samples


class ReferenceClock:
    """Map ``time.perf_counter`` readings to reference seconds.

    Sample ``i``'s speed holds from halfway after sample ``i - 1`` to
    halfway before sample ``i + 1``; before the first and after the last
    sample their speeds extend.  The map is continuous and increasing,
    so a span's duration on it is the integral of the host's speed over
    the span.
    """

    def __init__(self, samples: list[list[float]]) -> None:
        if not samples:
            raise ValueError("the host-speed probe recorded no samples")
        samples = sorted(samples)
        cpus = [cpu for _, cpu in samples]
        half = SMOOTHING // 2
        self.factors = [
            NOMINAL_S / statistics.median(cpus[max(i - half, 0) : i + half + 1])
            for i in range(len(cpus))
        ]
        mids = [mid for mid, _ in samples]
        #: Segment ``i`` starts at ``edges[i]`` and runs at ``factors[i]``.
        self.edges = [mids[0]] + [(a + b) / 2.0 for a, b in zip(mids, mids[1:])]
        self.starts = [0.0]
        for i in range(1, len(self.edges)):
            step = (self.edges[i] - self.edges[i - 1]) * self.factors[i - 1]
            self.starts.append(self.starts[-1] + step)

    def __call__(self, t: float) -> float:
        i = max(bisect.bisect_right(self.edges, t) - 1, 0)
        return self.starts[i] + (t - self.edges[i]) * self.factors[i]

    def speed(self) -> float:
        """Median reference seconds per host second over the run."""
        return statistics.median(self.factors)


if __name__ == "__main__":
    json.dump(sample_until_stdin_closes(), sys.stdout)
