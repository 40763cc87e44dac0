"""Host-speed calibration for the benchmark's timings.

The machine the benchmark runs on changes speed under other tenants'
load: a fixed pure-Python loop alternates between two speeds some 50 %
apart, in phases of seconds to tens of seconds, and CPU time slows with
wall time.  So the runner interleaves a fixed probe with the work - every
few jobs of every sweep, through the session's progress callback - and
scales each timing by ``REFERENCE_S`` over the probe's median duration
nearest to it in time.  Timings then read as seconds on a host where the
probe takes ``REFERENCE_S``; the probe's own time is taken out of the
sweep's wall time first.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

#: integer-loop steps of one probe
PROBE_ITERATIONS = 8_000
#: dict entries one probe builds, each a tuple key and a list value
PROBE_ENTRIES = 1_500
#: the probe's median duration inside sweeps on the development host in
#: a quiet phase (about 0.85 ms when it runs alone)
REFERENCE_S = 0.001
#: probes around a timestamp that give the host speed there
WINDOW = 7


def run_probe() -> float:
    """Run the fixed probe once; returns its duration in seconds.

    Arithmetic plus allocation and hashing, like the program's work: a
    pure integer loop tracked the program's slowdown worse in busy phases
    (14 functional sweeps: spread of scaled walls 5.0 % against 3.3 %;
    fleet-cold 9.7 % against 6.3 %, as coefficients of variation).
    """
    started = perf_counter()
    total = 0
    for value in range(PROBE_ITERATIONS):
        total += value * value % 7
    table = {}
    for value in range(PROBE_ENTRIES):
        table[value, value & 7] = [value, str(value)]
    return perf_counter() - started


class HostSpeed:
    """Probe timestamps and durations of one benchmark run."""

    def __init__(self, every_jobs: int = 1):
        self.every_jobs = max(1, every_jobs)
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._jobs = 0

    def measure(self) -> float:
        started = perf_counter()
        duration = run_probe()
        self.starts.append(started)
        self.durations.append(duration)
        return duration

    def progress(self, done, total, job) -> None:
        """Session progress callback: probe every ``every_jobs`` jobs."""
        self._jobs += 1
        if self._jobs % self.every_jobs == 0:
            self.measure()

    def spent_since(self, index: int) -> float:
        """Seconds spent probing since probe number ``index``."""
        return sum(self.durations[index:])

    def scale(self, first: int, last: int | None = None) -> float:
        """Reference over the median probe duration in ``[first, last)``."""
        return REFERENCE_S / statistics.median(self.durations[first:last])

    def scale_at(self, moment: float) -> float:
        """Reference over the median of the probes nearest ``moment``."""
        index = bisect.bisect(self.starts, moment)
        first = max(0, min(index - WINDOW // 2, len(self.starts) - WINDOW))
        return self.scale(first, first + WINDOW)
