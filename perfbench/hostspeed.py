"""Host speed, read off a fixed reference kernel timed during the run.

The machines this benchmark runs on share their cores with other tenants,
and their speed drifts by up to 1.5-2x over tens of seconds to minutes:
a fixed CPU loop, identical set-up work and every workload slow down and
speed up together.  No statistic of one run's own timings removes that,
so every run also times a reference kernel, which runs no delcert code,
between units of work (never inside a timed call), and scales its times
to a host on which the kernel takes ``NOMINAL_S``.

The kernel mixes an interpreter loop with small numpy calls, as the
workloads do, on a working set that stays in the first-level cache, so
that the program's own memory use does not change its time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: reference kernel time of the host that reported times are scaled to
NOMINAL_S = 1.0e-3
#: a sample is taken when this much time has passed since the last one
EVERY_S = 0.1

_A = np.arange(256, dtype=np.float64) / 256
_B = np.empty(256)


def _kernel() -> int:
    s = 0
    for i in range(12000):
        s += (i * 7) % 13
    for _ in range(120):
        np.multiply(_A, 1.0001, out=_B)
        _B.sum()
    return s


class HostSpeed:
    """Reference-kernel samples of one phase of a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def sample(self) -> None:
        _kernel()  # warm: the timed call finds code and data in cache
        t0 = time.perf_counter()
        _kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    @property
    def typical_s(self) -> float:
        """Mean kernel time without the lowest and highest tenth of the
        samples.  A mean, because the host can switch speed within a
        phase and a median would take one speed for the whole phase."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return statistics.mean(ordered[cut:len(ordered) - cut])

    @property
    def scale(self) -> float:
        """Factor that takes this phase's times to the nominal host:
        below 1 when the host ran slower than nominal."""
        return NOMINAL_S / self.typical_s
