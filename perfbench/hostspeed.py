"""How fast the host runs right now, from a fixed mix of small kernels.

On a shared host the speed of this process moves by up to 1.8x between
minutes, as other tenants load the cores, caches and memory. The
program's batch times move with it. A :class:`HostProbe` times four
kernels that stress what the simulator stresses — the interpreter loop,
dict and tuple allocation, pointer chasing through a heap bigger than
L2, and numpy matrix products and memory streaming — and reports their
geometric mean. Dividing a wall time by the probe taken around it, and
multiplying by :data:`REFERENCE_PROBE_S`, gives *reference seconds*:
the time the same work takes on a host that runs the probe in
:data:`REFERENCE_PROBE_S`. On the tuning host this cut the quartile
spread of one seed-set entry's batch times over a run from 0.31-0.36
to 0.07-0.18, depending on the workload.

The probe's data is allocated once and never touched by the program,
and the program cannot change the probe's code, so a change to the
program moves its reference seconds and not the probe.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

#: Probe seconds of the reference host: the tuning host (2-core x86-64
#: VM) in its quieter spells.
REFERENCE_PROBE_S = 0.003

_REPEATS = 3


class HostProbe:
    """The kernels and their data; :meth:`seconds` takes one probe (about 40 ms)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(2013)
        self._matrix = rng.random((64, 64))
        self._rows = (rng.random((2000, 64)) < 0.1).astype(np.float64)
        self._stream = rng.random(1 << 19)
        self._heap = [float(i) for i in range(100_000)]
        self._order = list(range(len(self._heap)))
        random.Random(2013).shuffle(self._order)
        self._kernels = (self._loop, self._dict, self._chase, self._numpy)

    def _loop(self) -> None:
        total = 0
        for i in range(30_000):
            total += i * i % 7

    def _dict(self) -> None:
        table = {}
        for i in range(8_000):
            table[i, i & 7] = i

    def _chase(self) -> None:
        heap = self._heap
        total = 0.0
        for i in self._order[:30_000]:
            total += heap[i]

    def _numpy(self) -> None:
        for _ in range(5):
            self._rows @ self._matrix
        self._stream.sum()
        np.sort(self._stream[:20_000])

    def seconds(self) -> float:
        """Geometric mean over the kernels of each one's median of three timings."""
        log_sum = 0.0
        for kernel in self._kernels:
            timings = []
            for _ in range(_REPEATS):
                started = time.perf_counter()
                kernel()
                timings.append(time.perf_counter() - started)
            log_sum += math.log(sorted(timings)[_REPEATS // 2])
        return math.exp(log_sum / len(self._kernels))


def to_reference(wall_s: float, *probes: float) -> float:
    """``wall_s`` in reference seconds, at the mean speed ``probes`` saw."""
    return wall_s * REFERENCE_PROBE_S * len(probes) / sum(probes)
