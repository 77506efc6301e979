"""Host-speed calibration for the end-to-end timings.

The reference host is a shared virtual machine. Its speed drifts by up
to ±25 % over tens of seconds, uniformly across the code, as a busy
neighbour comes and goes. No median over one run can remove drift that
lasts longer than the run. So every run also times a fixed piece of
work next to each measured operation, in this program's mix: an
interpreter loop, small-matrix numpy calls, a 5.6 MB array pass and
JSON decoding.  Each end-to-end time is divided by the ``slowdown`` of
the run (the median probe time over ``REFERENCE_PROBE_S``), and each
rate is multiplied by it.  A value then reads as it would on the
reference host at its median speed.  The raw values and the slowdown
are printed on the ``outputs`` line.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

#: Median probe time on the reference host (2-core VM, see README.md).
REFERENCE_PROBE_S = 0.0145


class HostClock:
    """Times the fixed probe work; one instance per run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.normal(size=(25, 100))
        self._large = rng.normal(size=(14, 50, 1000))
        self._scratch = np.empty_like(self._large)
        self._document = json.dumps({"losses": rng.random(1000).tolist(), "step": 1})
        self.samples: list[float] = []

    def probe(self) -> float:
        """Run the probe work once; returns (and records) its seconds."""
        started = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        for _ in range(200):
            (self._small @ self._small.T).sum()
            np.sort(self._small, axis=1)
        for _ in range(4):
            self._large.sum(axis=1)
            np.multiply(self._large, 2.0, out=self._scratch)
        for _ in range(10):
            json.loads(self._document)
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    @property
    def slowdown(self) -> float:
        """This run's host speed relative to the reference (> 1 is slower)."""
        return statistics.median(self.samples) / REFERENCE_PROBE_S
