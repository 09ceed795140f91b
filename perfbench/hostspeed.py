"""Host speed, measured by a fixed probe timed between iterations.

The benchmark runs on VMs shared with other tenants.  There the same code
runs at a speed that drifts by 20-40% over seconds to minutes, and CPU time
drifts with wall time, so neither clock alone gives figures that two sets of
runs reproduce.  So a run also times a fixed piece of work, the probe, about
every ``PROBE_EVERY_S`` seconds between iterations, and reports each
iteration's wall time scaled by ``REFERENCE_S`` over the median probe time
around it: the time the iteration would take on a host that runs the probe
in ``REFERENCE_S``.  These scaled times are "reference seconds".

The probe calls numpy and scipy only, never qplasma, and mixes the kinds of
work the workloads do: real and complex FFTs with complex exponentials,
cubic spline interpolation, small-array numpy calls, interpreted Python and
adaptive quadrature of a Python integrand.
A change to qplasma therefore moves a scaled time as it moves the wall time
on a steady host.  The wall times themselves are printed beside the scaled
ones.  Probe time is never counted in an iteration.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np
from scipy.integrate import quad
from scipy.ndimage import map_coordinates

# Median probe time on the host the benchmark was written on (NOTES.md).
# Any constant would do: it only sets the unit of the scaled times.
REFERENCE_S = 3.8e-3

# Least workload time between two probes.
PROBE_EVERY_S = 0.04

# Probes taken on each side of an interval, besides those inside it, whose
# median scales it.
NEIGHBOURS = 3


class HostProbe:
    """Times the probe on demand and scales wall times by its speed."""

    def __init__(self):
        self._x = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128)
        self._z = np.exp(1j * self._x)
        self._phase = 0.5 * self._x
        self._g = self._x[:48, :48].copy()
        rows, cols = np.meshgrid(np.arange(48.0) + 0.3, np.arange(48.0) - 0.7,
                                 indexing="ij")
        self._coords = [rows, cols]
        self._small = np.arange(64.0)
        self.mids = []      # perf_counter midpoint of each probe
        self.times = []     # wall seconds of each probe
        self.spent = 0.0    # total probe seconds, to subtract from spans
        self._last = -float("inf")
        self._work()        # one-off costs of the first call

    def _work(self):
        x = self._x
        for _ in range(2):
            np.fft.irfft(np.fft.rfft(x, axis=1), n=x.shape[1], axis=1)
        y = np.fft.fft(self._z, axis=0)
        y *= np.exp(1j * self._phase)
        np.fft.ifft(y, axis=0)
        map_coordinates(self._g, self._coords, order=3, mode="grid-wrap")
        for _ in range(100):
            np.sum(self._small * self._small)
        total = 0
        for i in range(5000):
            total += i * i
        # Adaptive quadrature of a Python integrand near a pole, as in the
        # dielectric functions.
        quad(lambda v: float(np.real(np.exp(1j * v) / (1.01 - v))), 0.0, 1.0)

    def sample(self):
        """Time the probe once now."""
        t0 = perf_counter()
        self._work()
        t1 = perf_counter()
        self.mids.append(0.5 * (t0 + t1))
        self.times.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def maybe(self):
        """Time the probe if PROBE_EVERY_S has passed since the last one."""
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    def scale(self, start, end):
        """REFERENCE_S over the median time of the probes taken between
        `start` and `end`, plus NEIGHBOURS on either side."""
        lo = max(bisect_left(self.mids, start) - NEIGHBOURS, 0)
        hi = bisect_right(self.mids, end) + NEIGHBOURS
        return REFERENCE_S / statistics.median(self.times[lo:hi])

    def scaled(self, spans):
        """Sum of the (start, end, seconds) spans in reference seconds."""
        return sum(s * self.scale(a, b) for a, b, s in spans)
