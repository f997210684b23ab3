"""Host speed, sampled between ops, to take the host's drift out of times.

On a shared host the core a benchmark runs on slows and speeds up by up
to twice, in phases from a second to about a minute; process CPU time
tracks wall time through them, so it is the core that slows, not the
scheduler that takes it away.  A run of tens of seconds then reads as
fast or slow by the phase it fell in.  Small dense linear algebra and
interpreter work slow down together: the time of a fixed kernel of both,
sampled between ops at most every ``PERIOD_S``, gives the host's speed at that
moment, and ``Gauge.scale`` turns a wall time into the time it would
have taken on a host that runs the kernel in ``REFERENCE_S``.

The kernel uses numpy only, never the library, so no change to the
library moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# kernel time on the reference host, one core of a 2-vCPU KVM guest with
# scipy-openblas 0.3.31 pinned to one thread, near its fastest
REFERENCE_S = 2.2e-3
# seconds between samples during a run, and how far either side of an op
# its samples may lie
PERIOD_S = 0.2
WINDOW_S = 2.0

_rng = np.random.default_rng(0)
_M = _rng.normal(size=(6, 6)) + 1j * _rng.normal(size=(6, 6))
_H = _M @ _M.conj().T
_V = _rng.normal(size=(36, 36)) + 1j * _rng.normal(size=(36, 36))


def kernel() -> None:
    """A fixed mix of small eigensolves, products and Python arithmetic,
    the kinds of work the library's ops are made of."""
    acc = 0.0
    for i in range(60):
        w, v = np.linalg.eigh(_H)
        acc += float(((v * w) @ v.conj().T).real.trace())
        acc += float(np.abs(_V @ _V[:, i % 36]).sum())
        for j in range(150):
            acc += (i * j) % 7 * 0.5
    if acc != acc:
        raise ArithmeticError("calibration kernel produced NaN")


class Gauge:
    """Samples of the kernel's time, taken by ``sample`` or, at most every
    ``PERIOD_S``, by ``tick``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._last = -float("inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self._last = t1

    def tick(self) -> None:
        if time.perf_counter() - self._last >= PERIOD_S:
            self.sample()

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` spent between ``start`` and ``end``, at reference
        speed: scaled by the median kernel time of the samples within
        ``WINDOW_S`` of that interval (of the nearest sample if none)."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - (start + end) / 2))[1]]
        return seconds * REFERENCE_S / statistics.median(near)
