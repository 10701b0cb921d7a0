"""Speed probe: machine-speed normalisation for timings on a shared host.

On the 2-vCPU Intel Xeon virtual machine this benchmark was defined on,
the same operation's wall time swings by 20-40% within a minute as other
tenants load the host.
The probe runs a small fixed numpy kernel (no discosc code) every PERIOD_S
seconds from a SIGALRM handler, while the timed call runs, and records how
long each kernel took.  Over ten back-to-back rounds the per-operation wall
times of the lattice build, the 20k-point eval and the growth table spread
by 14-19% (standard deviation of log time) and tracked the mean kernel time
during the same operation with correlation 0.97-0.98; divided by it, they
spread by 3-5%.  So a timed interval is reported as normalised seconds

    (wall - probe time inside it) * REF_S / mean(kernel time around it),

the seconds it would take when one kernel run takes REF_S.  Intervals too
short to contain enough samples use the samples nearest to them; bursts of
samples are taken between intervals for that.  Raw wall times stay in the
per-run report.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

PERIOD_S = 0.1
# Kernel time on that machine in its fast phase (Intel Xeon, 2 vCPUs): a
# fixed constant, so normalised seconds read close to wall seconds there.
REF_S = 0.004
MIN_SAMPLES = 10


class SpeedProbe:
    """Kernel: two complex log/exp/divide/row-sum passes over a 64 x 368
    array (the shape of one node's residue contour at N = 368) and 100
    numpy calls on 50-element arrays (the per-call overhead of
    single-point evaluations)."""

    def __init__(self):
        g = np.random.default_rng(0)
        self.mid = (g.random((64, 368)) - 0.5) + 1j * (
            g.random((64, 368)) - 0.5) + 1.5
        self.small = self.mid[0, :50].copy()
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self._busy = False

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        for _ in range(2):
            y = np.exp(np.log(self.mid) * 0.5)
            (y / (self.mid + 1.0)).sum(axis=-1)
        for _ in range(100):
            np.sum(np.exp(np.log(self.small) * 0.5) / (self.small + 1.0))
        self.samples.append((t0, time.perf_counter() - t0))
        self._busy = False

    def burst(self, n: int = 3) -> None:
        for _ in range(n):
            self.sample()

    @contextlib.contextmanager
    def running(self):
        """Sample every PERIOD_S seconds from SIGALRM until the block ends."""
        old = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, old)

    def normalise(self, t0: float, t1: float) -> tuple[float, float]:
        """(busy seconds, normalised seconds) of the interval [t0, t1]:
        wall minus the probe's own time inside it, scaled by REF_S over
        the mean kernel time inside it, or nearest to it when fewer than
        MIN_SAMPLES fall inside."""
        inside = [(s, d) for s, d in self.samples if t0 <= s < t1]
        busy = (t1 - t0) - sum(d for _, d in inside)
        near = inside if len(inside) >= MIN_SAMPLES else sorted(
            self.samples, key=lambda sd: max(t0 - sd[0], sd[0] - t1, 0.0)
        )[:MIN_SAMPLES]
        speed = sum(d for _, d in near) / len(near)
        return busy, busy * REF_S / speed
