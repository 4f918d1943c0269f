"""Machine-speed calibration for overhead-bound timings.

Other tenants of a shared host slow this process down in phases that last
from seconds to minutes: the same ``sweep-small`` pass took between 2.6 s
and 4.4 s within three minutes on a 2-vCPU VM. The slowdown is not steal
time, so CPU time does not hide it. ``Speed`` times a fixed kernel of
small calls - many 8 x 8 ``eigh``, a batched einsum, a 320 x 320
Cholesky - before every few solves and after the last, and a calibrated
run reports each solve at the speed at which the kernel takes
``KERNEL_REF_S``:

    reported = measured * KERNEL_REF_S / sqrt(kernel before * kernel after)

where "before" and "after" are the samples that bracket the solve's group.
A sample next to the solves tracks the host better than one factor for
the whole run: over 21 passes of the sweep on a 2-vCPU VM, the spread
(coefficient of variation) of medians of three passes was 9% measured,
6% with one factor per run and 2.5% bracketed. Instance generation
(``setup_s``) is overhead-bound on every workload and is calibrated the
same way. The kernel does not call qipsolve, so a change to the program
cannot change it.

The kernel's arrays are at most 0.8 MB. Larger ones would perturb the
solves: an 8 MB array freed after each sample moves glibc's malloc
thresholds, and it cut qkd-desk's system time from 4 s to 0.5 s. With
this kernel, the sweep's solve times and page faults, and qkd-desk's
system time, stayed as without it. An allocation-free variant tracked
the sweep less well (one pass's spread 4.5% against 3.8%).

The kernel tracks the seconds-long solves of the BLAS-bound workloads
poorly: bracketing each type1-large solve doubled one pass's spread (4%
to 8%), and it helped qkd-desk only in noisy phases, so those report
measured seconds.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Typical kernel time on an idle 2-vCPU x86-64 VM (numpy 2.4 on OpenBLAS
# 0.3.31, one thread); calibrated timings are seconds at that speed.
KERNEL_REF_S = 0.0040
KERNEL_REPS = 3


class Speed:
    """Samples the fixed kernel; converts measured seconds to reference seconds."""

    def __init__(self):
        rng = np.random.default_rng(20190601)
        g = rng.standard_normal((320, 320))
        self._spd = g @ g.T + 320.0 * np.eye(320)
        self._batch = rng.standard_normal((128, 16, 16))
        self._weights = rng.standard_normal((16, 16))
        small = rng.standard_normal((150, 8, 8))
        self._small = list(small + small.transpose(0, 2, 1))
        self.samples = []

    def sample(self) -> None:
        """Record the fastest of a few kernel runs: the current speed, free of hiccups."""
        best = float("inf")
        for _ in range(KERNEL_REPS):
            t0 = time.perf_counter()
            np.linalg.cholesky(self._spd)
            np.einsum("bij,ij,cij->bc", self._batch, self._weights, self._batch,
                      optimize=True)
            for s in self._small:
                np.linalg.eigh(s)
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)

    def at_reference(self, seconds: float, before: int) -> float:
        """``seconds`` measured between samples ``before`` and ``before + 1``, at the reference speed."""
        return seconds * KERNEL_REF_S / math.sqrt(self.samples[before] * self.samples[before + 1])

    def factor(self) -> float:
        """Median multiplier from measured seconds to seconds at the reference speed."""
        return KERNEL_REF_S / statistics.median(self.samples)
