"""Host-speed calibration: a fixed kernel timed between jobs.

On a shared virtual machine the CPU time a fixed piece of work takes
changes by up to 1.9x from one stretch of tens of seconds to the next,
and one whole run can sit in a slow or a fast stretch.  The benchmark
therefore times this kernel, which does not touch halfline_bethe, next to
the jobs, and reports job CPU time scaled by
(REFERENCE_S / kernel time nearby) ** e, with an exponent e measured for
each workload: an estimate of the time the job would have taken on a core
that runs the kernel in REFERENCE_S.  The kernel mixes what halfline_bethe
spends its time on: interpreted Python calls and arithmetic, small numpy
array operations and a chain of dense complex matrix products.  It
allocates no container objects, so the program's heap does not make it
slower through garbage collection.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the median CPU seconds of one `kernel()` call on the host the
# NOTES.md baseline was measured on.  A fixed constant, so that scaled times
# of two commits compare; changing it or the kernel redefines every timed
# metric.
REFERENCE_S = 0.014
# Scaled times use the median of this many nearby kernel samples.
WINDOW = 5

_SMALL = np.linspace(0.1, 1.0, 16) + 1j * np.linspace(1.0, 0.1, 16)
_DENSE = np.exp(1j * np.arange(128 * 128, dtype=float).reshape(128, 128) / 129.0)


def _step(x: float, i: int) -> float:
    return (x * 1.000001 + i) % 1000.0


def kernel() -> float:
    x = 0.0
    for i in range(26000):
        x = _step(x, i)
    v = _SMALL
    for _ in range(750):
        v = np.conj(v[::-1]) * 0.5 + v * 0.5
        x += float(np.abs(v).max())
    m = _DENSE
    for _ in range(12):
        m = _DENSE @ m
        m /= np.abs(m).max()
    x += float(m.real.sum())
    return x


def sample() -> float:
    """CPU seconds of one kernel call."""
    start = time.process_time()
    kernel()
    return time.process_time() - start


def factor(sample_s: float, exponent: float) -> float:
    """The factor that scales CPU time measured where the kernel took
    `sample_s`.  `exponent` is how strongly the work being scaled follows
    the kernel: measured per workload (NOTES.md), below 1 because a slow
    stretch slows the kernel more than most jobs."""
    return (REFERENCE_S / sample_s) ** exponent


def factors(samples, exponent: float) -> list[float]:
    """`factor` of the median of the WINDOW samples centred on each sample
    (fewer at the ends)."""
    half = WINDOW // 2
    return [factor(statistics.median(samples[max(0, i - half):i + half + 1]), exponent)
            for i in range(len(samples))]
