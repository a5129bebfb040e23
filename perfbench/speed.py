"""Calibration against the machine's speed of the moment.

On a shared machine the CPU runs the same code at speeds that differ by up
to 2x from one stretch of seconds to the next, in CPU time as much as in
wall time, so the slowdown is not time spent waiting and no timer of the
process escapes it. The benchmark therefore times a fixed kernel before
every op of a run, and reports the run's op times scaled to a reference
speed:

    scaled = measured * REFERENCE_S / median kernel time of the run

One factor serves all ops of a run: a single kernel time is too noisy to
scale the op next to it, and the median of a run's few dozen is not. Each
set-up probe is scaled by the mean of the kernel times just before and just
after it, and `setup_s` is the median of the scaled probes. A change of
the program still moves the scaled times in full, since the kernel calls
nothing of the library. The measured times stay in the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's usual time on a shared 2-core x86-64 machine (numpy 2.4,
# scipy 1.17); it only fixes the unit of the scaled times.
REFERENCE_S = 0.014
REPEATS = 3
_DATA = np.linspace(0.0, 1.0, 1 << 16)
# 8 MB, past a core's L2 cache: the library's large arrays live in L3 or
# memory, whose speed moves apart from the core's. Allocated once, so the
# kernel adds a constant 16 MB to peak RSS and no page faults to its time.
_BIG = np.linspace(1.0, 2.0, 1 << 20)
_OUT = np.empty_like(_BIG)


def _once() -> float:
    """Interpreter work, numpy FFT and ufunc work in cache, and ufunc passes
    over arrays past the core's cache, as the library does."""
    start = time.perf_counter()
    total = 0
    for i in range(40000):
        total += i * i % 7
    spectrum = np.fft.rfft(_DATA)
    np.log1p(np.abs(np.fft.irfft(spectrum * spectrum.conj()))).sum()
    for _ in range(4):
        np.sqrt(_BIG, out=_OUT)
        _OUT.sum()
    return time.perf_counter() - start


def kernel_s() -> float:
    """The kernel's time now: the fastest of REPEATS back-to-back runs."""
    return min(_once() for _ in range(REPEATS))


def factor(kernel_times) -> float:
    """What a run's measured times are multiplied by to scale them."""
    return REFERENCE_S / statistics.median(kernel_times)


