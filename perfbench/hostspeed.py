"""Host-speed calibration of the benchmark's timings.

The benchmark is meant for small shared hosts, where the speed of one core
drifts by tens of percent over seconds as other tenants come and go: the
same op, timed in wall-clock or CPU seconds alike, takes 110 ms in one
minute and 180 ms in the next.  A fixed reference kernel, timed between the
ops, drifts with it, and the ratio of op time to kernel time stays within a
few percent.  So every timing the benchmark reports is scaled by
``NOMINAL_S / measured kernel time``: it reads as it would on a host where
the kernel takes ``NOMINAL_S``.  The kernel uses only the standard library,
so no change to fpkit changes it, and the raw times and the factors are
printed beside the scaled metrics.

The kernel mixes the two kinds of work fpkit does: counting over
combinations of small integers with tuples and dicts (as the survey and the
identity checks do) and exact ``Fraction`` polynomial products (as the
algebra and genus layers do).

A spawned process may run on another core than the benchmark, so the
in-process kernel does not track it.  Cold starts are scaled instead by a
fresh interpreter that imports the standard-library modules fpkit uses,
spawned just before each one (``SPAWN_REFERENCE``).
"""

from __future__ import annotations

import itertools
import statistics
import time
from fractions import Fraction

#: Kernel seconds of the nominal host: about the median on a 2-core
#: x86-64 sandbox at 2.0 GHz with CPython 3.11.
NOMINAL_S = 0.006
#: Share of op time spent timing the kernel, interleaved with the ops.
SHARE = 0.05
#: The reference process for cold starts, and its seconds on the nominal host.
SPAWN_REFERENCE = (
    "import argparse, concurrent.futures, dataclasses, fractions, functools, "
    "itertools, json, math, random, typing"
)
NOMINAL_SPAWN_S = 0.09

_LEFT = [Fraction(k, k + 1) for k in range(32)]
_RIGHT = [Fraction(1, k + 2) for k in range(32)]


def kernel() -> tuple:
    counts: dict = {}
    for combo in itertools.combinations_with_replacement(range(-6, 7), 3):
        key = (sum(combo) % 7, len(set(combo)))
        counts[key] = counts.get(key, 0) + 1
    product = [Fraction(0)] * (len(_LEFT) + len(_RIGHT) - 1)
    for i, x in enumerate(_LEFT):
        for j, y in enumerate(_RIGHT):
            product[i + j] += x * y
    return len(counts), product[len(_LEFT)]


def sample() -> float:
    """Seconds of one kernel call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Meter:
    """Kernel samples taken between ops, kept at ``SHARE`` of op time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._op_s = 0.0
        self._kernel_s = 0.0

    def after_op(self, op_seconds: float) -> None:
        self._op_s += op_seconds
        while not self.samples or self._kernel_s < SHARE * self._op_s:
            self.samples.append(sample())
            self._kernel_s += self.samples[-1]

    def factor(self) -> float:
        """``NOMINAL_S`` over the mean kernel time; then start afresh."""
        samples = self.samples or [sample()]
        self.samples, self._op_s, self._kernel_s = [], 0.0, 0.0
        return NOMINAL_S / statistics.fmean(samples)


def factor(samples: int = 20) -> float:
    """A factor from ``samples`` kernel calls made now."""
    return NOMINAL_S / statistics.fmean(sample() for _ in range(samples))
