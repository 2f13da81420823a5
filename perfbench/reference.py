"""Reference kernels that put the benchmark's timings on a fixed host speed.

A shared host changes speed under the benchmark: on the 2-vCPU sandbox the
bounds were set on, a fixed scalar Python loop ran 1.5 to 1.7 times slower for
minutes at a time, and a 30-second run could fall wholly in a slow or a fast
spell.  Wall-clock medians then differ between runs by more than any useful
bound, although the program did the same work.

So the benchmark times a fixed reference kernel (the median of three runs)
right before and right after every timed piece of work, and scales that
work's wall time by ``REFERENCE_S[kind] / (mean of the two kernel times)``.  The result reads in
milliseconds (or seconds) at the host speed on which the kernel takes
``REFERENCE_S[kind]``, and a change to the program moves it exactly as it
moves the wall time, because the kernels use no xcross code.

The kernel must slow down the way the timed work does, so there are two:

* ``python``: a scalar float recurrence with ``math.cos``, the work of
  xcross's chaotic maps and of interpreter start-up;
* ``numpy``: over 2**19 random bytes, a gather and a scatter through a random
  permutation, a histogram of adjacent-byte pairs, and a float64
  variance in freshly allocated arrays: the work of the cipher's
  permutation layers and of ``analyze`` on a 1024² image.  The fresh
  arrays matter: on that host page faults slowed ``analyze`` by up to 40%
  in spells that left preallocated gathers untouched.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Median kernel times on the host the bounds were set on (Intel Xeon, 2 vCPUs,
#: Python 3.11, NumPy 2.4); scaled timings read close to wall time there.
REFERENCE_S = {"python": 0.0045, "numpy": 0.006}

_PYTHON_STEPS = 20_000
_NUMPY_BYTES = 1 << 19


class Reference:
    """One reference kernel, with the state it needs built once."""

    def __init__(self, kind: str) -> None:
        if kind not in REFERENCE_S:
            raise ValueError(f"unknown reference kernel {kind!r}")
        self.kind = kind
        if kind == "numpy":
            rng = np.random.default_rng(0)
            self._data = rng.integers(0, 256, _NUMPY_BYTES, dtype=np.uint8)
            self._perm = rng.permutation(_NUMPY_BYTES)
            self._out = np.empty_like(self._data)
        for _ in range(3):  # warm caches and allocator before the first timing
            self.time()

    def _run(self) -> float:
        if self.kind == "python":
            x = 0.3
            for _ in range(_PYTHON_STEPS):
                x = (3.99 * x * (1.0 - x) + 0.1 * math.cos(math.pi * x)) % 1.0
            return x
        data = self._data
        self._out[self._perm] = data[self._perm]
        pairs = np.bincount(data[:-1].astype(np.intp) * 256 + data[1:], minlength=65536)
        x = data.astype(np.float64)
        return float(((x - x.mean()) ** 2).mean()) + float(pairs[0]) + float(self._out[0])

    def time(self, runs: int = 3) -> float:
        """Seconds one run of the kernel takes now: the median of `runs` runs,
        so that one interrupted run does not skew the scale."""
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            self._run()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def scale(self, seconds: float, before: float, after: float) -> float:
        """`seconds` of wall time, timed between kernel runs `before` and `after`,
        at the reference host speed."""
        return seconds * REFERENCE_S[self.kind] / ((before + after) / 2)

