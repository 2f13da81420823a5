#!/usr/bin/env python3
"""Round-trip one image at the pixel cap within a time and memory budget.

The PGM reader accepts images of up to ``MAX_PIXELS`` = 2**24 pixels
(4096x4096).  In one fresh process this script derives the reference
key's context at that size, encrypts and decrypts a seeded noise image
with it, and fails unless the round trip is exact and both budgets hold:

* ``WALL_BUDGET_S`` = 30 s for derive + encrypt + decrypt.  Measured with
  the compiled library on a 2-core x86-64 host (Python 3.11, NumPy 2.4):
  derive 6.2-6.6 s, encrypt 0.64-0.69 s, decrypt 0.51-0.55 s, 7.4-7.8 s
  in all.  The budget is four times that, room for a slower CI runner.
  The Python loops with the NumPy sort and gather took 39 s on that host.
* ``RSS_BUDGET_MB`` = 1024 MB of peak RSS (``ru_maxrss``).  Measured:
  835 MB with the compiled library, 898 MB without.  The budget leaves
  about 20% for allocator and NumPy-version differences; at this size one
  int32 extraction key is 134 MB and one float64 LSHM stream 268 MB, so
  keys widened to int64 or a stream kept alive too long break it.

Both budgets are set from the compiled path, so the script exits with the
cause when the compiled library did not load rather than time the Python
loops against them.

    PYTHONPATH=src python3 scripts/cap_round_trip.py
"""

from __future__ import annotations

import math
import resource
import sys
import time

import numpy as np

from xcross import chaotic_maps, pipeline
from xcross.key_schedule import MAX_PIXELS, reference_key
from xcross.sample_images import random_image

WALL_BUDGET_S = 30.0
RSS_BUDGET_MB = 1024.0


def main() -> int:
    side = math.isqrt(MAX_PIXELS)
    if chaotic_maps._kernel() is None:
        raise SystemExit(f"the compiled library did not load: {chaotic_maps._kernel_failure}")
    plain = random_image(np.random.default_rng(0), (side, side))
    start = time.perf_counter()
    ctx = pipeline.derive_context(reference_key(), side, side)
    derived = time.perf_counter()
    cipher = pipeline.encrypt_with_context(plain, ctx)
    encrypted = time.perf_counter()
    back = pipeline.decrypt_with_context(cipher, ctx)
    end = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = end - start
    print(f"{side}x{side}: derive {derived - start:.2f} s, encrypt {encrypted - derived:.2f} s, "
          f"decrypt {end - encrypted:.2f} s, total {wall:.2f} s (budget {WALL_BUDGET_S:.0f} s), "
          f"peak RSS {rss_mb:.0f} MB (budget {RSS_BUDGET_MB:.0f} MB)", file=sys.stderr)
    failures = []
    if not np.array_equal(back, plain):
        failures.append("the round trip changed the image")
    if wall > WALL_BUDGET_S:
        failures.append(f"took {wall:.2f} s, over the {WALL_BUDGET_S:.0f} s budget")
    if rss_mb > RSS_BUDGET_MB:
        failures.append(f"peak RSS {rss_mb:.0f} MB, over the {RSS_BUDGET_MB:.0f} MB budget")
    if failures:
        raise SystemExit("; ".join(failures))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
