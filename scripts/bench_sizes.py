#!/usr/bin/env python3
"""Time every stage of key derivation and the cipher at several image sizes.

Writes ``BENCH_sizes.json``: for each size and each map-loop path (the
compiled loops, and the Python loops they reproduce), the median seconds
of each stage over ``REPS`` repetitions with the reference key, and the
peak RSS of the process.  Every (size, path) runs in a fresh process, so
one size's heap does not inflate the next one's peak, and every process
runs on one CPU, the highest this script may use: on a shared host the
CPUs' speeds differ, and a child free to land on either moves the table
from run to run.

    PYTHONPATH=src python3 scripts/bench_sizes.py [--out BENCH_sizes.json]

Stages, in the order ``derive_context`` runs them for one context:

* ``lshm_s``: ``iterate_lshm`` for the extraction arrays;
* ``quantize_s``: their quantizing in ``build_extraction_arrays``
  (``key_schedule._quantized``);
* ``context_s``: ``key_schedule._context_arrays``, the four keys, the
  operation matrix and the three S-boxes: one C call on the compiled path,
  and on the Python path the CLT loops, the quantizing and the argsorts;
* ``suite_s``: ``SubstitutionSuite``, the lookup tables of the S-boxes;
* ``derive_s``: the whole derivation, as ``derive_context`` runs it
  uncached;
* ``encrypt_s`` / ``decrypt_s`` / ``analyze_s``: ``encrypt_with_context``,
  ``decrypt_with_context`` and ``analyze`` on a seeded noise image.

``ru_maxrss_mb`` is the process's peak RSS after all repetitions.  At
2048² it follows the heap's allocation history, not the code under test:
two trees whose stages allocate alike have read 305 and 317 MB, and a
print per stage moved one to 297 MB.  A delta below about 5% there says
nothing; ``scripts/cap_round_trip.py`` gives the memory figure to quote.
The Python-loop runs switch the compiled library off the way the tests do, by
replacing ``_native.trusted``; a compiled run in which a routine group
runs its definitions exits with the cause rather than report those
timings under the compiled name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from xcross import _native, chaotic_maps, key_schedule, pipeline
from xcross.analysis import analyze
from xcross.key_schedule import reference_key
from xcross.sample_images import random_image
from xcross.substitution import SubstitutionSuite

SIZES = (64, 256, 1024, 2048)
REPS = 7
LOOPS = ("compiled", "python")
STAGES = ("lshm_s", "quantize_s", "context_s", "suite_s", "derive_s", "encrypt_s",
          "decrypt_s", "analyze_s")


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _quantize(xs, ys):
    """The two extraction arrays of the LSHM streams, quantized as
    ``build_extraction_arrays`` quantizes them."""
    return key_schedule._quantized(xs, 1e5, 256), key_schedule._quantized(ys, 1e5, 256)


def measure(side: int, loops: str) -> dict:
    """Median stage times at side x side and the peak RSS, in this process."""
    if loops == "python":
        _native.trusted = lambda group: None
    elif not all(map(_native.trusted, _native._CHECKS)):
        raise SystemExit(f"a routine group runs its definitions: {_native.failures}")
    key = reference_key()
    m = n = side
    plain = random_image(np.random.default_rng(0), (m, n))
    times: dict[str, list[float]] = {stage: [] for stage in STAGES}

    def record(stage, fn, *args):
        result, seconds = _timed(fn, *args)
        times[stage].append(seconds)
        return result

    for _ in range(REPS):
        xs, ys = record("lshm_s", chaotic_maps.iterate_lshm, key.lshm, (m // 2) * (n // 2) * 8)
        rea1, rea2 = record("quantize_s", _quantize, xs, ys)
        del xs, ys
        sboxes = record("context_s", key_schedule._context_arrays, key, rea1, rea2, m, n)[2]
        del rea1, rea2
        record("suite_s", SubstitutionSuite, sboxes)
        ctx = record("derive_s", pipeline._build_context, key, m, n)
        cipher = record("encrypt_s", pipeline.encrypt_with_context, plain, ctx)
        record("analyze_s", analyze, cipher)
        back = record("decrypt_s", pipeline.decrypt_with_context, cipher, ctx)
        if not np.array_equal(back, plain):
            raise SystemExit(f"round trip failed at {m}x{n}")
        del ctx, cipher, back
    result = {stage: round(statistics.median(values), 6) for stage, values in times.items()}
    result["ru_maxrss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("BENCH_sizes.json"))
    parser.add_argument("--child", nargs=2, metavar=("SIDE", "LOOPS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        side, loops = args.child
        print(json.dumps(measure(int(side), loops)))
        return 0

    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # the children inherit it
    sizes = {}
    for side in SIZES:
        row = {}
        for loops in LOOPS:
            proc = subprocess.run(
                [sys.executable, __file__, "--child", str(side), loops],
                stdout=subprocess.PIPE, check=True, text=True)
            row[loops] = json.loads(proc.stdout)
            print(f"{side}x{side} {loops}: derive {row[loops]['derive_s']:.3f} s, "
                  f"peak RSS {row[loops]['ru_maxrss_mb']:.0f} MB", file=sys.stderr)
        sizes[f"{side}x{side}"] = row
    report = {
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "numpy": np.__version__, "pinned_cpu": cpu},
        "reps": REPS,
        "unit": "seconds (median of reps); ru_maxrss_mb in MB",
        "sizes": sizes,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
