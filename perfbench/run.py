#!/usr/bin/env python3
"""The xcross benchmark: one workload, one fresh process, one JSON result.

    python3 perfbench/run.py --workload cli_fresh_key_256 --seed 1 --seconds 30 --trace 0

Run from a checkout: the benchmark imports xcross from the checkout's
``src/`` and nowhere else, and exits with status 2 if that tree is missing.

``--trace 0`` sets up the workload several times (median reported as
``setup_s``), then runs ops back to back for ``--seconds`` and reports the
end-to-end metrics of BENCHMARK.json.  Each set-up and each op is timed
between two runs of a reference kernel and reported at the reference host
speed (see ``reference.py``); the wall-clock figures go to the run facts.
The run and every process it starts stay on one CPU.  ``--trace 1`` sets up once under the
tracer and alternates untraced and traced ops; it reports the per-layer
metrics, averaged per traced op, and the tracing overhead.

Every op checks its outputs.  At the default seed and full scale, the
ciphertexts of the first ops must also match the SHA-256 digests pinned in
``pinned.json``; a mismatch fails the op.  Failed ops count in ``failed``.

The last line of standard output is the result object; the line before it
holds run facts (machine, seed, shapes, sample counts, tail percentile,
digests).  Both are also written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
PINNED = HERE / "pinned.json"

#: An untraced run sets up at least SETUP_MIN times and until SETUP_SPAN_S
#: seconds of set-up are measured (at most SETUP_MAX times); `setup_s` is the
#: median.  Short set-ups (a second interpreter's start-up) vary most.
SETUP_MIN, SETUP_MAX, SETUP_SPAN_S = 3, 15, 2.0


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples above it.

    Nearest-rank; never below the median.  Returns (value, percentile).
    """
    ordered = sorted(samples)
    n = len(ordered)
    q = max(50, 100 * (n - 10) // n) if n > 10 else 50
    return max(ordered[max(0, math.ceil(q * n / 100) - 1)], statistics.median(ordered)), q


def pin_to_one_cpu() -> dict:
    """Run this process, and every process it starts, on one CPU.

    One client needs one CPU, and the reference kernel must run where the
    timed work runs: CLI children otherwise land on either CPU, whose speeds
    differ on a shared host.  Returns the CPU facts for the run record.
    """
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    return {"nproc": len(allowed), "pinned_cpu": cpu}


def machine_facts(seed: int) -> dict:
    import numpy
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model or platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__, "seed": seed}


def _probe_imports(env: dict) -> None:
    """Start a fresh interpreter that imports the whole package, as a user's does."""
    subprocess.run([sys.executable, "-c", "import xcross.cli"], env=env, check=True,
                   timeout=120)


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        pinned: list[str] | None = None, cpus: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; return (result, info).  xcross must be importable."""
    import numpy as np

    import reference
    import tracer as tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = HERE / "work" / f"{workload}-{os.getpid()}"
    spans_path = work / "children.spans.jsonl"
    env = workloads.child_env(SRC)
    wl = workloads.make(workload, scale, work, env, spans_path)
    work.mkdir(parents=True, exist_ok=True)

    setup_tracer = tracing.Tracer(op="setup")
    op_tracer = tracing.Tracer(seen=setup_tracer.seen)
    setup_times, setup_wall = [], []
    traced_times: list[float] = []
    # (ok, wall seconds, factor to reference speed, per-call wall seconds)
    untraced: list[tuple[bool, float, float, dict]] = []
    kernel_times: list[float] = []
    digests, npcr, failed_ops = [], [], []
    pixels_done = 0
    try:
        if trace:
            setup_tracer.install()
            try:
                with setup_tracer.region("setup"):
                    wl.setup(np.random.default_rng([seed, 0]))
            finally:
                setup_tracer.uninstall()
        else:
            setup_ref = reference.Reference("python")  # set-up is start-up and derivation
            before = setup_ref.time()
            while len(setup_wall) < SETUP_MIN or (
                    sum(setup_wall) < SETUP_SPAN_S and len(setup_wall) < SETUP_MAX):
                start = time.monotonic()
                _probe_imports(env)
                wl.setup(np.random.default_rng([seed, 0]))
                wall = time.monotonic() - start
                after = setup_ref.time()
                setup_wall.append(wall)
                setup_times.append(setup_ref.scale(wall, before, after))
                before = after
            op_ref = reference.Reference(wl.reference)
            kernel_times.append(op_ref.time())

        i = 0
        begin = time.monotonic()
        while i < wl.min_ops or time.monotonic() - begin < seconds:
            traced = trace and i % 2 == 1
            op_calls = defaultdict(list)
            ok = False
            if traced:
                op_tracer.op = str(i)
                op_tracer.install()
            start = time.monotonic()
            try:
                with op_tracer.region("op") if traced else nullcontext():
                    res = wl.op(i, np.random.default_rng([seed, 1, i]),
                                op_tracer if traced else None, op_calls)
                ok = res.ok
                if not ok:
                    sys.stderr.write(f"op {i}: output check failed\n")
                if pinned is not None and i < len(pinned) and res.digest != pinned[i]:
                    sys.stderr.write(f"op {i}: ciphertext digest {res.digest} "
                                     f"!= pinned {pinned[i]}\n")
                    ok = False
                if i < wl.min_ops:
                    digests.append(res.digest)
                if "npcr_key" in res.info:
                    npcr.append(res.info)
            except Exception:  # an op that raises is a failed op; keep measuring
                traceback.print_exc()
            finally:
                elapsed = time.monotonic() - start
                if traced:
                    op_tracer.uninstall()
            if traced:
                if ok:
                    traced_times.append(elapsed)
            else:
                factor = 1.0
                if not trace:
                    kernel_times.append(op_ref.time())
                    factor = op_ref.scale(1.0, *kernel_times[-2:])
                untraced.append((ok, elapsed, factor, op_calls))
                if ok:
                    pixels_done += res.pixels
            if not ok:
                failed_ops.append(i)
            i += 1
        child_spans, child_counts = (tracing.load(str(spans_path)) if spans_path.exists()
                                     else ([], Counter()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass

    info = {
        "workload": workload, "scale": scale, "trace": int(trace), "seconds": seconds,
        "machine": {**machine_facts(seed), **(cpus or {})},
        "shapes": [list(s) for s in wl.shapes],
        "attempted": i, "failed_ops": failed_ops, "failed_op_ratio": len(failed_ops) / i,
        "ciphertext_sha256": digests,
        "digests_compared": pinned is not None,
        "setup_s_samples": setup_times,
        "setup_wall_s_samples": setup_wall,
    }
    if npcr:
        info["npcr"] = {k: statistics.mean(r[k] for r in npcr) for k in npcr[0]}
        info["keys_without_key_avalanche"] = sum(r["npcr_key"] < 0.99 for r in npcr)

    if trace:
        untraced_times = [t for ok, t, _, _ in untraced if ok]
        metrics = _layer_metrics(tracing, setup_tracer, op_tracer, child_spans, child_counts,
                                 traced_times, untraced_times)
        names = spec["per_layer"]
        info["samples"] = {"traced_ops": len(traced_times), "untraced_ops": len(untraced_times)}
    else:
        # latencies of the ops that passed their checks; of all ops if none did,
        # so that a broken run still reports (with correct=false)
        kept = [u for u in untraced if u[0]] or untraced
        lat = [t * f for _, t, f, _ in kept]
        calls = defaultdict(list)
        for _, _, f, op_calls in kept:
            for name, times in op_calls.items():
                calls[name].extend(t * f for t in times)
        op_tail, q = tail(lat)
        wall = [t for _, t, _, _ in kept]
        info["samples"] = {"ops": len(lat), **{k: len(v) for k, v in calls.items()}}
        info["op_tail_percentile"] = q
        info["reference"] = {"kernel": wl.reference,
                             "reference_s": reference.REFERENCE_S[wl.reference],
                             "median_s": statistics.median(kernel_times)}
        info["wall"] = {"setup_s": statistics.median(setup_wall),
                        "op_p50_ms": statistics.median(wall) * 1e3,
                        "throughput_mpix_s": pixels_done / 1e6 / sum(wall)}
        info["op_s"] = lat
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": op_tail * 1e3,
            "encrypt_p50_ms": statistics.median(calls["encrypt"]) * 1e3,
            "decrypt_p50_ms": statistics.median(calls["decrypt"]) * 1e3,
            "analyze_p50_ms": statistics.median(calls["analyze"]) * 1e3,
            "throughput_mpix_s": pixels_done / 1e6 / sum(lat),
            "peak_rss_mb": _peak_rss_mb(children=workload == workloads.CliFreshKey.name),
        }
        names = spec["end_to_end"]
    result = {
        "correct": not failed_ops,
        "attempted": i,
        "failed": len(failed_ops),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    return result, info


def _layer_metrics(tracing, setup_tracer, op_tracer, child_spans, child_counts,
                   traced_times, untraced_times) -> dict:
    """Per-layer metrics per traced op, setup totals, and the tracing overhead."""
    n = max(1, len(traced_times))
    ops = tracing.layer_metrics(op_tracer.spans + child_spans, op_tracer.counts + child_counts)
    setup = tracing.layer_metrics(setup_tracer.spans, setup_tracer.counts)
    out: dict[str, float] = defaultdict(float)
    for name, value in ops.items():
        out[name] = value / n
    for kind in ("lshm", "clt"):
        steps = ops[f"chaotic_maps.{kind}_steps"]
        out[f"chaotic_maps.{kind}_ns_per_step"] = (
            ops[f"chaotic_maps.{kind}_s"] / steps * 1e9 if steps else 0.0)
    key_calls = ops["pipeline.key_calls"]
    out["pipeline.repeat_key_share"] = ops["pipeline.key_repeats"] / key_calls if key_calls else 0.0
    out["setup.chaotic_maps_s"] = setup["chaotic_maps.self_s"]
    out["setup.key_schedule_s"] = setup["key_schedule.self_s"]
    out["setup.derive_context_s"] = setup["pipeline.derive_context_s"]

    own = tracing.self_times(op_tracer.spans + child_spans)
    bench = sum(own[s[0]] for s in op_tracer.spans if s[2] == "op" or s[2].startswith("bench."))
    traced = statistics.median(traced_times) if traced_times else 0.0
    untraced = statistics.median(untraced_times) if untraced_times else 0.0
    mean_op = sum(traced_times) / n
    busy = mean_op - out["cli.startup_s"]
    out["trace.op_s"] = traced
    out["trace.untraced_op_s"] = untraced
    out["trace.overhead_ms"] = (traced - untraced) * 1e3
    out["trace.overhead_share"] = (traced - untraced) / untraced if untraced else 0.0
    out["trace.unaccounted_s"] = bench / n
    out["trace.derivation_share"] = (
        sum(out[f"{layer}.self_s"] for layer in tracing.DERIVATION) / busy if busy > 0 else 0.0)
    out["trace.transform_share"] = (
        sum(out[f"{layer}.self_s"] for layer in tracing.TRANSFORM) / busy if busy > 0 else 0.0)
    return out


def _load_pinned(workload: str, seed: int, scale: str) -> list[str] | None:
    """Pinned digests apply at the default seed and full scale only."""
    pins = json.loads(PINNED.read_text(encoding="utf-8"))
    if scale != "full" or seed != pins["default_seed"]:
        return None
    return pins["workloads"][workload]["ciphertext_sha256"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the benchmark's smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "xcross" / "__init__.py").is_file():
        print(f"perfbench: no xcross sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    cpus = pin_to_one_cpu()  # before NumPy is imported, so its pools see one CPU
    sys.path.insert(0, str(SRC))
    import xcross
    if Path(xcross.__file__).resolve().parent != (SRC / "xcross").resolve():
        print(f"perfbench: imported xcross from {xcross.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2

    pinned = _load_pinned(args.workload, args.seed, args.scale)
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale,
                       pinned, cpus)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    out.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n", encoding="ascii")
    info.pop("op_s", None)  # per-op times go to the results file only
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
