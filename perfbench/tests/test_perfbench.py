"""The benchmark's own tests: tiny-size smoke runs and the correctness gate.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from xcross import pipeline  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# What the traced run must show for each workload: (metric, expected value or
# ">0").  These are the layer splits the workloads were chosen for.
LAYER_EXPECTATIONS = {
    "cli_fresh_key_256": [("cli.startup_s", ">0"), ("chaotic_maps.lshm_s", ">0"),
                          ("image_io.parse_s", ">0"), ("pipeline.repeat_key_share", 0.0),
                          ("pipeline.derive_calls", 2.0)],
    "stream_one_key_1024": [("chaotic_maps.lshm_s", 0.0), ("pipeline.derive_calls", 0.0),
                            ("ibt.stage_s", ">0"), ("ibt.unstage_s", ">0"),
                            ("setup.derive_context_s", ">0"),
                            ("pipeline.repeat_key_share", 1.0)],
    "sensitivity_sweep_64": [("chaotic_maps.lshm_s", ">0"), ("pipeline.derive_calls", 5.0),
                             ("pipeline.repeat_key_share", 0.6), ("cli.startup_s", 0.0)],
}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0",
                  "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr.decode()
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], float)
        if not trace:
            assert printed["value"] > 0, m["name"]
    if trace:
        for name, want in LAYER_EXPECTATIONS[workload]:
            value = result["metrics"][name]["value"]
            assert value > 0 if want == ">0" else value == pytest.approx(want), name


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_wrong_pinned_digest_fails_the_op(workload):
    result, info = run.run(workload, seed=5, seconds=0, trace=False, scale="tiny",
                           pinned=["0" * 64])
    assert info["failed_ops"] == [0]
    assert result["failed"] == 1 and result["correct"] is False


def test_corrupted_ciphertext_fails_every_op(monkeypatch):
    real = pipeline.encrypt

    def corrupting(img, key, **kw):
        out = real(img, key, **kw).copy()
        out.flat[0] ^= 0x80
        return out

    monkeypatch.setattr(pipeline, "encrypt", corrupting)
    result, _ = run.run("sensitivity_sweep_64", seed=5, seconds=0, trace=False, scale="tiny")
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_untraced_run_reports_wall_clock_beside_scaled_times(workload):
    result, info = run.run(workload, seed=5, seconds=0, trace=False, scale="tiny")
    assert info["reference"]["kernel"] in reference.REFERENCE_S
    assert info["reference"]["median_s"] > 0
    assert len(info["setup_s_samples"]) == len(info["setup_wall_s_samples"]) >= run.SETUP_MIN
    assert info["wall"]["op_p50_ms"] > 0 and info["wall"]["setup_s"] > 0


@pytest.mark.parametrize("kind", sorted(reference.REFERENCE_S))
def test_reference_scale_removes_host_speed(kind):
    ref = reference.Reference(kind)
    base = reference.REFERENCE_S[kind]
    assert ref.time() > 0
    assert ref.scale(0.2, base, base) == pytest.approx(0.2)
    # the same work on a host at half speed: twice the wall time, same scaled time
    assert ref.scale(0.4, 2 * base, 2 * base) == pytest.approx(0.2)


def test_csv_check_rejects_a_short_histogram():
    rows = ["metric,value", "entropy,7.9"] + [f"histogram_{v:03d},1" for v in range(256)]
    assert workloads._csv_ok("\n".join(rows), 256)
    assert not workloads._csv_ok("\n".join(rows[:-1]), 256)


def test_pinned_digests_cover_the_first_ops_of_each_full_workload():
    pins = json.loads(run.PINNED.read_text(encoding="utf-8"))["workloads"]
    for name in workloads.NAMES:
        wl = workloads.make(name, "full", BENCH / "work", {}, BENCH / "work" / "x")
        assert pins[name]["shapes"] == [list(s) for s in wl.shapes]
        assert len(pins[name]["ciphertext_sha256"]) == wl.min_ops


def test_inputs_depend_only_on_the_seed():
    a = workloads.texture(np.random.default_rng([3, 0]), (32, 16))
    b = workloads.texture(np.random.default_rng([3, 0]), (32, 16))
    assert np.array_equal(a, b)
    assert np.all(np.bincount(a.ravel(), minlength=256) == 2)  # uniform histogram


@pytest.mark.parametrize("n, q", [(5, 50), (20, 50), (21, 52), (100, 90), (1000, 99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    samples = [float(v) for v in range(n)]
    value, got = run.tail(samples)
    assert got == q
    if n >= 20:
        assert sum(s > value for s in samples) >= 10


def test_exits_nonzero_without_the_program_sources():
    bare = BENCH / "work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH.glob("*.*"):
            shutil.copy(path, bare / "perfbench")
        proc = _bench("--workload", "stream_one_key_1024", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == b""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
