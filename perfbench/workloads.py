"""The three workloads of the xcross benchmark.

Each workload is one closed-loop client: it runs its next op only after the
previous one has finished.  An op is everything done for one input, and it
checks its own outputs: a byte-exact round trip always, and for the CLI
exit code 0 and byte-equal decrypted files.  Inputs (images and keys) are
generated here from the workload seed; xcross only ever sees the images and
the key material or key files.  Program functions are looked up through
their modules at call time, so the tracer's wrappers see these calls too.

Image generators use integer arithmetic and stable sorts only, so the inputs
of a seed, and with them the pinned ciphertext digests, do not depend on
floating-point details of the NumPy build.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from xcross import analysis, key_schedule, pipeline

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launch.py"

#: A CLI child that runs longer than this is killed and its op fails.
CHILD_TIMEOUT_S = 120.0

#: Key fields on the LSHM x side; a 1e-10 nudge to any of them avalanches
#: unless the key sits in a periodic window.
X_SIDE_FIELDS = ("x0", "k1", "alpha", "beta")
NUDGE = 1e-10


def texture(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Smooth, photo-like texture with an exactly uniform histogram."""
    field = rng.integers(0, 256, size=shape, dtype=np.int64)
    for _ in range(2):  # two box blurs of width 9 on each axis
        for axis in (0, 1):
            field = sum(np.roll(field, d, axis=axis) for d in range(-4, 5))
    order = np.argsort(field, axis=None, kind="stable")
    flat = np.empty(field.size, dtype=np.uint8)
    flat[order] = np.arange(field.size, dtype=np.int64) * 256 // field.size
    return flat.reshape(shape)


def noise(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Uniform white noise."""
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


def pgm_bytes(img: np.ndarray) -> bytes:
    """The canonical P5 form, which is also what `xcross decrypt` writes."""
    h, w = img.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + img.tobytes()


def _timed(calls: dict, name: str, fn, *args):
    start = time.monotonic()
    out = fn(*args)
    calls[name].append(time.monotonic() - start)
    return out


def _image_pool(rng: np.random.Generator, shapes) -> list[np.ndarray]:
    return [(texture if i % 2 == 0 else noise)(rng, shape) for i, shape in enumerate(shapes)]


@dataclasses.dataclass
class OpResult:
    ok: bool
    pixels: int
    digest: str
    info: dict = dataclasses.field(default_factory=dict)


class StreamOneKey:
    """Library batch user: one key derived in setup, many large images.

    Setup parses one key file and derives its `CipherContext` for 1024²;
    ops run `encrypt_with_context` -> `analyze` -> `decrypt_with_context`,
    so all op time is in the transform and analysis layers.
    """

    name = "stream_one_key_1024"
    reference = "numpy"  # ops are gathers and scatters over 1024² images

    def __init__(self, side: int, min_ops: int) -> None:
        self.shapes = [(side, side)] * 4
        self.min_ops = min_ops
        self.images: list[np.ndarray] = []
        self.ctx = None

    def setup(self, rng: np.random.Generator) -> None:
        self.ctx = None  # so a repeated setup does not hold two contexts
        key_text = key_schedule.serialize_key(key_schedule.random_key_material(rng))
        key = key_schedule.parse_key(key_text)
        self.images = _image_pool(rng, self.shapes)
        self.ctx = pipeline.derive_context(key, *self.shapes[0])

    def op(self, i: int, rng, tracer, calls: dict) -> OpResult:
        img = self.images[i % len(self.images)]
        cipher = _timed(calls, "encrypt", pipeline.encrypt_with_context, img, self.ctx)
        report = _timed(calls, "analyze", analysis.analyze, cipher)
        plain = _timed(calls, "decrypt", pipeline.decrypt_with_context, cipher, self.ctx)
        ok = np.array_equal(plain, img) and _report_ok(report, cipher.size)
        return OpResult(ok, img.size, hashlib.sha256(cipher.tobytes()).hexdigest())


class SensitivitySweep:
    """The paper's key/plaintext sensitivity evaluation over many keys at 64².

    Each op draws key k and key k' (one x-side scalar nudged by 1e-10), then
    calls the public `encrypt`/`decrypt`: P under k, P with one pixel flipped
    under k, P under k', and the k-ciphertext under k and under k'.  3 of
    the 5 calls repeat a (key, shape) already seen, and at 64² the per-key
    transients and S-box streams are about half of all map steps.  NPCR is
    recorded as information only: some keys sit in periodic windows.
    """

    name = "sensitivity_sweep_64"
    reference = "python"  # ops are mostly scalar map recurrences

    def __init__(self, side: int, min_ops: int) -> None:
        self.shapes = [(side, side)] * 8
        self.min_ops = min_ops
        self.images: list[np.ndarray] = []

    def setup(self, rng: np.random.Generator) -> None:
        self.images = _image_pool(rng, self.shapes)

    def op(self, i: int, rng, tracer, calls: dict) -> OpResult:
        plain = self.images[i % len(self.images)]
        key = key_schedule.parse_key(
            key_schedule.serialize_key(key_schedule.random_key_material(rng)))
        field = X_SIDE_FIELDS[int(rng.integers(len(X_SIDE_FIELDS)))]
        lshm = dataclasses.replace(key.lshm, **{field: getattr(key.lshm, field) + NUDGE})
        nudged = dataclasses.replace(key, lshm=lshm)
        flipped = plain.copy()
        flipped.flat[int(rng.integers(plain.size))] ^= 1

        cipher = _timed(calls, "encrypt", pipeline.encrypt, plain, key)
        cipher_flip = _timed(calls, "encrypt", pipeline.encrypt, flipped, key)
        cipher_nudge = _timed(calls, "encrypt", pipeline.encrypt, plain, nudged)
        report = _timed(calls, "analyze", analysis.analyze, cipher)
        back = _timed(calls, "decrypt", pipeline.decrypt, cipher, key)
        wrong = _timed(calls, "decrypt", pipeline.decrypt, cipher, nudged)

        # a bijective cipher must map distinct plaintexts apart
        ok = (np.array_equal(back, plain) and not np.array_equal(cipher, cipher_flip)
              and _report_ok(report, cipher.size))
        digest = hashlib.sha256(
            cipher.tobytes() + cipher_flip.tobytes() + cipher_nudge.tobytes()).hexdigest()
        info = {
            "npcr_plain": float(np.mean(cipher != cipher_flip)),
            "npcr_key": float(np.mean(cipher != cipher_nudge)),
            "npcr_wrong_key_decrypt": float(np.mean(wrong != plain)),
        }
        return OpResult(ok, plain.size, digest, info)


class CliFreshKey:
    """What a CLI user feels: a fresh key and three `xcross` processes per image.

    For each image the benchmark writes a fresh key file, then runs
    `xcross encrypt --pad`, `xcross analyze --format csv` and
    `xcross decrypt`, each as its own `python -m xcross` process.  Some sides
    are not multiples of 4, so the pad/crop path runs.  No process sees a
    key twice.  Traced ops start the children through `launch.py`.
    """

    name = "cli_fresh_key_256"
    reference = "python"  # ops are interpreter start-up and scalar map recurrences

    def __init__(self, shapes, min_ops: int, workdir: Path, env: dict,
                 spans_path: Path) -> None:
        self.shapes = list(shapes)
        self.min_ops = min_ops
        self.workdir = workdir
        self.env = env
        self.spans_path = spans_path
        self.plain_paths: list[Path] = []

    def setup(self, rng: np.random.Generator) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.plain_paths = []
        for j, img in enumerate(_image_pool(rng, self.shapes)):
            path = self.workdir / f"plain{j}.pgm"
            path.write_bytes(pgm_bytes(img))
            self.plain_paths.append(path)

    def _xcross(self, calls: dict, tracer, command: str, *argv: str):
        env, cmd = self.env, [sys.executable, "-m", "xcross", command, *argv]
        with tracer.region(f"bench.{command}") if tracer else nullcontext():
            if tracer:
                cmd = [sys.executable, str(LAUNCHER), command, *argv]
                env = dict(env, XBENCH_PARENT=tracer.current(), XBENCH_OP=tracer.op,
                           XBENCH_SPANS=str(self.spans_path),
                           XBENCH_SPAWN=repr(time.monotonic()))
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=self.workdir, env=env, capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)
            calls[command].append(time.monotonic() - start)
        if proc.returncode != 0:
            sys.stderr.write(f"xcross {command} exited {proc.returncode}: "
                             f"{proc.stderr.decode(errors='replace').strip()}\n")
        return proc

    def op(self, i: int, rng, tracer, calls: dict) -> OpResult:
        plain_path = self.plain_paths[i % len(self.plain_paths)]
        h, w = self.shapes[i % len(self.shapes)]
        key_path, cipher_path, out_path = (self.workdir / f"op{i}.{ext}"
                                           for ext in ("key", "enc.pgm", "dec.pgm"))
        key_text = key_schedule.serialize_key(key_schedule.random_key_material(rng))
        key_path.write_text(key_text, encoding="ascii")
        try:
            enc = self._xcross(calls, tracer, "encrypt", "--in", str(plain_path),
                               "--out", cipher_path.name, "--key", key_path.name, "--pad")
            if enc.returncode != 0:
                return OpResult(False, h * w, "")
            cipher = cipher_path.read_bytes()
            ana = self._xcross(calls, tracer, "analyze", "--in", cipher_path.name,
                               "--format", "csv")
            dec = self._xcross(calls, tracer, "decrypt", "--in", cipher_path.name,
                               "--out", out_path.name, "--key", key_path.name)
            padded = (-(-h // 4) * 4) * (-(-w // 4) * 4)
            ok = (ana.returncode == 0 and dec.returncode == 0
                  and _csv_ok(ana.stdout.decode("ascii"), padded)
                  and out_path.read_bytes() == plain_path.read_bytes())
            return OpResult(ok, h * w, hashlib.sha256(cipher).hexdigest())
        finally:
            for path in (key_path, cipher_path, out_path):
                path.unlink(missing_ok=True)


def _report_ok(report, pixels: int) -> bool:
    return int(report.histogram.sum()) == pixels and 0.0 <= report.entropy <= 8.0


def _csv_ok(text: str, pixels: int) -> bool:
    rows = dict(line.split(",", 1) for line in text.splitlines()[1:])
    bins = sum(int(v) for k, v in rows.items() if k.startswith("histogram_"))
    return bins == pixels and 0.0 <= float(rows["entropy"]) <= 8.0


#: Input sizes per scale; "tiny" exists for the benchmark's own smoke tests.
SCALES = {
    "full": {"cli": ((256, 256), (255, 257), (257, 254), (254, 255)),
             "stream": 1024, "sweep": 64, "min_ops": {"cli": 4, "stream": 8, "sweep": 16}},
    "tiny": {"cli": ((16, 16), (15, 17)),
             "stream": 32, "sweep": 16, "min_ops": {"cli": 2, "stream": 2, "sweep": 2}},
}

NAMES = (CliFreshKey.name, StreamOneKey.name, SensitivitySweep.name)


def make(name: str, scale: str, workdir: Path, env: dict, spans_path: Path):
    """Build workload `name` at `scale` ("full" or "tiny")."""
    s = SCALES[scale]
    if name == CliFreshKey.name:
        return CliFreshKey(s["cli"], s["min_ops"]["cli"], workdir, env, spans_path)
    if name == StreamOneKey.name:
        return StreamOneKey(s["stream"], s["min_ops"]["stream"])
    if name == SensitivitySweep.name:
        return SensitivitySweep(s["sweep"], s["min_ops"]["sweep"])
    raise ValueError(f"unknown workload {name!r}")


def child_env(src: Path) -> dict:
    """Environment for xcross child processes: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["XCROSS_NO_COLOR"] = "1"
    return env
