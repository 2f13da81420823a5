"""Finite-precision iterators for the two chaotic maps driving the cipher.

Two maps are implemented:

* a 2D logistic-sine/Henon-style map (LSHM) producing the coupled
  ``x``/``y`` streams that the key schedule turns into extraction keys, and
* a combined logistic-tent map (CLT) producing the stream behind the
  operation-selection matrix and the S-boxes.

Everything here is deliberately plain binary64 arithmetic with a fixed
operation order.  Chaotic maps amplify a one-ulp difference exponentially,
so "mostly the same" arithmetic produces completely different key streams;
the only way two runs (or two implementations) agree is if every single
floating-point operation rounds identically.  Hence: no vectorized
transcendentals, no re-association, no fused multiply-add.

One Python loop per map, :func:`_lshm_loop` and :func:`_clt_loop`, is the
definition of both streams; :func:`lshm_step` and :func:`clt_step` are one
turn of that loop.  The same two loops also exist in C (``_maps.c``): they
mirror the Python loops, make the same libm calls in the same order and
are compiled without contraction.  The same library holds the
extraction-key sort of :mod:`~xcross.key_schedule` and the bit gather of
:mod:`~xcross.ibt`.  It is built on first use in a process and checked at
load: the C loops bit for bit against the Python loops, the sort and the
gather byte for byte against their NumPy definitions.  When it cannot be
built, loaded or trusted, the Python loops and the NumPy definitions run.
Both paths emit the same bytes, with one exception:
once a stream has overflowed to NaN (only for keys far outside the
operating ranges, such as ``k1=-1e308``), which NaN an operation returns
is the hardware's choice, so the paths can differ in NaN sign bits.
Every NaN quantizes to the same byte, so the derived keys do not differ.

Both iterators discard a fixed transient prefix so emitted values are
decorrelated from the raw seeds.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import platform
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyRequestError, ParameterError

#: Iterations discarded before any value is emitted.
TRANSIENT = 1000

#: C source of the compiled loops, key sort and bit gather.
_KERNEL_SOURCE = Path(__file__).with_name("_maps.c")

#: Steps of the reference key the compiled loops must reproduce at load.
_SELF_CHECK_STEPS = 300

#: Seconds a compile may take before the Python loops are used instead.
_COMPILE_TIMEOUT_S = 60

#: Why :func:`_kernel` gave None, or None while the compiled loops are in use.
_kernel_failure: str | None = None


def _require_finite(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class LshmParams:
    """Control parameters and seeds for the 2D LSHM map.

    The recurrence, iterated in binary64 exactly as written:

        x' = k1 * (1 + alpha * cos(pi*x)^beta)  mod 1
        y' = k2 * (cos(y) * (1 - x))

    ``x`` evolves autonomously and drives ``y``; ``y'`` uses the *previous*
    ``x``.  ``cos(pi*x)^beta`` is computed as ``sign(c) * |c|**beta`` so the
    map stays real-valued for non-integer ``beta`` while agreeing with the
    plain reading for integer exponents.  ``y`` is not reduced mod 1 and may
    leave [0, 1).
    """

    k1: float
    k2: float
    alpha: float
    beta: float
    x0: float
    y0: float

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "alpha", "beta", "x0", "y0"):
            _require_finite(f"lshm.{name}", getattr(self, name))
        if not 0.0 <= self.x0 < 1.0:
            raise ParameterError(f"lshm.x0 must lie in [0, 1), got {self.x0!r}")
        if self.beta < 1.0:
            raise ParameterError(f"lshm.beta must be >= 1, got {self.beta!r}")


@dataclass(frozen=True)
class CltParams:
    """Control parameters and seed for the combined logistic-tent map.

    The recurrence, branching on the current value:

        z < 0.5:   z' = (lam*z*(1-z) + alpha_c*z/2)      mod 1
        z >= 0.5:  z' = (lam*z*(1-z) + alpha_c*(1-z)/2)  mod 1

    ``lam`` must lie in (3.5, 4) and ``alpha_c`` in (2, 4); both ranges are
    open and checked at construction, as is ``z0`` in (0, 1).
    """

    lam: float
    alpha_c: float
    z0: float

    def __post_init__(self) -> None:
        _require_finite("clt.lambda", self.lam)
        _require_finite("clt.alpha", self.alpha_c)
        _require_finite("clt.z0", self.z0)
        if not 3.5 < self.lam < 4.0:
            raise ParameterError(f"clt.lambda must lie in (3.5, 4), got {self.lam!r}")
        if not 2.0 < self.alpha_c < 4.0:
            raise ParameterError(f"clt.alpha must lie in (2, 4), got {self.alpha_c!r}")
        if not 0.0 < self.z0 < 1.0:
            raise ParameterError(f"clt.z0 must lie in (0, 1), got {self.z0!r}")


def lshm_step(x: float, y: float, p: LshmParams) -> tuple[float, float]:
    """One application of the LSHM recurrence to the state ``(x, y)``."""
    xs, ys = [0.0], [0.0]
    _lshm_loop(None, xs, ys, x, y, p)
    return xs[0], ys[0]


def clt_step(z: float, p: CltParams) -> float:
    """One application of the CLT recurrence to the state ``z``."""
    zs = [0.0]
    _clt_loop(None, zs, z, p)
    return zs[0]


def iterate_lshm(params: LshmParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Emit ``n`` post-transient values of each LSHM stream.

    Returns the x-stream and y-stream as float64 arrays of length ``n``.
    Every x value lies in [0, 1); y values are unbounded.
    """
    if not isinstance(params, LshmParams):
        raise ParameterError("params must be LshmParams")
    n = _checked_count(n)
    xs, ys = np.empty(TRANSIENT + n), np.empty(TRANSIENT + n)
    _lshm_loop(_kernel(), xs, ys, params.x0, params.y0, params)
    return xs[TRANSIENT:], ys[TRANSIENT:]


def iterate_clt(params: CltParams, n: int) -> np.ndarray:
    """Emit ``n`` post-transient values of the CLT stream, all in [0, 1)."""
    if not isinstance(params, CltParams):
        raise ParameterError("params must be CltParams")
    n = _checked_count(n)
    zs = np.empty(TRANSIENT + n)
    _clt_loop(_kernel(), zs, params.z0, params)
    return zs[TRANSIENT:]


def _lshm_loop(lib: ctypes.CDLL | None, xs, ys, x: float, y: float, p: LshmParams) -> None:
    """Write the ``len(xs)`` LSHM states that follow ``(x, y)`` into ``xs``
    and ``ys``: by the C loop when ``lib`` is the compiled library (the
    buffers are then C-contiguous float64 arrays of one length), else by
    the Python loop."""
    if lib is not None:
        lib.xcross_lshm(xs.ctypes.data, ys.ctypes.data, len(xs),
                        x, y, p.k1, p.k2, p.alpha, p.beta, math.pi)
        return
    cos, pow_, abs_, pi = math.cos, math.pow, abs, math.pi
    k1, k2, alpha, beta = p.k1, p.k2, p.alpha, p.beta
    for i in range(len(xs)):
        c = cos(pi * x)
        t = pow_(abs_(c), beta)
        if c < 0.0:
            t = -t
        y = k2 * (cos(y) * (1.0 - x))
        # mod 1 with the two ways CPython's ``%`` can betray us fixed: for a
        # tiny negative v, ``v % 1.0`` returns exactly 1.0 (the excluded
        # endpoint), and a negative zero would compare equal to 0.0 but
        # print differently
        x = k1 * (1.0 + alpha * t) % 1.0
        if x >= 1.0:
            x = 0.0
        x += 0.0
        xs[i] = x
        ys[i] = y


def _clt_loop(lib: ctypes.CDLL | None, zs, z: float, p: CltParams) -> None:
    """Write the ``len(zs)`` CLT states that follow ``z`` into ``zs``: by
    the C loop when ``lib`` is the compiled library (``zs`` is then a
    C-contiguous float64 array), else by the Python loop."""
    if lib is not None:
        lib.xcross_clt(zs.ctypes.data, len(zs), z, p.lam, p.alpha_c)
        return
    lam, alpha_c = p.lam, p.alpha_c
    for i in range(len(zs)):
        if z < 0.5:
            z = lam * z * (1.0 - z) + alpha_c * z / 2.0
        else:
            z = lam * z * (1.0 - z) + alpha_c * (1.0 - z) / 2.0
        z %= 1.0  # fixed as in _lshm_loop
        if z >= 1.0:
            z = 0.0
        z += 0.0
        zs[i] = z


def _checked_count(n: int) -> int:
    if n == 0:
        raise EmptyRequestError("at least one iteration must be requested")
    if not isinstance(n, int) or n < 0:
        raise ParameterError(f"iteration count must be a positive integer, got {n!r}")
    return n


# ---------------------------------------------------------------------------
# the compiled loops


@functools.cache
def _kernel() -> ctypes.CDLL | None:
    """The compiled library of ``_maps.c``, or None when the Python loops
    and the NumPy sort and gather must run.

    Called on the first iteration, key sort or gather by an int32 key in a
    process, never at import.  Before the library is used its loops must
    reproduce the Python loops bit for bit on the reference key, and its
    sort and gather their NumPy definitions on that key's extraction arrays.
    No compiler, an unwritable cache, a failed compile or load, or a
    mismatch all give None, and the cause is kept in ``_kernel_failure``.
    """
    global _kernel_failure
    try:
        lib = ctypes.CDLL(os.fspath(_built_kernel()))
        lshm, clt = lib.xcross_lshm, lib.xcross_clt
        sort_keys, ibt = lib.xcross_sort_keys, lib.xcross_ibt
    except (OSError, AttributeError) as exc:
        _kernel_failure = f"{type(exc).__name__}: {exc}"
        return None
    lshm.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long] + [ctypes.c_double] * 7
    lshm.restype = None
    clt.argtypes = [ctypes.c_void_p, ctypes.c_long] + [ctypes.c_double] * 3
    clt.restype = None
    sort_keys.argtypes = [ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
    sort_keys.restype = None
    ibt.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long]
    ibt.restype = ctypes.c_int
    if not _kernel_matches_steps(lib):
        _kernel_failure = (f"{lib._name} differs from lshm_step/clt_step on the "
                           f"reference key within {_SELF_CHECK_STEPS} steps")
        return None
    if not _kernel_matches_numpy(lib):
        _kernel_failure = (f"{lib._name} differs from the NumPy key sort or bit gather "
                           f"on the reference key's 8x8 extraction arrays")
        return None
    _kernel_failure = None
    return lib


def _built_kernel() -> Path:
    """Path of the compiled library, compiling it first if it is missing.

    The library sits next to the ``.pyc`` files, named like them after the
    interpreter's cache tag and the machine, plus a hash of the source and
    the compile command.  It is compiled into a temporary file that then
    replaces into place, so concurrent first uses are safe; a new library
    removes this interpreter's libraries of older sources, libraries named
    ``_maps-<hash>.so`` by an earlier scheme, and the temporary files of
    killed compiles.  Whoever can write there can already rewrite
    the ``.py`` files.  Raises OSError when the library is missing and
    cannot be compiled.
    """
    # imported here: processes that never derive a key do not pay for them
    import hashlib

    digest = hashlib.sha256(
        b"\0".join([_KERNEL_SOURCE.read_bytes(), " ".join(_compile_command("cc", "")).encode()])
    ).hexdigest()
    cache = _KERNEL_SOURCE.with_name("__pycache__")
    prefix = f"_maps.{sys.implementation.cache_tag}-{platform.machine()}-"
    path = cache / f"{prefix}{digest[:8]}.so"
    if path.exists():
        return path
    import subprocess  # only a compile needs it

    cc = shutil.which("cc")
    if cc is None:
        raise FileNotFoundError("no C compiler on PATH")
    cache.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache, prefix="_maps.", suffix=".tmp")
    os.close(fd)
    try:
        # run beside the source, so the command (and the hash) holds no
        # absolute path and a moved checkout keeps its library
        subprocess.run(_compile_command(cc, tmp), check=True, capture_output=True,
                       cwd=_KERNEL_SOURCE.parent, timeout=_COMPILE_TIMEOUT_S)
        os.replace(tmp, path)
    except subprocess.SubprocessError as exc:
        stderr = (getattr(exc, "stderr", None) or b"").decode(errors="replace").strip()
        raise OSError(f"compiling {_KERNEL_SOURCE.name} failed: {exc} {stderr}".strip()) from exc
    finally:
        Path(tmp).unlink(missing_ok=True)
    stale_before = time.time() - _COMPILE_TIMEOUT_S
    for old in [*cache.glob(f"{prefix}*.so"), *cache.glob("_maps-*.so"),
                *cache.glob("_maps.*.tmp")]:
        with contextlib.suppress(OSError):
            if old != path and (old.suffix == ".so" or old.stat().st_mtime < stale_before):
                old.unlink()
    return path


def _compile_command(cc: str, out: str) -> list[str]:
    """Fixed flags only (``CFLAGS`` is not read): -ffp-contract=off stops the
    compiler fusing a multiply and an add into one rounding where the
    Python loop rounds twice.  Run in the source's directory."""
    return [cc, "-O2", "-ffp-contract=off", "-fPIC", "-shared", "-o", out,
            _KERNEL_SOURCE.name, "-lm"]


def _compiled_sort_keys(lib: ctypes.CDLL, rea: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable argsort of a uint8 vector and its inverse, as int32, from the C
    counting sort.  The caller keeps ``rea.size`` at most 2**31."""
    rea = np.ascontiguousarray(rea, dtype=np.uint8)
    key, inv = np.empty(rea.size, np.int32), np.empty(rea.size, np.int32)
    lib.xcross_sort_keys(rea.ctypes.data, rea.size, key.ctypes.data, inv.ctypes.data)
    return key, inv


def _compiled_ibt(lib: ctypes.CDLL, blk: np.ndarray, key: np.ndarray) -> np.ndarray | None:
    """The bits of a uint8 block gathered by the C loop, or None unless
    ``key`` is a C-contiguous int32 vector of ``8 * blk.size`` entries that
    all lie in ``range(8 * blk.size)``."""
    if key.dtype != np.int32 or not key.flags.c_contiguous or key.shape != (8 * blk.size,):
        return None
    blk = np.ascontiguousarray(blk, dtype=np.uint8)
    out = np.empty(blk.shape, np.uint8)
    if lib.xcross_ibt(blk.ctypes.data, out.ctypes.data, key.ctypes.data, blk.size):
        return None
    return out


def _kernel_matches_steps(lib: ctypes.CDLL) -> bool:
    """Whether the C loops reproduce the Python loops on the reference key.

    Compared as bytes, so a differently signed zero is a mismatch too.
    """
    from .key_schedule import reference_key

    key = reference_key()
    p, c = key.lshm, key.clt
    got, want = np.empty((2, 3, _SELF_CHECK_STEPS))
    for loop_lib, (xs, ys, zs) in ((lib, got), (None, want)):
        _lshm_loop(loop_lib, xs, ys, p.x0, p.y0, p)
        _clt_loop(loop_lib, zs, c.z0, c)
    return got.tobytes() == want.tobytes()


def _kernel_matches_numpy(lib: ctypes.CDLL) -> bool:
    """Whether the C sort and gather reproduce their NumPy definitions on the
    extraction arrays of the reference key for 8x8 quadrants, as bytes."""
    from .ibt import _gather_bits
    from .key_schedule import _argsort_keys, _quantized, reference_key

    p = reference_key().lshm
    xs, ys = np.empty((2, TRANSIENT + 8 * 8 * 8))
    _lshm_loop(lib, xs, ys, p.x0, p.y0, p)
    reas = [_quantized(s[TRANSIENT:], 1e5, 256) for s in (xs, ys)]
    blk = reas[1][:64].reshape(8, 8)
    for rea in reas:
        got, want = _compiled_sort_keys(lib, rea), _argsort_keys(rea)
        if [k.tobytes() for k in got] != [k.tobytes() for k in want]:
            return False
        for key in want:
            out = _compiled_ibt(lib, blk, key)
            if out is None or out.tobytes() != _gather_bits(blk, key).tobytes():
                return False
    return True
