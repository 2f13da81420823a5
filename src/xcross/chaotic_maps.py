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
turn of that loop.  The compiled library of ``_maps.c`` holds the same two
loops and C forms of the key sort, the bit gather, the X-Cross permutation,
the substitution lookup and the image statistics (README, "Determinism and
portability").  This module is its one seam:
:func:`_kernel` gives the library, or None when it cannot be built, loaded
or trusted, and only the functions here that take that result call it.
Given None, the two loops run in Python; each ``_compiled_*`` function
returns None, as it does for an input C cannot take, and its caller then
runs the NumPy definition.
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
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyRequestError, ParameterError

#: Iterations discarded before any value is emitted.
TRANSIENT = 1000

#: C source of the compiled loops, key sort, bit gather, pixel layers and statistics.
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
        lib.xcross_lshm(_address(xs), _address(ys), len(xs),
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
        # mod 1, with the one way CPython's ``%`` leaves [0, 1) fixed: for a
        # tiny negative v, ``v % 1.0`` returns exactly 1.0 (the excluded
        # endpoint); a zero remainder is always +0.0
        x = k1 * (1.0 + alpha * t) % 1.0
        if x >= 1.0:
            x = 0.0
        xs[i] = x
        ys[i] = y


def _clt_loop(lib: ctypes.CDLL | None, zs, z: float, p: CltParams) -> None:
    """Write the ``len(zs)`` CLT states that follow ``z`` into ``zs``: by
    the C loop when ``lib`` is the compiled library (``zs`` is then a
    C-contiguous float64 array), else by the Python loop."""
    if lib is not None:
        lib.xcross_clt(_address(zs), len(zs), z, p.lam, p.alpha_c)
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
        zs[i] = z


def _checked_count(n: int) -> int:
    if n == 0:
        raise EmptyRequestError("at least one iteration must be requested")
    if not isinstance(n, int) or n < 0:
        raise ParameterError(f"iteration count must be a positive integer, got {n!r}")
    return n


# ---------------------------------------------------------------------------
# the compiled loops


#: The routines of ``_maps.c``: name -> (result type, argument types).
_ROUTINES = {
    "xcross_lshm": (None, [ctypes.c_void_p] * 2 + [ctypes.c_long] + [ctypes.c_double] * 7),
    "xcross_clt": (None, [ctypes.c_void_p, ctypes.c_long] + [ctypes.c_double] * 3),
    "xcross_sort_keys": (None, [ctypes.c_void_p, ctypes.c_long] + [ctypes.c_void_p] * 2),
    "xcross_ibt": (ctypes.c_int, [ctypes.c_void_p] * 3 + [ctypes.c_long]),
    "xcross_moments": (None, [ctypes.c_void_p] + [ctypes.c_long] * 5 + [ctypes.c_void_p]),
    "xcross_glcm": (ctypes.c_int, [ctypes.c_void_p] + [ctypes.c_long] * 3 + [ctypes.c_void_p] * 2),
    "xcross_substitute": (ctypes.c_int, [ctypes.c_void_p] * 4 + [ctypes.c_long]),
    "xcross_xcross": (None, [ctypes.c_void_p] + [ctypes.c_long] * 3 + [ctypes.c_void_p, ctypes.c_int]),
}


@functools.cache
def _kernel() -> ctypes.CDLL | None:
    """The compiled library of ``_maps.c``, or None when the Python loops
    and the NumPy definitions must run.

    Called on the first iteration, key sort, bit gather, X-Cross,
    substitution or image statistic in a process, never at import.  Before
    the library is used its loops must reproduce the Python loops bit for
    bit on the reference key, its sort, gather, X-Cross and substitution
    their NumPy definitions on that key's extraction arrays, and its
    statistics theirs on fixed images.  No compiler, an unwritable cache, a
    failed compile or load, a missing routine, or a mismatch all give None,
    and the cause is kept in ``_kernel_failure``.
    """
    global _kernel_failure
    try:
        lib = ctypes.CDLL(os.fspath(_built_kernel()))
        for name, (restype, argtypes) in _ROUTINES.items():
            routine = getattr(lib, name)
            routine.restype, routine.argtypes = restype, argtypes
    except (OSError, AttributeError) as exc:
        _kernel_failure = f"{type(exc).__name__}: {exc}"
        return None
    for matches, cause in (
        (_kernel_matches_steps, "differs from lshm_step/clt_step on the reference key "
                                f"within {_SELF_CHECK_STEPS} steps"),
        (_kernel_matches_numpy, "differs from the NumPy key sort, bit gather, X-Cross "
                                "or substitution on the reference key's extraction arrays"),
        (_kernel_matches_statistics, "differs from the NumPy image statistics "
                                     "on the self-check images"),
    ):
        if not matches(lib):
            _kernel_failure = f"{lib._name} {cause}"
            return None
    _kernel_failure = None
    return lib


def _built_kernel() -> Path:
    """Path of the compiled library, compiling it first if it is missing.

    The library sits next to the ``.pyc`` files, named like them after the
    interpreter's cache tag and the machine, plus the CRC-32 of the source
    and the compile command (a cache name, not a security check: NumPy has
    already loaded zlib, while importing hashlib takes milliseconds).  It
    is compiled into a temporary file that then
    replaces into place, so concurrent first uses are safe; a new library
    removes this interpreter's libraries of older sources and the temporary
    files of killed compiles.  Whoever can write there can already rewrite
    the ``.py`` files.  Raises OSError when the library is missing and
    cannot be compiled.
    """
    crc = zlib.crc32(
        b"\0".join([_KERNEL_SOURCE.read_bytes(), " ".join(_compile_command("cc", "")).encode()])
    )
    cache = _KERNEL_SOURCE.with_name("__pycache__")
    prefix = f"_maps.{sys.implementation.cache_tag}-{platform.machine()}-"
    path = cache / f"{prefix}{crc:08x}.so"
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
    for old in [*cache.glob(f"{prefix}*.so"), *cache.glob("_maps.*.tmp")]:
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


def _address(a: np.ndarray) -> int:
    """The address of an array's first element, for the C routines.  Taken
    through the buffer of a writable, C-contiguous, nonempty array, where
    ``a.ctypes.data`` costs about three times as much (1.2 µs, as long as
    the C loop of a 32x32 block takes); other arrays go through ``a.ctypes``."""
    flags = a.flags
    if flags.writeable and flags.c_contiguous and a.size:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data


def _compiled_sort_keys(lib: ctypes.CDLL | None,
                        rea: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The stable argsort of a uint8 vector and its inverse, as int32, from
    the C counting sort; or None unless ``lib`` is the compiled library and
    ``rea`` a uint8 vector.  The caller keeps ``rea.size`` at most 2**31."""
    if lib is None or rea.dtype != np.uint8 or rea.ndim != 1:
        return None
    rea = np.ascontiguousarray(rea)
    key, inv = np.empty(rea.size, np.int32), np.empty(rea.size, np.int32)
    lib.xcross_sort_keys(_address(rea), rea.size, _address(key), _address(inv))
    return key, inv


def _compiled_ibt(lib: ctypes.CDLL | None, blk: np.ndarray, key: np.ndarray) -> np.ndarray | None:
    """The bits of a uint8 block gathered by the C loop; or None unless
    ``lib`` is the compiled library and ``key`` a C-contiguous int32 vector
    of ``8 * blk.size`` entries that all lie in ``range(8 * blk.size)``."""
    if (lib is None or blk.dtype != np.uint8 or key.dtype != np.int32
            or not key.flags.c_contiguous or key.shape != (8 * blk.size,)):
        return None
    blk = np.ascontiguousarray(blk)
    out = np.empty(blk.shape, np.uint8)
    if lib.xcross_ibt(_address(blk), _address(out), _address(key), blk.size):
        return None
    return out


def _compiled_moments(lib: ctypes.CDLL | None, img: np.ndarray, dr: int,
                      dc: int) -> tuple[float, float, float] | None:
    """The sums of (a-mean(a))**2, (b-mean(b))**2 and their product for the
    pixels a of ``img[:rows-dr, :cols-dc]`` and b of ``img[dr:, dc:]``, added
    by the C loop in NumPy's pairwise order; or None unless ``lib`` is the
    compiled library and ``img`` is 2-D uint8 stepping one byte per column."""
    if lib is None or img.dtype != np.uint8 or img.ndim != 2 or img.strides[1] != 1:
        return None
    sums = (ctypes.c_double * 3)()
    lib.xcross_moments(_address(img), *img.shape, img.strides[0], dr, dc, sums)
    return sums[0], sums[1], sums[2]


def _compiled_glcm(lib: ctypes.CDLL | None,
                   img: np.ndarray) -> tuple[tuple[float, ...], np.ndarray] | None:
    """The GLCM contrast, energy, homogeneity, mean, variance and correlation
    sum of a 2-D uint8 image by the C loop, each formed and added as NumPy
    forms and adds it in :mod:`~xcross.analysis`, and the image's int64
    histogram counted in the same pass over the pairs; or None unless
    ``lib`` is the compiled library, the image has a horizontal pair and
    steps one byte per column, and the C loop could allocate its counts."""
    if (lib is None or img.dtype != np.uint8 or img.ndim != 2 or img.strides[1] != 1
            or img.shape[0] < 1 or img.shape[1] < 2):
        return None
    sums, hist = (ctypes.c_double * 6)(), np.zeros(256, np.int64)
    if lib.xcross_glcm(_address(img), *img.shape, img.strides[0], sums, _address(hist)):
        return None
    return tuple(sums), hist


def _compiled_substitute(lib: ctypes.CDLL | None, table: np.ndarray, img: np.ndarray,
                         ops: np.ndarray) -> np.ndarray | None:
    """``table[ops, img]`` by the C loop; or None unless ``lib`` is the
    compiled library, ``table`` a C-contiguous (3, 256) uint8 array, and
    ``ops`` uint8 with every code at most 2.  The caller gives ``img`` and
    ``ops`` one shape."""
    if (lib is None or ops.dtype != np.uint8 or table.dtype != np.uint8
            or table.shape != (3, 256) or not table.flags.c_contiguous):
        return None
    img, ops = np.ascontiguousarray(img), np.ascontiguousarray(ops)
    out = np.empty(img.shape, np.uint8)
    if lib.xcross_substitute(_address(img), _address(ops), _address(table),
                             _address(out), img.size):
        return None
    return out


def _compiled_xcross(lib: ctypes.CDLL | None, blk: np.ndarray, inverse: bool) -> np.ndarray | None:
    """The X-Cross permutation of a 2-D uint8 block, or its inverse, by the C
    loop; or None unless ``lib`` is the compiled library and ``blk`` steps
    one byte per column.  The caller keeps both sides even."""
    if lib is None or blk.dtype != np.uint8 or blk.ndim != 2 or blk.strides[1] != 1:
        return None
    out = np.empty(blk.shape, np.uint8)
    lib.xcross_xcross(_address(blk), *blk.shape, blk.strides[0], _address(out), inverse)
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
    """Whether the C sort, gather, X-Cross and substitution reproduce their
    NumPy definitions on the extraction arrays of the reference key, as
    bytes.

    The sort and gather run for 8x8 quadrants, and the gather also on a 7x9
    block with keys sorted from the arrays' first 504 bytes: 63 bytes, not
    a multiple of 4, take the scalar loop where the 8x8 block may take the
    AVX2 one.  X-Cross runs both ways on a 6x10 view that takes every
    second row of 12 from the bottom up: a negative row stride, and 5
    column pairs, so that one pair's four emissions straddle two rows.  The
    substitution looks up all 768 (code, pixel) pairs, in a scrambled
    order, in a table of the arrays' first 768 bytes; both directions run
    the one routine, and the key's S-box tables would cost more to build
    than the rest of this check.
    """
    from .ibt import _gather_bits
    from .key_schedule import _argsort_keys, _quantized, reference_key
    from .permutation import _permute_by_schedule, _unpermute_by_schedule
    from .substitution import _gather

    p = reference_key().lshm
    xs, ys = np.empty((2, TRANSIENT + 8 * 8 * 8))
    _lshm_loop(lib, xs, ys, p.x0, p.y0, p)
    reas = [_quantized(s[TRANSIENT:], 1e5, 256) for s in (xs, ys)]
    square, odd = reas[1][:64].reshape(8, 8), reas[1][:63].reshape(7, 9)
    for rea in reas:
        got, want = _compiled_sort_keys(lib, rea), _argsort_keys(rea)
        if got is None or [k.tobytes() for k in got] != [k.tobytes() for k in want]:
            return False
        for blk, keys in ((square, want), (odd, _argsort_keys(rea[:8 * odd.size]))):
            for key in keys:
                out = _compiled_ibt(lib, blk, key)
                if out is None or out.tobytes() != _gather_bits(blk, key).tobytes():
                    return False
    blk = reas[1][:120].reshape(12, 10)[::-2]
    for inverse, numpy in ((False, _permute_by_schedule), (True, _unpermute_by_schedule)):
        if _compiled_xcross(lib, blk, inverse).tobytes() != numpy(blk).tobytes():
            return False
    # 5 and 768 are coprime, so each code << 8 | pixel comes once
    pairs = np.arange(0, 5 * 768, 5, dtype=np.uint16) % 768
    ops, img = (pairs >> 8).astype(np.uint8), pairs.astype(np.uint8)
    table = np.concatenate(reas)[:768].reshape(3, 256)
    out = _compiled_substitute(lib, table, img, ops)
    return out is not None and out.tobytes() == _gather(table, img, ops).tobytes()


def _kernel_matches_statistics(lib: ctypes.CDLL) -> bool:
    """Whether the C moments and GLCM reproduce their NumPy definitions in
    :mod:`~xcross.analysis`, as bytes.

    The sums are checked on 3x4, 12x13 and 91x92 blocks of hashed bytes,
    whose pair counts in the three directions cross 8 and 128 (where
    NumPy's pairwise sum changes form) and 8192 (its buffer size), and on
    a view of the largest that takes every third row from the bottom up;
    the GLCM's sums and histogram on the largest and the view.
    The hash is mixed as murmur3 finalises one, so that neighbouring
    products share no pattern: on the bytes of a bare multiplicative hash,
    a sum whose accumulators were combined in another order still matched.
    """
    from .analysis import _DIRECTIONS, _centred_sums, _direction_pairs, _glcm_sums, _histogram

    large = _hashed_pixels(91, 92)
    view = large[::-3]
    for img in (_hashed_pixels(3, 4), _hashed_pixels(12, 13), large, view):
        for direction, steps in _DIRECTIONS.items():
            got = _compiled_moments(lib, img, *steps)
            want = _centred_sums(*_direction_pairs(img, direction))
            if got is None or np.array(got).tobytes() != np.array(want).tobytes():
                return False
    for img in (large, view):
        got, want = _compiled_glcm(lib, img), _histogram(img)
        if (got is None or np.array(got[0]).tobytes() != np.array(_glcm_sums(img)).tobytes()
                or got[1].dtype != want.dtype or not np.array_equal(got[1], want)):
            return False
    return True


def _hashed_pixels(rows: int, cols: int) -> np.ndarray:
    """A rows x cols uint8 image of well-spread bytes, no RNG involved: a
    multiplicative hash of each pixel's index, mixed as murmur3 finalises
    one, so that neighbouring pixels share no pattern."""
    h = np.arange(rows * cols, dtype=np.uint32) * np.uint32(2654435761)
    h ^= h >> 15
    h *= np.uint32(0x85EBCA77)
    h ^= h >> 13
    return (h >> 24).astype(np.uint8).reshape(rows, cols)
