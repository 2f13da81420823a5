"""The compiled library of ``_maps.c``: its build, its routines, and the
check that decides, per group of routines, whether it is used.

Each group is what one entry point of the cipher calls:

* ``derivation``: the LSHM and CLT loops and the key sort (``derive_context``);
* ``transform``: the bit gather, X-Cross and substitution
  (``encrypt_with_context``, ``decrypt_with_context``);
* ``statistics``: the correlation moments and the GLCM (``analyze``).

:func:`trusted` checks a group on its first use in a process and gives the
library, or None.  Every routine reads and writes C-contiguous buffers,
and each ``_compiled_*`` wrapper copies an input laid out otherwise.  A
wrapper returns None when given None, for a dtype, rank or shape C cannot
take, or for an error C reports, and its caller then runs the definition.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import platform
import shutil
import sys
import tempfile
import time
import zlib
from pathlib import Path

import numpy as np

from . import chaotic_maps

#: C source of the compiled loops, key sort, bit gather, pixel layers and statistics.
_KERNEL_SOURCE = Path(__file__).with_name("_maps.c")

#: Steps of the reference key the compiled loops must reproduce.
_SELF_CHECK_STEPS = 300

#: Seconds a compile may take before the Python loops are used instead.
_COMPILE_TIMEOUT_S = 60

#: Why :func:`trusted` gave None, by group.
failures: dict[str, str] = {}

#: The routines of ``_maps.c``: name -> (result type, argument types).
_ROUTINES = {
    "xcross_lshm": (None, [ctypes.c_void_p] * 2 + [ctypes.c_long] + [ctypes.c_double] * 7),
    "xcross_clt": (None, [ctypes.c_void_p, ctypes.c_long] + [ctypes.c_double] * 3),
    "xcross_sort_keys": (None, [ctypes.c_void_p, ctypes.c_long] + [ctypes.c_void_p] * 2),
    "xcross_ibt": (ctypes.c_int, [ctypes.c_void_p] * 3 + [ctypes.c_long]),
    "xcross_moments": (None, [ctypes.c_void_p] + [ctypes.c_long] * 4 + [ctypes.c_void_p]),
    "xcross_glcm": (ctypes.c_int, [ctypes.c_void_p] + [ctypes.c_long] * 2 + [ctypes.c_void_p] * 2),
    "xcross_substitute": (ctypes.c_int, [ctypes.c_void_p] * 4 + [ctypes.c_long]),
    "xcross_xcross": (None, [ctypes.c_void_p] + [ctypes.c_long] * 2 + [ctypes.c_void_p, ctypes.c_int]),
}


@functools.cache
def trusted(group: str) -> ctypes.CDLL | None:
    """The compiled library, once the C routines of ``group`` have
    reproduced their definitions byte for byte in this process, or None.

    Called on the group's first use, never at import.  No compiler, an
    unwritable cache, a failed compile or load, a missing routine, or a
    mismatch all give None, and the cause is kept in ``failures[group]``.
    """
    lib = _library()
    if isinstance(lib, str):
        failures[group] = lib
        return None
    pairs, cause = _CHECKS[group]
    if not _same_bytes(pairs(lib)):
        failures[group] = f"{lib._name} {cause}"
        return None
    return lib


@functools.cache
def _library() -> ctypes.CDLL | str:
    """The compiled library with its routines declared, or why it did not load."""
    try:
        lib = ctypes.CDLL(os.fspath(_built_kernel()))
        for name, (restype, argtypes) in _ROUTINES.items():
            routine = getattr(lib, name)
            routine.restype, routine.argtypes = restype, argtypes
    except (OSError, AttributeError) as exc:
        return f"{type(exc).__name__}: {exc}"
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
    """The address of a C-contiguous array's first element, for the C
    routines.  Taken through the buffer of a writable nonempty array, where
    ``a.ctypes.data`` costs about three times as much (1.2 µs, as long as
    the C loop of a 32x32 block takes); other arrays go through ``a.ctypes``."""
    if a.flags.writeable and a.size:
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
    ``lib`` is the compiled library and ``key`` an int32 vector of
    ``8 * blk.size`` entries that all lie in ``range(8 * blk.size)``."""
    if (lib is None or blk.dtype != np.uint8 or key.dtype != np.int32
            or key.shape != (8 * blk.size,)):
        return None
    blk, key = np.ascontiguousarray(blk), np.ascontiguousarray(key)
    out = np.empty(blk.shape, np.uint8)
    if lib.xcross_ibt(_address(blk), _address(out), _address(key), blk.size):
        return None
    return out


def _compiled_moments(lib: ctypes.CDLL | None, img: np.ndarray, dr: int,
                      dc: int) -> tuple[float, float, float] | None:
    """The sums of (a-mean(a))**2, (b-mean(b))**2 and their product for the
    pixels a of ``img[:rows-dr, :cols-dc]`` and b of ``img[dr:, dc:]``, added
    by the C loop in NumPy's pairwise order; or None unless ``lib`` is the
    compiled library and ``img`` is 2-D uint8."""
    if lib is None or img.dtype != np.uint8 or img.ndim != 2:
        return None
    img = np.ascontiguousarray(img)
    sums = (ctypes.c_double * 3)()
    lib.xcross_moments(_address(img), *img.shape, dr, dc, sums)
    return sums[0], sums[1], sums[2]


def _compiled_glcm(lib: ctypes.CDLL | None,
                   img: np.ndarray) -> tuple[tuple[float, ...], np.ndarray] | None:
    """The GLCM contrast, energy, homogeneity, mean, variance and correlation
    sum of a 2-D uint8 image by the C loop, each formed and added as NumPy
    forms and adds it in :mod:`~xcross.analysis`, and the image's int64
    histogram counted in the same pass over the pairs; or None unless
    ``lib`` is the compiled library, the image has a horizontal pair, and
    the C loop could allocate its counts."""
    if (lib is None or img.dtype != np.uint8 or img.ndim != 2
            or img.shape[0] < 1 or img.shape[1] < 2):
        return None
    img = np.ascontiguousarray(img)
    sums, hist = (ctypes.c_double * 6)(), np.zeros(256, np.int64)
    if lib.xcross_glcm(_address(img), *img.shape, sums, _address(hist)):
        return None
    return tuple(sums), hist


def _compiled_substitute(lib: ctypes.CDLL | None, table: np.ndarray, img: np.ndarray,
                         ops: np.ndarray) -> np.ndarray | None:
    """``table[ops, img]`` by the C loop; or None unless ``lib`` is the
    compiled library, ``table`` a (3, 256) uint8 array, and ``ops`` uint8
    with every code at most 2.  The caller gives ``img`` and ``ops`` one
    shape."""
    if lib is None or ops.dtype != np.uint8 or table.dtype != np.uint8 or table.shape != (3, 256):
        return None
    table, img, ops = map(np.ascontiguousarray, (table, img, ops))
    out = np.empty(img.shape, np.uint8)
    if lib.xcross_substitute(_address(img), _address(ops), _address(table),
                             _address(out), img.size):
        return None
    return out


def _compiled_xcross(lib: ctypes.CDLL | None, blk: np.ndarray, inverse: bool) -> np.ndarray | None:
    """The X-Cross permutation of a 2-D uint8 block, or its inverse, by the C
    loop; or None unless ``lib`` is the compiled library.  The caller keeps
    both sides even."""
    if lib is None or blk.dtype != np.uint8 or blk.ndim != 2:
        return None
    blk = np.ascontiguousarray(blk)
    out = np.empty(blk.shape, np.uint8)
    lib.xcross_xcross(_address(blk), *blk.shape, _address(out), inverse)
    return out


def _same_bytes(pairs) -> bool:
    """Whether each (compiled result, definition result) pair holds the same
    bytes: a compiled None, another dtype or any differing byte, a
    differently signed zero included, is a mismatch.  Stops at the first."""
    for got, want in pairs:
        if got is None:
            return False
        got, want = np.asarray(got), np.asarray(want)
        if got.dtype != want.dtype or got.tobytes() != want.tobytes():
            return False
    return True


def _derivation_pairs(lib: ctypes.CDLL):
    """The C loops and the Python loops on the reference key, then the C
    sort and the NumPy key sort of two rows of 512 hashed bytes."""
    from .key_schedule import _argsort_keys, reference_key

    key = reference_key()
    p, c = key.lshm, key.clt
    got, want = np.empty((2, 3, _SELF_CHECK_STEPS))
    for loop_lib, (xs, ys, zs) in ((lib, got), (None, want)):
        chaotic_maps._lshm_loop(loop_lib, xs, ys, p.x0, p.y0, p)
        chaotic_maps._clt_loop(loop_lib, zs, c.z0, c)
    yield got, want
    for rea in _hashed_pixels(2, 512):
        yield _compiled_sort_keys(lib, rea), _argsort_keys(rea)


def _transform_pairs(lib: ctypes.CDLL):
    """The C gather, X-Cross and substitution and their NumPy definitions
    on two rows of 512 hashed bytes.

    The gather runs for an 8x8 block by the NumPy keys sorted from each row,
    and on a 7x9 block with keys sorted from each row's first 504 bytes:
    63 bytes, not a multiple of 4, take the scalar loop where the 8x8 block
    may take the AVX2 one.  X-Cross runs both ways on a 6x10 view that takes
    every second row of 12 from the bottom up, which the wrapper copies; its
    5 column pairs make one pair's four emissions straddle two rows.  The
    substitution looks up all 768 (code, pixel) pairs, in a scrambled
    order, in a table of the rows' first 768 bytes; both directions run
    the one routine, and the key's S-box tables would cost more to build
    than the rest of this check.
    """
    from .ibt import _gather_bits
    from .key_schedule import _argsort_keys
    from .permutation import _permute_by_schedule, _unpermute_by_schedule
    from .substitution import _gather

    reas = _hashed_pixels(2, 512)
    square, odd = reas[1][:64].reshape(8, 8), reas[1][:63].reshape(7, 9)
    for rea in reas:
        for blk, keys in ((square, _argsort_keys(rea)), (odd, _argsort_keys(rea[:8 * odd.size]))):
            for key in keys:
                yield _compiled_ibt(lib, blk, key), _gather_bits(blk, key)
    blk = reas[1][:120].reshape(12, 10)[::-2]
    yield _compiled_xcross(lib, blk, False), _permute_by_schedule(blk)
    yield _compiled_xcross(lib, blk, True), _unpermute_by_schedule(blk)
    # 5 and 768 are coprime, so each code << 8 | pixel comes once
    pairs = np.arange(0, 5 * 768, 5, dtype=np.uint16) % 768
    ops, img = (pairs >> 8).astype(np.uint8), pairs.astype(np.uint8)
    table = reas.reshape(-1)[:768].reshape(3, 256)
    yield _compiled_substitute(lib, table, img, ops), _gather(table, img, ops)


def _statistics_pairs(lib: ctypes.CDLL):
    """The C moments and GLCM and their NumPy definitions in
    :mod:`~xcross.analysis`.

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
            yield (_compiled_moments(lib, img, *steps),
                   _centred_sums(*_direction_pairs(img, direction)))
    for img in (large, view):
        sums, hist = _compiled_glcm(lib, img) or (None, None)
        yield sums, _glcm_sums(img)
        yield hist, _histogram(img)


#: Each group's check, and what its failure means.
_CHECKS = {
    "derivation": (_derivation_pairs, "differs from lshm_step/clt_step on the reference key "
                   f"within {_SELF_CHECK_STEPS} steps, or from the NumPy key sort"),
    "transform": (_transform_pairs, "differs from the NumPy bit gather, X-Cross or "
                  "substitution"),
    "statistics": (_statistics_pairs, "differs from the NumPy image statistics"),
}


def _hashed_pixels(rows: int, cols: int) -> np.ndarray:
    """A rows x cols uint8 image of well-spread bytes, no RNG involved: a
    multiplicative hash of each pixel's index, mixed as murmur3 finalises
    one, so that neighbouring pixels share no pattern."""
    h = np.arange(rows * cols, dtype=np.uint32) * np.uint32(2654435761)
    h ^= h >> 15
    h *= np.uint32(0x85EBCA77)
    h ^= h >> 13
    return (h >> 24).astype(np.uint8).reshape(rows, cols)
