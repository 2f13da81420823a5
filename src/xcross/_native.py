"""The compiled library of ``_maps.c``: its build, its routines, and the
check that decides, per group of routines, whether it is used.

Each group is what one command family calls:

* ``cipher``: the LSHM and CLT loops, the quantizer, the context routine
  (keys, operation matrix and S-boxes) and the suite tables of
  ``derive_context``, and the bit gather, X-Cross and substitution of
  ``encrypt_with_context`` and ``decrypt_with_context``;
* ``statistics``: every sum and the histogram of ``analyze``, in one routine.

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

#: C source of the compiled loops, derivation, bit gather, pixel layers and statistics.
_KERNEL_SOURCE = Path(__file__).with_name("_maps.c")

#: Steps of the reference key the compiled loops must reproduce.
_SELF_CHECK_STEPS = 300

#: Steps of the compiled loops whose LSHM values make the extraction arrays
#: of the check's 12x20 context (2 * 12 * 20 entries each), and the steps
#: its contexts' CLT streams skip, where a context skips
#: `chaotic_maps.TRANSIENT`.
_CONTEXT_STREAM = 480
_CONTEXT_SKIP = 50

#: Seconds a compile may take before the Python loops are used instead.
_COMPILE_TIMEOUT_S = 60

#: Why :func:`trusted` gave None, by group.
failures: dict[str, str] = {}

#: The routines of ``_maps.c``: name -> (result type, argument types).
_ROUTINES = {
    "xcross_lshm": (None, [ctypes.c_void_p] * 2 + [ctypes.c_long] + [ctypes.c_double] * 7),
    "xcross_clt": (None, [ctypes.c_void_p, ctypes.c_long] + [ctypes.c_double] * 3),
    "xcross_quantize": (None, [ctypes.c_void_p, ctypes.c_long, ctypes.c_double, ctypes.c_int,
                               ctypes.c_void_p]),
    "xcross_context": (None, [ctypes.c_void_p] * 2 + [ctypes.c_long] + [ctypes.c_double] * 2
                       + [ctypes.c_void_p] + [ctypes.c_long] * 2 + [ctypes.c_void_p] * 7
                       + [ctypes.c_long]),
    "xcross_tables": (ctypes.c_int, [ctypes.c_void_p] * 5),
    "xcross_ibt": (ctypes.c_int, [ctypes.c_void_p] * 3 + [ctypes.c_long]),
    "xcross_statistics": (None, [ctypes.c_void_p] + [ctypes.c_long] * 2 + [ctypes.c_void_p] * 3),
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
        return _load(_built_kernel())
    except (OSError, AttributeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _load(path: str | os.PathLike) -> ctypes.CDLL:
    """The library built from ``_maps.c`` at ``path``, every routine of
    ``_ROUTINES`` declared.  Raises OSError when it does not load and
    AttributeError when it lacks a routine."""
    lib = ctypes.CDLL(os.fspath(path))
    for name, (restype, argtypes) in _ROUTINES.items():
        routine = getattr(lib, name)
        routine.restype, routine.argtypes = restype, argtypes
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


def _compiled_quantize(lib: ctypes.CDLL | None, stream: np.ndarray, scale: float,
                       modulus: int) -> np.ndarray | None:
    """:func:`~xcross.key_schedule._quantized` of a float64 vector by the C
    loop, which gives NaN, +-inf and values beyond int64 byte 0 and code 1
    on every CPU; or None unless ``lib`` is the compiled library and
    ``modulus`` 3 or 256."""
    if lib is None or stream.dtype != np.float64 or stream.ndim != 1 or modulus not in (3, 256):
        return None
    stream = np.ascontiguousarray(stream)
    out = np.empty(stream.size, np.uint8)
    lib.xcross_quantize(_address(stream), stream.size, scale, modulus, _address(out))
    return out


#: Doubles of scratch the context routine runs its CLT streams through,
#: few enough to stay in L1.
_CONTEXT_CHUNK = 2048


def _compiled_context(lib: ctypes.CDLL | None, rea1: np.ndarray, rea2: np.ndarray, clt,
                      seeds, pixels: int, transient: int, chunk: int = _CONTEXT_CHUNK):
    """The four int32 extraction keys, the uint8 operation codes of
    ``pixels`` pixels and the three uint8 S-boxes that the key schedule
    derives from the extraction arrays ``rea1`` and ``rea2``, the CLT
    parameters ``clt`` and the S-box seeds, each stream past ``transient``
    steps, all by one C call; or None unless ``lib`` is the compiled
    library and the arrays uint8 vectors of one length.  The caller keeps
    that length at most 2**31; ``chunk`` > 0 sizes the scratch buffer the
    CLT streams run through."""
    if (lib is None or rea1.dtype != np.uint8 or rea2.dtype != np.uint8 or rea1.ndim != 1
            or rea1.shape != rea2.shape):
        return None
    rea1, rea2 = np.ascontiguousarray(rea1), np.ascontiguousarray(rea2)
    keys = [np.empty(rea1.size, np.int32) for _ in range(4)]
    ops, sboxes = np.empty(pixels, np.uint8), np.empty((3, 256), np.uint8)
    z0s, scratch = np.array([clt.z0, *seeds]), np.empty(chunk)
    lib.xcross_context(_address(rea1), _address(rea2), rea1.size, clt.lam, clt.alpha_c,
                       _address(z0s), transient, pixels, *map(_address, keys), _address(ops),
                       _address(sboxes), _address(scratch), chunk)
    return tuple(keys), ops, tuple(sboxes)


def _compiled_tables(lib: ctypes.CDLL | None, sboxes) -> tuple[np.ndarray, np.ndarray] | None:
    """The (3, 256) uint8 forward and backward tables of
    :class:`~xcross.substitution.SubstitutionSuite` by the C loop; or None
    unless ``lib`` is the compiled library and each of the three S-boxes a
    uint8 array of 256 entries that is a bijection."""
    if lib is None or any(not isinstance(box, np.ndarray) or box.dtype != np.uint8
                          or box.shape != (256,) for box in sboxes):
        return None
    sboxes = [np.ascontiguousarray(box) for box in sboxes]
    fwd, bwd = np.empty((3, 256), np.uint8), np.empty((3, 256), np.uint8)
    if lib.xcross_tables(*map(_address, sboxes), _address(fwd), _address(bwd)):
        return None
    return fwd, bwd


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


def _compiled_statistics(lib: ctypes.CDLL | None,
                         img: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The 15 float64 sums and the int64 histogram of
    :func:`~xcross.analysis._numpy_statistics` by the C loops, each sum
    formed and added as NumPy forms and adds it, the histogram counted in
    the GLCM's pass over the pairs.  None unless ``lib`` is the compiled
    library and the image is 2-D uint8 with at least two rows and two
    columns.  The C loop zeroes the histogram and the pair counts it is
    given, so both are taken uninitialised."""
    if lib is None or img.dtype != np.uint8 or img.ndim != 2 or min(img.shape) < 2:
        return None
    img = np.ascontiguousarray(img)
    sums, hist, cells = np.empty(15), np.empty(256, np.int64), np.empty(65536, np.int64)
    lib.xcross_statistics(_address(img), *img.shape, _address(sums), _address(hist),
                          _address(cells))
    return sums, hist


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


def _cipher_pairs(lib: ctypes.CDLL):
    """The C loops and the Python loops on the reference key; then the C
    quantizer, context routine and suite tables and their NumPy
    definitions, fed the C streams just compared; then the C gather,
    X-Cross and substitution and their NumPy definitions.

    The quantizer takes exact ties, negatives and values near +-2**62 to
    mod 3, and the two LSHM streams to mod 256: the C loop's 480 values of
    each, of which the first 300 are those compared, make the extraction
    arrays of a 12x20 context, and their first 32 those of a 4x4 one.  Each
    context's CLT streams start `_CONTEXT_SKIP` steps in, within the 300
    compared, and run through 32 doubles of scratch, so that the skipped
    steps and the 12x20 codes' stream cross chunks and the 4x4 codes fill
    part of one; the first S-box seed is 0, the CLT's fixed point, whose box
    sorts 256 ties.  The tables take the contexts' boxes, and must decline
    a box with a repeated entry.  No definition here calls
    ``iterate_clt``, ``build_*`` or ``SubstitutionSuite``, which would
    re-enter :func:`trusted`.

    The transform's blocks and table are bytes of the extraction arrays.
    The gather runs for a 6x10 block, 60 bytes, by the 12x20 context's four
    keys, and for a 7x9 block by keys sorted from 504 of the bytes: 63
    bytes, not a multiple of 4, take the scalar loop where the 60 may take
    the AVX2 one.  X-Cross runs both ways on a 6x10 view that takes every
    second row of 12 rows from the bottom up, which the wrapper copies; its
    5 column pairs make one pair's four emissions straddle two rows.  The
    substitution looks up all 768 (code, pixel) pairs, in a scrambled
    order, and then 40 of them again with codes 0, 1 and 2, in a table of
    768 bytes: 808 pixels are twelve runs of 64, which a CPU that reports
    AVX-512 VBMI looks up with byte permutes, and a tail that the scalar
    loop looks up on every CPU.
    """
    from . import chaotic_maps
    from .ibt import _gather_bits
    from .key_schedule import _argsort_keys, reference_key, round_half_away, sbox_from_stream
    from .permutation import _permute_by_schedule, _unpermute_by_schedule
    from .substitution import _fused_tables, _gather

    key = reference_key()
    p, c, steps = key.lshm, key.clt, _SELF_CHECK_STEPS
    streams = np.empty((3, _CONTEXT_STREAM))
    xs, ys, zs = streams
    chaotic_maps._lshm_loop(lib, xs, ys, p.x0, p.y0, p)
    chaotic_maps._clt_loop(lib, zs, c.z0, c)
    want = np.empty((3, steps))
    chaotic_maps._lshm_loop(None, *want[:2], p.x0, p.y0, p)
    chaotic_maps._clt_loop(None, want[2], c.z0, c)
    yield streams[:, :steps], want

    def quantized(stream, scale, modulus):
        return (round_half_away(stream * scale) % modulus).astype(np.uint8)

    edges = [-0.0, -3.0, 2.0**62 - 512, 2.0**62, 2.0**62 + 1024]
    values = np.array([k + 0.5 for k in range(-8, 8)] + edges + [-v for v in edges])
    yield _compiled_quantize(lib, values, 1.0, 3), quantized(values, 1.0, 3)
    lshm = streams[:2].reshape(-1)
    reas = _compiled_quantize(lib, lshm, 1e5, 256)
    yield reas, quantized(lshm, 1e5, 256)

    skip, seeds = _CONTEXT_SKIP, (0.0, *key.sbox_seeds[1:])
    sboxes = []
    for seed in seeds:
        stream = np.empty(skip + 256)
        chaotic_maps._clt_loop(lib, stream, seed, c)
        sboxes.append(sbox_from_stream(stream[skip:]))
    codes = quantized(zs[skip:skip + 240], 1e3, 3)
    for pixels in (4 * 4, 12 * 20):
        arrays = reas.reshape(2, -1)[:, :2 * pixels]
        (key1, key3), (key2, key4) = map(_argsort_keys, arrays)
        keys = key1, key2, key3, key4
        got = _compiled_context(lib, *arrays, c, seeds, pixels, skip, 32)
        yield from zip((None,) if got is None else (*got[0], got[1], *got[2]),
                       (*keys, codes[:pixels], *sboxes))
    yield from zip(_compiled_tables(lib, sboxes) or (None,), _fused_tables(*sboxes))
    sboxes[1] = sboxes[1].copy()
    sboxes[1][7] = sboxes[1][8]
    yield [_compiled_tables(lib, sboxes) is None], [True]

    odd = reas[:63].reshape(7, 9)
    for blk, blk_keys in ((reas[900:].reshape(6, 10), keys),
                          (odd, _argsort_keys(reas[100:100 + 8 * odd.size]))):
        for k in blk_keys:
            yield _compiled_ibt(lib, blk, k), _gather_bits(blk, k)
    blk = reas[600:720].reshape(12, 10)[::-2]
    yield _compiled_xcross(lib, blk, False), _permute_by_schedule(blk)
    yield _compiled_xcross(lib, blk, True), _unpermute_by_schedule(blk)
    # 97 and 768 are coprime, so each code << 8 | pixel comes once in the
    # first 768 lookups; the last 40 repeat the first 40
    pairs = np.arange(808) * 97 % 768
    ops, img = (pairs >> 8).astype(np.uint8), pairs.astype(np.uint8)
    table = reas[:768].reshape(3, 256)
    yield _compiled_substitute(lib, table, img, ops), _gather(table, img, ops)


def _statistics_pairs(lib: ctypes.CDLL):
    """The C statistics and their NumPy definitions in :mod:`~xcross.analysis`.

    The correlation sums are checked on 3x4, 12x13 and 91x92 blocks of
    hashed bytes, whose pair counts in the three directions cross 8 and 128
    (where NumPy's pairwise sum changes form) and 8192 (its buffer size),
    and on a view of the largest that takes every third row from the bottom
    up; the GLCM's sums and the histogram on the largest and the view.
    The hash is mixed as murmur3 finalises one, so that neighbouring
    products share no pattern: on the bytes of a bare multiplicative hash,
    a sum whose accumulators were combined in another order still matched.
    The hash of index 0 is 0, so pixel (0, 0) is zero on every image but
    the view, which starts at 119: only the view catches a mean that leaves
    out the corner pixel the first row and column share.
    """
    from .analysis import _numpy_moments, _numpy_statistics

    large = _hashed_pixels(91, 92)
    for img in (_hashed_pixels(3, 4), _hashed_pixels(12, 13)):
        got = _compiled_statistics(lib, img)
        yield got and got[0][:9], _numpy_moments(img)
    for img in (large, large[::-3]):
        yield from zip(_compiled_statistics(lib, img) or (None, None), _numpy_statistics(img))


#: Each group's check, and what its failure means.
_CHECKS = {
    "cipher": (_cipher_pairs, "differs from lshm_step/clt_step on the reference key "
               f"within {_SELF_CHECK_STEPS} steps, or from the NumPy quantizer, key sorts, "
               "operation codes, S-boxes, suite tables, bit gather, X-Cross or substitution"),
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
