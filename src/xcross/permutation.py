"""X-Cross pixel permutation and the XOR-cascaded quadrant diffusion layer.

The X-Cross permutation reads a block in crossing diagonal strokes: row
pairs are consumed outermost-first, and inside a row pair the column pairs
alternate outermost / innermost-remaining.  Each column pair contributes
its four corner pixels in the order (top,right), (bottom,left), (top,left),
(bottom,right) — the two diagonals of the little rectangle, crossed.  The
emitted pixel sequence refills the block row-major.  Every row pair emits
in the same column order, so one schedule of 2·cols read positions over
the pair's two rows serves the whole block.

The NumPy take through that schedule is the definition.  Where the
compiled library of :mod:`~xcross._native` runs, one C pass moves the
same bytes without the schedule's intp index.

At image level the four quadrants are chained: each quadrant is XORed with
the previous quadrant's *output* before being X-Cross permuted, so a
change anywhere propagates into every later quadrant while the whole
cascade stays exactly invertible.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _native
from .errors import DimensionError, checked_image


class QuadSplit(NamedTuple):
    """The four equal quadrants of an image, in reading order."""

    a: np.ndarray  # top-left
    b: np.ndarray  # top-right
    c: np.ndarray  # bottom-left
    d: np.ndarray  # bottom-right


def _check_block(blk: np.ndarray) -> np.ndarray:
    blk = checked_image(blk)
    r, c = blk.shape
    if r < 2 or c < 2 or r % 2 or c % 2:
        raise DimensionError(f"block dimensions must be even and >= 2, got {r}x{c}")
    return blk


def _check_quarterable(m: int, n: int) -> None:
    """An m x n image splits into four quadrants of even sides."""
    if m < 4 or n < 4 or m % 4 or n % 4:
        raise DimensionError(
            f"image dimensions must be multiples of 4 (so quadrants are even), got {m}x{n}"
        )


@lru_cache(maxsize=64)
def _pair_schedule(cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Read positions of one row pair laid out as ``[top row | bottom row]``,
    in emission order, and their inverse."""
    pairs = cols // 2
    # column-pair visit order: outermost, innermost-remaining, next-outermost, ...
    left = np.empty(pairs, dtype=np.intp)
    left[0::2] = np.arange((pairs + 1) // 2)
    left[1::2] = pairs - 1 - np.arange(pairs // 2)
    right = cols - 1 - left
    # (top,right), (bottom,left), (top,left), (bottom,right) per column pair
    read = np.stack([right, cols + left, left, cols + right], axis=1).reshape(-1)
    back = np.argsort(read)
    read.setflags(write=False)
    back.setflags(write=False)
    return read, back


def xcross_permute(blk: np.ndarray) -> np.ndarray:
    """Apply the X-Cross position permutation to one block."""
    blk = _check_block(blk)
    out = _native._compiled_xcross(_native.trusted("transform"), blk, False)
    return _permute_by_schedule(blk) if out is None else out


def xcross_unpermute(blk: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`xcross_permute`."""
    blk = _check_block(blk)
    out = _native._compiled_xcross(_native.trusted("transform"), blk, True)
    return _unpermute_by_schedule(blk) if out is None else out


def _permute_by_schedule(blk: np.ndarray) -> np.ndarray:
    """X-Cross by NumPy through the pair schedule: the definition."""
    rows, cols = blk.shape
    read, _ = _pair_schedule(cols)
    # row t beside row rows-1-t, outermost pair first
    pairs = np.concatenate([blk[: rows // 2], blk[::-1][: rows // 2]], axis=1)
    return pairs.take(read, axis=1).reshape(rows, cols)


def _unpermute_by_schedule(blk: np.ndarray) -> np.ndarray:
    """Inverse X-Cross by NumPy through the pair schedule: the definition."""
    rows, cols = blk.shape
    _, back = _pair_schedule(cols)
    pairs = blk.reshape(rows // 2, 2 * cols).take(back, axis=1)
    return np.concatenate([pairs[:, :cols], pairs[::-1, cols:]])


def split_quadrants(img: np.ndarray) -> QuadSplit:
    """Cut an image into four quadrant views (dimensions must be mod-4)."""
    img = checked_image(img)
    _check_quarterable(*img.shape)
    hm, hn = img.shape[0] // 2, img.shape[1] // 2
    return QuadSplit(a=img[:hm, :hn], b=img[:hm, hn:], c=img[hm:, :hn], d=img[hm:, hn:])


def merge_quadrants(q: QuadSplit) -> np.ndarray:
    """Reassemble the four quadrants; exact inverse of :func:`split_quadrants`."""
    if not (q.a.shape == q.b.shape == q.c.shape == q.d.shape):
        raise DimensionError("quadrants must all share one shape")
    return np.block([[q.a, q.b], [q.c, q.d]])


def permute_image(q: QuadSplit) -> QuadSplit:
    """XOR-cascade the quadrants through X-Cross: A', B', C', D'."""
    a1 = xcross_permute(q.a ^ q.c)
    b1 = xcross_permute(q.b ^ a1)
    c1 = xcross_permute(q.c ^ b1)
    d1 = xcross_permute(q.d ^ c1)
    return QuadSplit(a1, b1, c1, d1)


def unpermute_image(q: QuadSplit) -> QuadSplit:
    """Exact inverse of :func:`permute_image`."""
    d = xcross_unpermute(q.d) ^ q.c
    c = xcross_unpermute(q.c) ^ q.b
    b = xcross_unpermute(q.b) ^ q.a
    a = xcross_unpermute(q.a) ^ c
    return QuadSplit(a, b, c, d)
