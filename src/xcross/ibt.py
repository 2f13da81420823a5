"""Inter-bit transference: key-driven bit permutation of a quadrant block.

A block is linearized row-major, every pixel expanded MSB-first into 8
bits, and the resulting bit array is rearranged by an extraction key
(output bit j = input bit key[j]) before repacking.  Popcount is conserved
per block.  Rearranging by a key's inverse permutation undoes it, so the
inverse stage is the forward one with the key schedule's inverse keys.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, checked_image
from .permutation import QuadSplit


def block_to_bits(blk: np.ndarray) -> np.ndarray:
    """Row-major, MSB-first bit expansion of a uint8 block."""
    return np.unpackbits(checked_image(blk).reshape(-1), bitorder="big")


def bits_to_block(bits: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`block_to_bits`."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size != rows * cols * 8:
        raise DimensionError(
            f"bit array of length {bits.size} cannot fill a {rows}x{cols} block"
        )
    return np.packbits(bits, bitorder="big").reshape(rows, cols)


def _checked_key(blk: np.ndarray, key: np.ndarray) -> np.ndarray:
    key = np.asarray(key)
    if key.ndim != 1 or key.size != blk.size * 8:
        raise DimensionError(
            f"extraction key of length {key.size} does not fit a block of {blk.size} pixels"
        )
    return key


def ibt_apply(blk: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Rearrange the bits of one uint8 block: output bit j = input bit key[j]."""
    blk = checked_image(blk)
    key = _checked_key(blk, key)
    bits = block_to_bits(blk)
    return bits_to_block(bits[key], *blk.shape)


def ibt_stage(q: QuadSplit, keys: tuple[np.ndarray, ...]) -> QuadSplit:
    """Apply one extraction key per quadrant: A<-key1, B<-key2, C<-key3, D<-key4."""
    return QuadSplit(
        a=ibt_apply(q.a, keys[0]),
        b=ibt_apply(q.b, keys[1]),
        c=ibt_apply(q.c, keys[2]),
        d=ibt_apply(q.d, keys[3]),
    )


def ibt_unstage(q: QuadSplit, keys: tuple[np.ndarray, ...]) -> QuadSplit:
    """Exact inverse of :func:`ibt_stage`: A<-key3, B<-key4, C<-key1, D<-key2.

    Requires ``keys[2:]`` to be the inverse permutations of ``keys[:2]``,
    as :func:`~xcross.key_schedule.build_extraction_keys` derives them.
    """
    return QuadSplit(
        a=ibt_apply(q.a, keys[2]),
        b=ibt_apply(q.b, keys[3]),
        c=ibt_apply(q.c, keys[0]),
        d=ibt_apply(q.d, keys[1]),
    )
