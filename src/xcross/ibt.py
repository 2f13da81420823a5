"""Inter-bit transference: key-driven bit permutation of a quadrant block.

A block is linearized row-major and unpacked MSB-first into 8 bits per
pixel; one gather by an extraction key (output bit j = input bit key[j])
rearranges those bits, and they are packed back into the block's shape.
The key must be a permutation of ``range(8 * block.size)``, as
:func:`~xcross.key_schedule.build_extraction_keys` derives it; then
popcount is conserved per block, and rearranging by the key's inverse
permutation undoes it, so the inverse stage is the forward one with the
key schedule's inverse keys.  Only the key's dtype and length are checked:
a full check would cost one more pass over the key per quadrant and call.

The NumPy unpack/gather/pack is the definition.  Where the compiled
library of :mod:`~xcross._native` takes the key (int32, as the key
schedule derives it), it gathers the same bits without the unpacked
copy.  It hands a key with an index outside ``range(8 * block.size)``
back to the NumPy gather, so such keys wrap or raise exactly as there.
"""

from __future__ import annotations

import numpy as np

from . import _native
from .errors import DimensionError, ParameterError, checked_image
from .permutation import QuadSplit


def ibt_apply(blk: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Rearrange the bits of one uint8 block: output bit j = input bit key[j].

    ``key`` must be a permutation of ``range(8 * blk.size)``, as
    :func:`~xcross.key_schedule.build_extraction_keys` derives it.  Only
    its dtype (an integer one) and length are checked: an in-range key of
    that length that is not a permutation duplicates or drops bits.
    """
    blk = checked_image(blk)
    key = np.asarray(key)
    if not np.issubdtype(key.dtype, np.integer):
        raise ParameterError(f"extraction keys must be integers, got dtype {key.dtype}")
    if key.ndim != 1 or key.size != blk.size * 8:
        raise DimensionError(
            f"extraction key of length {key.size} does not fit a block of {blk.size} pixels"
        )
    out = _native._compiled_ibt(_native.trusted("cipher"), blk, key)
    return _gather_bits(blk, key) if out is None else out


def _gather_bits(blk: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Output bit j = input bit key[j], by NumPy: the definition of the gather."""
    return np.packbits(np.unpackbits(blk.reshape(-1))[key]).reshape(blk.shape)


def ibt_stage(q: QuadSplit, keys: tuple[np.ndarray, ...]) -> QuadSplit:
    """Apply one extraction key per quadrant: A<-key1, B<-key2, C<-key3, D<-key4."""
    return QuadSplit(*map(ibt_apply, q, keys))


def ibt_unstage(q: QuadSplit, keys: tuple[np.ndarray, ...]) -> QuadSplit:
    """Exact inverse of :func:`ibt_stage`: A<-key3, B<-key4, C<-key1, D<-key2.

    Requires ``keys[2:]`` to be the inverse permutations of ``keys[:2]``,
    as :func:`~xcross.key_schedule.build_extraction_keys` derives them.
    """
    return QuadSplit(*map(ibt_apply, q, (*keys[2:], *keys[:2])))
