"""Dynamic byte substitution driven by the operation-selection matrix.

Each pixel's code picks one of three S-boxes *and* a post-operation on the
looked-up byte: code 0 uses the box plainly, code 1 complements the
result, code 2 rotates it left by one bit.  Every branch is a byte
bijection, so the stage inverts exactly.  The three fused forward maps
are plain uint8 operations on the boxes, each inverse map writes i at
entry ``forward[i]``, and both directions are one gather from a flat
(3 * 256)-entry table at index ``code << 8 | pixel``.  The compiled
library builds both tables of uint8 boxes in one C call, and hands a box
that is not a bijection back to the NumPy body, :func:`_tables`, which
raises exactly as there.

NumPy's checked ``np.take`` is the definition of the lookup.  Where the
compiled library of :mod:`~xcross._native` takes the codes (uint8, as the
key schedule derives them), one C pass looks the same bytes up and checks
the codes as it goes, without the uint16 and intp index arrays.  It hands
codes above 2 back to the NumPy gather, which raises exactly as there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _native
from .errors import DimensionError, OpCodeError, checked_image


@dataclass(frozen=True)
class SubstitutionSuite:
    """Three S-boxes plus the derived lookup tables for both directions.

    ``forward[k]`` is the complete pixel map for op code k (S-box then
    post-operation fused into one table); ``backward[k]`` is its inverse.
    """

    sboxes: tuple[np.ndarray, np.ndarray, np.ndarray]
    forward: np.ndarray = field(init=False, repr=False)
    backward: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.sboxes) != 3:
            raise OpCodeError("a substitution suite needs exactly three S-boxes")
        tables = _native._compiled_tables(_native.trusted("cipher"), self.sboxes)
        fwd, bwd = _tables(self.sboxes) if tables is None else tables
        fwd.setflags(write=False)
        bwd.setflags(write=False)
        object.__setattr__(self, "forward", fwd)
        object.__setattr__(self, "backward", bwd)


def _tables(sboxes) -> tuple[np.ndarray, np.ndarray]:
    """The forward and backward tables of three S-boxes by NumPy, raising
    for a box that is not a bijection on 0..255: the definition."""
    for box in sboxes:
        if np.asarray(box).shape != (256,):
            raise DimensionError("S-box tables must have 256 entries")
        # before the cast to uint8, which would read 256 as 0
        if not np.array_equal(np.sort(box), np.arange(256)):
            raise OpCodeError("S-box table is not a bijection on 0..255")
    return _fused_tables(*(np.asarray(b, dtype=np.uint8) for b in sboxes))


def _fused_tables(s0: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tables of three uint8 bijections: the forward maps, then their inverses."""
    fwd = np.array([s0, ~s1, (s2 << 1) | (s2 >> 7)])
    bwd = np.empty_like(fwd)
    bwd[np.arange(3)[:, None], fwd] = np.arange(256, dtype=np.uint8)
    return fwd, bwd


def _lookup(table: np.ndarray, img: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """``table[ops, img]`` for a (3, 256) table, as one flat gather."""
    img = checked_image(img)
    ops = np.asarray(ops)
    if not np.issubdtype(ops.dtype, np.integer):
        raise OpCodeError(f"operation codes must be integers, got dtype {ops.dtype}")
    if ops.shape != img.shape:
        raise DimensionError(
            f"operation matrix shape {ops.shape} does not match image shape {img.shape}"
        )
    out = _native._compiled_substitute(_native.trusted("cipher"), table, img, ops)
    return _gather(table, img, ops) if out is None else out


def _gather(table: np.ndarray, img: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """The checked flat gather by NumPy: the definition of the lookup."""
    if ops.size and (ops.min() < 0 or ops.max() > 2):
        raise OpCodeError("operation matrix contains codes outside {0, 1, 2}")
    return np.take(table.reshape(-1), (ops.astype(np.uint16) << 8) | img)


def substitution_stage(img: np.ndarray, ops: np.ndarray, suite: SubstitutionSuite) -> np.ndarray:
    """Substitute every pixel according to its operation code."""
    return _lookup(suite.forward, img, ops)


def unsubstitute_stage(img: np.ndarray, ops: np.ndarray, suite: SubstitutionSuite) -> np.ndarray:
    """Exact inverse of :func:`substitution_stage`."""
    return _lookup(suite.backward, img, ops)
