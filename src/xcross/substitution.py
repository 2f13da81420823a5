"""Dynamic byte substitution driven by the operation-selection matrix.

Each pixel's code picks one of three S-boxes *and* a post-operation on the
looked-up byte: code 0 uses the box plainly, code 1 complements the
result, code 2 rotates it left by one bit.  Every branch is a byte
bijection, so the stage inverts exactly.  The three fused forward maps
are plain uint8 operations on the boxes, each inverse map is the argsort
of its forward row, and both directions are one gather from a flat
(3 * 256)-entry table at index ``code << 8 | pixel``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
        for box in self.sboxes:
            if np.asarray(box).shape != (256,):
                raise DimensionError("S-box tables must have 256 entries")
            if not np.all(np.bincount(np.asarray(box, dtype=np.uint8), minlength=256) == 1):
                raise OpCodeError("S-box table is not a bijection on 0..255")
        s0, s1, s2 = (np.asarray(b, dtype=np.uint8) for b in self.sboxes)
        fwd = np.stack([s0, ~s1, (s2 << 1) | (s2 >> 7)])
        bwd = np.argsort(fwd, axis=1).astype(np.uint8)
        fwd.setflags(write=False)
        bwd.setflags(write=False)
        object.__setattr__(self, "forward", fwd)
        object.__setattr__(self, "backward", bwd)


def _lookup(table: np.ndarray, img: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """``table[ops, img]`` for a (3, 256) table, as one flat gather."""
    img = checked_image(img)
    ops = np.asarray(ops)
    if ops.shape != img.shape:
        raise DimensionError(
            f"operation matrix shape {ops.shape} does not match image shape {img.shape}"
        )
    if ops.size and (ops.min() < 0 or ops.max() > 2):
        raise OpCodeError("operation matrix contains codes outside {0, 1, 2}")
    return np.take(table.reshape(-1), (ops.astype(np.uint16) << 8) | img)


def substitution_stage(img: np.ndarray, ops: np.ndarray, suite: SubstitutionSuite) -> np.ndarray:
    """Substitute every pixel according to its operation code."""
    return _lookup(suite.forward, img, ops)


def unsubstitute_stage(img: np.ndarray, ops: np.ndarray, suite: SubstitutionSuite) -> np.ndarray:
    """Exact inverse of :func:`substitution_stage`."""
    return _lookup(suite.backward, img, ops)
