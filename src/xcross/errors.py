"""Exception hierarchy shared across the package, and the one image check.

The CLI maps these onto exit codes, so the split between parameter-domain,
dimension, and file-format failures is part of the public contract.
"""

import numpy as np


class XCrossError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(XCrossError):
    """A value lies outside its mathematical or configured domain."""


class EmptyRequestError(ParameterError):
    """Zero items were requested where at least one is required."""


class OpCodeError(ParameterError):
    """An operation-selection code is not one of 0, 1, 2."""


class DimensionError(XCrossError):
    """Array or image dimensions violate a structural requirement."""


class KeyFormatError(XCrossError):
    """A key file is syntactically malformed or names an unknown field."""


class PgmError(XCrossError):
    """Base class for PGM parse failures."""


class PgmMagicError(PgmError):
    """The stream does not start with the binary-PGM magic 'P5'."""


class PgmDepthError(PgmError):
    """The maxval is not 255 (only 8-bit grayscale is supported)."""


class PgmTruncatedError(PgmError):
    """Header or payload ends before the declared amount of data."""


class PgmOversizeError(PgmError):
    """Declared dimensions exceed the supported size cap."""


def checked_image(img) -> np.ndarray:
    """``img`` as an array, if it is a 2-D uint8 pixel array.

    Every function that takes pixels checks them here: another dtype
    raises ParameterError (no silent wrap to 0..255), another rank
    DimensionError.  Callers add their own shape conditions.
    """
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise ParameterError(f"images must be uint8, got dtype {img.dtype}")
    if img.ndim != 2:
        raise DimensionError(f"images must be 2-D, got shape {img.shape}")
    return img
