from contextlib import contextmanager

import numpy as np
import pytest

from xcross import _native
from xcross.key_schedule import reference_key


def pytest_report_header(config):
    """Each routine group's verdict, so that a run whose compiled tests skip
    says which group runs its definitions and why."""
    verdicts = ", ".join(f"{group} {'compiled' if _native.trusted(group) else 'definitions'}"
                         for group in _native._CHECKS)
    return f"xcross compiled library: {verdicts}; failures: {_native.failures}"


@pytest.fixture(scope="session")
def ref_key():
    return reference_key()


@pytest.fixture()
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(scope="module")
def compiled_library():
    """The compiled library of ``_maps.c``; skips unless every routine
    group passed its check."""
    if not all(map(_native.trusted, _native._CHECKS)):
        pytest.skip(f"a routine group runs its definitions: {_native.failures}")
    return _native.trusted("cipher")


@contextmanager
def python_loops():
    """Run every layer by its Python or NumPy definition inside the
    ``with`` block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "trusted", lambda group: None)
        yield


#: The routine-group checks' hashed images: neighbouring pixels share no
#: pattern, so a sum added in another order shows in its last bits.
hashed_pixels = _native._hashed_pixels


#: Hashed images for the correlation sums, as (rows, cols, row step) by id.
#: Their pair counts in the three directions lie on both sides of 8 and 128,
#: where NumPy's pairwise sum changes form, and of 8192, its buffer size.
#: At 300x3 every leaf of the sum spans rows; at 1024x1024, the benchmark's
#: size, also with its rows reversed, leaves start mid-row and split many
#: times.
SUM_BLOCKS = {
    f"{rows}x{cols}": (rows, cols, 1)
    for rows, cols in [(2, 8), (2, 9), (3, 4), (2, 65), (2, 129), (2, 130), (12, 13),
                       (2, 4097), (2, 8192), (2, 8193), (91, 92), (8193, 2), (300, 3),
                       (1024, 1024)]
}
SUM_BLOCKS["1024x1024_flipped"] = (1024, 1024, -1)


def sum_block(rows, cols, row_step):
    """The image of one SUM_BLOCKS entry."""
    return hashed_pixels(rows, cols)[::row_step]
