from contextlib import contextmanager

import numpy as np
import pytest

from xcross import chaotic_maps
from xcross.key_schedule import reference_key


@pytest.fixture(scope="session")
def ref_key():
    return reference_key()


@pytest.fixture()
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(scope="module")
def compiled_library():
    """The compiled library of ``_maps.c``; skips where it did not load."""
    lib = chaotic_maps._kernel()
    if lib is None:
        pytest.skip(f"the compiled library did not load: {chaotic_maps._kernel_failure}")
    return lib


@contextmanager
def python_loops():
    """Derive with the Python loops and the NumPy sort and gather inside the
    ``with`` block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chaotic_maps, "_kernel", lambda: None)
        yield
