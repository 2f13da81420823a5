import numpy as np
import pytest

from xcross.analysis import (
    adjacent_correlation,
    analyze,
    entropy,
    glcm,
    histogram_chi_square,
)
from xcross.errors import ParameterError
from xcross.ibt import ibt_apply
from xcross.image_io import write_pgm
from xcross.key_schedule import build_sboxes, reference_key
from xcross.permutation import split_quadrants, xcross_permute, xcross_unpermute
from xcross.pipeline import decrypt, encrypt
from xcross.substitution import SubstitutionSuite, substitution_stage, unsubstitute_stage

SUITE = SubstitutionSuite(sboxes=build_sboxes(reference_key()))
OPS = np.zeros((4, 4), dtype=np.uint8)

#: Public functions that take pixels, each with valid other arguments.
ENTRY_POINTS = {
    "substitution_stage": lambda img: substitution_stage(img, OPS, SUITE),
    "unsubstitute_stage": lambda img: unsubstitute_stage(img, OPS, SUITE),
    "ibt_apply": lambda img: ibt_apply(img, np.arange(4 * 4 * 8)),
    "xcross_permute": xcross_permute,
    "xcross_unpermute": xcross_unpermute,
    "split_quadrants": split_quadrants,
    "analyze": analyze,
    "entropy": entropy,
    "histogram_chi_square": histogram_chi_square,
    "glcm": glcm,
    "adjacent_correlation": lambda img: adjacent_correlation(img, "horizontal"),
    "write_pgm": write_pgm,
    "encrypt": lambda img: encrypt(img, reference_key()),
    "decrypt": lambda img: decrypt(img, reference_key()),
}


@pytest.mark.parametrize("pixels", [
    np.full((4, 4), 300, dtype=np.int64),
    np.full((4, 4), 1.7, dtype=np.float64),
], ids=["int64", "float64"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_uint8_pixels_rejected(entry, pixels):
    # no entry point may wrap such pixels into 0..255 (300 -> 44, 1.7 -> 1)
    with pytest.raises(ParameterError):
        ENTRY_POINTS[entry](pixels)
