"""The frozen texture: determinism, marginal exactness, smoothness."""

import numpy as np
import pytest

from xcross.analysis import analyze
from xcross.errors import DimensionError
from xcross.sample_images import natural_test_image, random_image


def test_deterministic_and_frozen():
    a = natural_test_image()
    b = natural_test_image()
    assert a.shape == (256, 256) and a.dtype == np.uint8
    assert np.array_equal(a, b)


def test_marginal_is_exactly_uniform():
    counts = np.bincount(natural_test_image().reshape(-1), minlength=256)
    assert np.all(counts == 256)


def test_smooth_but_quadrant_decorrelated():
    img = natural_test_image()
    assert analyze(img).corr_h >= 0.95
    left = img[:, :128].reshape(-1).astype(np.float64)
    right = img[:, 128:].reshape(-1).astype(np.float64)
    assert abs(np.corrcoef(left, right)[0, 1]) <= 0.2


def test_other_seed_differs():
    assert not np.array_equal(natural_test_image(), natural_test_image(seed=7))


def test_other_sizes():
    img = natural_test_image(size=64)
    assert img.shape == (64, 64)
    assert np.all(np.bincount(img.reshape(-1), minlength=256) == 16)


def test_size_must_allow_exact_binning():
    with pytest.raises(DimensionError):
        natural_test_image(size=100)


def test_random_image_shape_and_dtype():
    rng = np.random.default_rng(3)
    img = random_image(rng, (5, 9))
    assert img.shape == (5, 9) and img.dtype == np.uint8
    assert not np.array_equal(img, random_image(rng, (5, 9)))
