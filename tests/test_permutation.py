import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import hashed_pixels
from xcross import _native
from xcross.errors import DimensionError, ParameterError
from xcross.permutation import (
    QuadSplit,
    _permute_by_schedule,
    _unpermute_by_schedule,
    merge_quadrants,
    permute_image,
    split_quadrants,
    unpermute_image,
    xcross_permute,
    xcross_unpermute,
)

EVEN_SIZES = [2, 4, 6, 8, 10, 12]


def index_block(rows, cols):
    """Block whose pixel values are their own flat positions (mod 256)."""
    return (np.arange(rows * cols, dtype=np.int64) % 256).astype(np.uint8).reshape(rows, cols)


class TestXCrossBlock:
    def test_hand_traced_4x4(self):
        blk = np.arange(1, 17, dtype=np.uint8).reshape(4, 4)
        want = np.array(
            [[4, 13, 1, 16], [3, 14, 2, 15], [8, 9, 5, 12], [7, 10, 6, 11]],
            dtype=np.uint8,
        )
        assert np.array_equal(xcross_permute(blk), want)

    def test_hand_traced_4x4_inverts(self):
        blk = np.arange(1, 17, dtype=np.uint8).reshape(4, 4)
        assert np.array_equal(xcross_unpermute(xcross_permute(blk)), blk)

    @pytest.mark.parametrize("rows", EVEN_SIZES)
    @pytest.mark.parametrize("cols", EVEN_SIZES)
    def test_first_four_emissions_are_the_outer_cross(self, rows, cols):
        blk = index_block(rows, cols)
        out = xcross_permute(blk).reshape(-1)
        expected = [blk[0, cols - 1], blk[rows - 1, 0], blk[0, 0], blk[rows - 1, cols - 1]]
        assert out[:4].tolist() == expected

    def test_constant_block_is_fixed_point(self):
        blk = np.full((8, 8), 177, dtype=np.uint8)
        assert np.array_equal(xcross_permute(blk), blk)
        assert np.array_equal(xcross_unpermute(blk), blk)

    def test_round_trip_many_random_blocks(self, rng):
        for _ in range(1000):
            blk = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
            assert np.array_equal(xcross_unpermute(xcross_permute(blk)), blk)

    def test_histogram_preserved(self, rng):
        blk = rng.integers(0, 256, size=(12, 10), dtype=np.uint8)
        out = xcross_permute(blk)
        assert np.array_equal(
            np.bincount(blk.reshape(-1), minlength=256),
            np.bincount(out.reshape(-1), minlength=256),
        )

    def test_strided_blocks_match_contiguous_copies(self, rng):
        img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        for quad in split_quadrants(img):
            for blk in (quad, quad[::-1]):
                assert not blk.flags.c_contiguous
                copy = np.ascontiguousarray(blk)
                assert np.array_equal(xcross_permute(blk), xcross_permute(copy))
                assert np.array_equal(xcross_unpermute(blk), xcross_unpermute(copy))

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (5, 5), (1, 8), (2,)])
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(DimensionError):
            xcross_permute(np.zeros(shape, dtype=np.uint8))

    def test_non_uint8_rejected(self):
        with pytest.raises(ParameterError):
            xcross_permute(np.zeros((4, 4), dtype=np.int32))


class TestAgainstBruteForceTable:
    """The independent nested-loop schedule is the yardstick (all even
    sizes 2..12 in both dimensions, squares and rectangles; a side of 2 is
    a single row pair or a single column pair)."""

    @pytest.mark.parametrize("rows", EVEN_SIZES)
    @pytest.mark.parametrize("cols", EVEN_SIZES)
    def test_emission_table_matches(self, rows, cols):
        table = oracles.xcross_table_naive(rows, cols)
        assert sorted(table) == list(range(rows * cols))  # bijection
        blk = index_block(rows, cols)
        out = xcross_permute(blk).reshape(-1)
        want = [blk.reshape(-1)[i] for i in table]
        assert out.tolist() == want

    @pytest.mark.parametrize("rows", EVEN_SIZES)
    @pytest.mark.parametrize("cols", EVEN_SIZES)
    def test_inverse_matches_table_scatter(self, rows, cols, rng):
        table = oracles.xcross_table_naive(rows, cols)
        blk = rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)
        flat = blk.reshape(-1)
        want = np.empty_like(flat)
        for dst, src in enumerate(table):
            want[src] = flat[dst]
        assert np.array_equal(xcross_unpermute(blk).reshape(-1), want)


class TestCompiledXCross:
    """The compiled X-Cross against the NumPy definition, as bytes, on
    whole blocks and on views the wrapper copies: quadrant views whose rows
    lie apart, and views taken bottom up."""

    # odd and even numbers of column pairs, single row and column pairs
    @pytest.mark.parametrize("rows, cols", [(6, 10), (10, 6), (2, 2), (2, 12), (12, 2),
                                            (8, 8), (14, 18), (64, 64)])
    def test_matches_numpy(self, compiled_library, rows, cols):
        blocks = [hashed_pixels(rows, cols), *split_quadrants(hashed_pixels(2 * rows, 2 * cols))]
        for blk in [*blocks, *(b[::-1] for b in blocks)]:
            for inverse, numpy in ((False, _permute_by_schedule), (True, _unpermute_by_schedule)):
                got = _native._compiled_xcross(compiled_library, blk, inverse)
                assert got.flags.c_contiguous and got.tobytes() == numpy(blk).tobytes()
            assert xcross_permute(blk).tobytes() == _permute_by_schedule(blk).tobytes()
            assert xcross_unpermute(blk).tobytes() == _unpermute_by_schedule(blk).tobytes()

    def test_columns_stepped_backwards_are_copied(self, compiled_library):
        blk = hashed_pixels(6, 10)[:, ::-1]
        for inverse, numpy in ((False, _permute_by_schedule), (True, _unpermute_by_schedule)):
            got = _native._compiled_xcross(compiled_library, blk, inverse)
            assert got.tobytes() == numpy(blk).tobytes()
        assert xcross_permute(blk).tobytes() == _permute_by_schedule(blk).tobytes()


class TestQuadrants:
    def test_split_reading_order(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        q = split_quadrants(img)
        assert np.array_equal(q.a, [[0, 1], [4, 5]])
        assert np.array_equal(q.b, [[2, 3], [6, 7]])
        assert np.array_equal(q.c, [[8, 9], [12, 13]])
        assert np.array_equal(q.d, [[10, 11], [14, 15]])

    def test_merge_inverts_split(self, rng):
        img = rng.integers(0, 256, size=(12, 8), dtype=np.uint8)
        assert np.array_equal(merge_quadrants(split_quadrants(img)), img)

    @pytest.mark.parametrize("shape", [(2, 2), (6, 6), (4, 10), (3, 4)])
    def test_non_mod4_rejected(self, shape):
        with pytest.raises(DimensionError):
            split_quadrants(np.zeros(shape, dtype=np.uint8))

    def test_256_gives_128_blocks(self):
        q = split_quadrants(np.zeros((256, 256), dtype=np.uint8))
        assert q.a.shape == q.b.shape == q.c.shape == q.d.shape == (128, 128)


class TestCascade:
    def test_zero_image_fixed_point(self):
        z = np.zeros((4, 4), dtype=np.uint8)
        out = permute_image(QuadSplit(z, z, z, z))
        for blk in out:
            assert np.array_equal(blk, z)

    def test_self_cancelling_construction(self, rng):
        a = rng.integers(0, 256, size=(4, 4), dtype=np.uint8)
        zero = np.zeros_like(a)
        out = permute_image(QuadSplit(a=a, b=zero, c=a.copy(), d=zero))
        assert np.array_equal(out.a, zero)  # a ^ c cancels
        assert np.array_equal(out.b, zero)  # 0 ^ 0
        assert np.array_equal(out.c, xcross_permute(a))
        assert np.array_equal(out.d, xcross_permute(xcross_permute(a)))
        back = unpermute_image(out)
        assert np.array_equal(back.a, a)
        assert np.array_equal(back.b, zero)
        assert np.array_equal(back.c, a)
        assert np.array_equal(back.d, zero)

    def test_round_trip_many_images(self, rng):
        for _ in range(1000):
            img = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
            q = split_quadrants(img)
            back = unpermute_image(permute_image(q))
            assert np.array_equal(merge_quadrants(back), img)

    def test_cascade_diffuses_forward(self, rng):
        # flipping one bit in quadrant A must reach B', C', D' (never A'
        # alone): A' = X(A^C) feeds B', which feeds C', which feeds D'.
        img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        q1 = split_quadrants(img)
        img2 = img.copy()
        img2[0, 0] ^= 0x80
        q2 = split_quadrants(img2)
        o1, o2 = permute_image(q1), permute_image(q2)
        assert not np.array_equal(o1.a, o2.a)
        assert not np.array_equal(o1.b, o2.b)
        assert not np.array_equal(o1.c, o2.c)
        assert not np.array_equal(o1.d, o2.d)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.sampled_from(EVEN_SIZES),
    cols=st.sampled_from(EVEN_SIZES),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_round_trip_and_multiset(rows, cols, seed):
    blk = np.random.default_rng(seed).integers(0, 256, size=(rows, cols), dtype=np.uint8)
    out = xcross_permute(blk)
    assert np.array_equal(
        np.bincount(blk.reshape(-1), minlength=256),
        np.bincount(out.reshape(-1), minlength=256),
    )
    assert np.array_equal(xcross_unpermute(out), blk)
