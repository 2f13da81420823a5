import contextlib

import numpy as np
import pytest
from conftest import hashed_pixels, python_loops
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xcross import _native
from xcross.errors import DimensionError, ParameterError
from xcross.ibt import ibt_apply, ibt_stage, ibt_unstage
from xcross.key_schedule import (
    build_extraction_arrays,
    build_extraction_keys,
    random_key_material,
    reference_key,
)
from xcross.permutation import QuadSplit, merge_quadrants, split_quadrants


@pytest.fixture(scope="module")
def ref_keys_8x8(ref_key):
    # extraction keys sized for the 8x8 quadrants of a 16x16 image
    return build_extraction_keys(*build_extraction_arrays(ref_key, 16, 16))


def popcount(blk):
    return int(np.unpackbits(np.asarray(blk, dtype=np.uint8).reshape(-1)).sum())


class TestApplyInvert:
    def test_identity_key(self, rng):
        blk = rng.integers(0, 256, size=(4, 4), dtype=np.uint8)
        ident = np.arange(blk.size * 8)
        assert np.array_equal(ibt_apply(blk, ident), blk)
        assert np.array_equal(ibt_apply(blk, np.argsort(ident)), blk)

    def test_bit_reversal_on_single_pixel(self):
        blk = np.array([[0b10000000]], dtype=np.uint8)
        rev = np.arange(7, -1, -1)
        assert ibt_apply(blk, rev)[0, 0] == 0b00000001

    def test_msb_first_bit_order(self):
        # output bit j = input bit key[j], bit 0 being the MSB: with LSB-first
        # numbering this key would map 0b10000000 to 0b01000000 instead
        blk = np.array([[0b10000000]], dtype=np.uint8)
        assert ibt_apply(blk, [1, 2, 3, 4, 5, 6, 7, 0])[0, 0] == 0b00000001
        # pixels follow each other: swapping bits 7 and 8 moves the MSB of
        # the second pixel into the LSB of the first
        key = np.arange(16)
        key[7], key[8] = 8, 7
        pair = np.array([[0b00000000, 0b10000000]], dtype=np.uint8)
        assert ibt_apply(pair, key).tolist() == [[0b00000001, 0b00000000]]

    def test_popcount_conserved_under_reference_keys(self, ref_keys_8x8, rng):
        key1 = ref_keys_8x8[0]
        for _ in range(20):
            blk = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
            assert popcount(ibt_apply(blk, key1)) == popcount(blk)

    def test_round_trip_many(self, rng):
        perm = rng.permutation(8 * 8 * 8)
        for _ in range(1000):
            blk = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
            assert np.array_equal(ibt_apply(ibt_apply(blk, perm), np.argsort(perm)), blk)

    @pytest.mark.parametrize(
        "key",
        [reference_key(), random_key_material(np.random.default_rng(1)),
         random_key_material(np.random.default_rng(2))],
        ids=["reference", "random1", "random2"],
    )
    def test_inverse_keys_undo_forward_keys(self, key, rng):
        # ibt_unstage rests on this: key3 undoes key1 and key4 undoes key2,
        # in both orders, for the 6x10 quadrants of a 12x20 image
        key1, key2, key3, key4 = build_extraction_keys(*build_extraction_arrays(key, 12, 20))
        blk = rng.integers(0, 256, size=(6, 10), dtype=np.uint8)
        for fwd, inv in ((key1, key3), (key2, key4)):
            assert np.array_equal(ibt_apply(ibt_apply(blk, fwd), inv), blk)
            assert np.array_equal(ibt_apply(ibt_apply(blk, inv), fwd), blk)

    def test_single_bit_flip_moves_one_bit(self, rng):
        perm = rng.permutation(4 * 4 * 8)
        blk = rng.integers(0, 256, size=(4, 4), dtype=np.uint8)
        flipped = blk.copy()
        flipped[2, 3] ^= 0b00100000
        delta = ibt_apply(blk, perm) ^ ibt_apply(flipped, perm)
        assert popcount(delta) == 1

    def test_key_size_mismatch(self, rng):
        blk = rng.integers(0, 256, size=(4, 4), dtype=np.uint8)
        with pytest.raises(DimensionError):
            ibt_apply(blk, np.arange(100))

    @pytest.mark.parametrize("key", [[True, False] * 4, np.arange(8.0)], ids=["bool", "float"])
    def test_non_integer_key_rejected(self, key):
        # NumPy reads a bool key as a mask, which would keep 4 of the 8 bits
        # and give [[192]], and refuses a float key with a bare IndexError
        for path in (contextlib.nullcontext(), python_loops()):
            with path, pytest.raises(ParameterError, match="integers"):
                ibt_apply(np.array([[177]], np.uint8), key)

    @pytest.mark.parametrize("dtype", np.typecodes["AllInteger"])
    def test_integer_keys_of_every_width_give_the_same_bytes(self, rng, dtype):
        blk, key = hashed_pixels(4, 4), rng.permutation(128)
        want = numpy_gather(blk, key).tobytes()
        for path in (contextlib.nullcontext(), python_loops()):
            with path:
                assert ibt_apply(blk, key.astype(dtype)).tobytes() == want


class TestStage:
    def test_identity_keys_leave_image(self, rng):
        img = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        q = split_quadrants(img)
        ident = np.arange(4 * 4 * 8)
        out = ibt_stage(q, (ident, ident, ident, ident))
        assert np.array_equal(merge_quadrants(out), img)

    def test_zero_image_stays_zero(self, ref_keys_8x8):
        z = np.zeros((8, 8), dtype=np.uint8)
        out = ibt_stage(split_quadrants(np.zeros((16, 16), dtype=np.uint8)), ref_keys_8x8)
        for blk in out:
            assert not blk.any()

    def test_stage_round_trip(self, ref_keys_8x8, rng):
        for _ in range(50):
            img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
            q = split_quadrants(img)
            back = ibt_unstage(ibt_stage(q, ref_keys_8x8), ref_keys_8x8)
            assert np.array_equal(merge_quadrants(back), img)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.sampled_from([2, 4, 6]), cols=st.sampled_from([2, 4, 8]))
def test_property_round_trip_and_popcount(seed, rows, cols):
    r = np.random.default_rng(seed)
    blk = r.integers(0, 256, size=(rows, cols), dtype=np.uint8)
    perm = r.permutation(rows * cols * 8)
    out = ibt_apply(blk, perm)
    assert popcount(out) == popcount(blk)
    assert np.array_equal(ibt_apply(out, np.argsort(perm)), blk)


def numpy_gather(blk, key):
    """The IBT gather by intp indices, as the NumPy path has always run it."""
    return np.packbits(np.unpackbits(blk.reshape(-1))[np.asarray(key, np.intp)]).reshape(blk.shape)


# the AVX2 body prefetches the key 128 output bytes ahead (IBT_PREFETCH_LEAD
# in _maps.c): quadrants of 124, 128 and 132 bytes, and 135, odd, for the
# scalar loop
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12), cols=st.integers(1, 12))
@example(seed=1, rows=4, cols=31)
@example(seed=2, rows=4, cols=32)
@example(seed=3, rows=4, cols=33)
@example(seed=4, rows=3, cols=45)
def test_compiled_gather_matches_numpy(compiled_library, seed, rows, cols):
    r = np.random.default_rng(seed)
    img = r.integers(0, 256, size=(2 * rows, 2 * cols), dtype=np.uint8)
    # three quadrants as non-contiguous views of the image, one contiguous copy
    for blk in (img[:rows, :cols], img[:rows, cols:], img[rows:, cols:], img[rows:].copy()):
        key = r.permutation(8 * blk.size).astype(np.int32)
        want = numpy_gather(blk, key)
        assert np.array_equal(_native._compiled_ibt(compiled_library, blk, key), want)
        assert np.array_equal(ibt_apply(blk, key), want)
        # a non-contiguous int32 key is gathered through a copy, same bits
        strided = np.repeat(key, 2)[::2]
        assert np.array_equal(_native._compiled_ibt(compiled_library, blk, strided), want)
        assert np.array_equal(ibt_apply(blk, strided), want)
        assert _native._compiled_ibt(None, blk, key) is None
        assert _native._compiled_ibt(compiled_library, blk.astype(np.uint16), key) is None


class TestOutOfRangeInt32Keys:
    """The compiled gather refuses such keys; ibt_apply then does as NumPy does."""

    @pytest.fixture()
    def blk_key(self, rng):
        return (rng.integers(0, 256, size=(4, 4), dtype=np.uint8),
                rng.permutation(128).astype(np.int32))

    @pytest.mark.parametrize("bad", [-1, -128])
    def test_negative_index_wraps(self, compiled_library, blk_key, bad):
        blk, key = blk_key
        key[37] = bad
        assert _native._compiled_ibt(compiled_library, blk, key) is None
        assert np.array_equal(ibt_apply(blk, key), numpy_gather(blk, key))

    @pytest.mark.parametrize("bad", [128, -129, np.iinfo(np.int32).max, np.iinfo(np.int32).min])
    def test_out_of_range_index_raises(self, compiled_library, blk_key, bad):
        blk, key = blk_key
        key[127] = bad
        assert _native._compiled_ibt(compiled_library, blk, key) is None
        with pytest.raises(IndexError):
            ibt_apply(blk, key)

    # 16 and 132 bytes take the AVX2 gather on CPUs that have it, 15 and 135
    # the scalar loop everywhere; 132 and 135 pass the 128 output bytes the
    # AVX2 body prefetches the key ahead (IBT_PREFETCH_LEAD in _maps.c).  The
    # bad entry is the first or last of a group of 8: the second, the first,
    # read while the prefetch runs a full lead ahead, or the last, where the
    # prefetch is clamped to it
    either_path = pytest.mark.parametrize("shape", [(4, 4), (3, 5), (4, 33), (3, 45)],
                                          ids=["4x4", "3x5", "4x33", "3x45"])
    either_lane = pytest.mark.parametrize(
        "group, lane", [(1, 0), (1, 7), (0, 0), (0, 7), (-1, 0), (-1, 7)],
        ids=["lane0", "lane7", "first-lane0", "first-lane7", "last-lane0", "last-lane7"])

    @either_path
    @either_lane
    def test_negative_entry_wraps_on_either_path(self, compiled_library, rng, shape, group,
                                                 lane):
        blk = rng.integers(0, 256, size=shape, dtype=np.uint8)
        key = rng.permutation(8 * blk.size).astype(np.int32)
        key.reshape(-1, 8)[group, lane] = -1
        assert _native._compiled_ibt(compiled_library, blk, key) is None
        assert np.array_equal(ibt_apply(blk, key), numpy_gather(blk, key))

    @either_path
    @either_lane
    @pytest.mark.parametrize("past_end", [True, False], ids=["nbits", "int32min"])
    def test_entry_out_of_range_raises_on_either_path(self, compiled_library, rng, shape,
                                                      group, lane, past_end):
        blk = rng.integers(0, 256, size=shape, dtype=np.uint8)
        key = rng.permutation(8 * blk.size).astype(np.int32)
        key.reshape(-1, 8)[group, lane] = key.size if past_end else np.iinfo(np.int32).min
        assert _native._compiled_ibt(compiled_library, blk, key) is None
        with pytest.raises(IndexError):
            ibt_apply(blk, key)
