import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import python_loops
from xcross import _native
from xcross.errors import DimensionError, OpCodeError
from xcross.key_schedule import build_sboxes
from xcross.substitution import (
    SubstitutionSuite,
    _gather,
    _tables,
    substitution_stage,
    unsubstitute_stage,
)

IDENT = np.arange(256, dtype=np.uint8)


@pytest.fixture(scope="module")
def identity_suite():
    return SubstitutionSuite(sboxes=(IDENT.copy(), IDENT.copy(), IDENT.copy()))


@pytest.fixture(scope="module")
def ref_suite(ref_key):
    return SubstitutionSuite(sboxes=build_sboxes(ref_key))


class TestSuite:
    def test_inverse_boxes_invert(self, ref_suite):
        for fwd, bwd in zip(ref_suite.forward, ref_suite.backward):
            assert np.array_equal(bwd[fwd], IDENT)
            assert np.array_equal(fwd[bwd], IDENT)

    def test_rejects_non_bijection(self):
        broken = IDENT.copy()
        broken[3] = 4  # value 4 now appears twice, 3 never
        with pytest.raises(OpCodeError):
            SubstitutionSuite(sboxes=(broken, IDENT.copy(), IDENT.copy()))

    @pytest.mark.parametrize("wrapped", [256, -256, 0.5])
    def test_rejects_values_that_wrap_to_a_bijection(self, wrapped):
        # as uint8, 256 and -256 read 0 and 0.5 reads 0: still a bijection
        box = IDENT.astype(np.float64 if isinstance(wrapped, float) else np.int64)
        box[0] = wrapped
        with pytest.raises(OpCodeError, match="bijection"):
            SubstitutionSuite(sboxes=(box, IDENT.copy(), IDENT.copy()))

    def test_accepts_a_wider_integer_bijection(self):
        suite = SubstitutionSuite(sboxes=(IDENT.astype(np.int64), IDENT.copy(), IDENT.copy()))
        assert np.array_equal(suite.forward[0], IDENT)

    def test_rejects_wrong_count(self):
        with pytest.raises(OpCodeError):
            SubstitutionSuite(sboxes=(IDENT.copy(), IDENT.copy()))

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionError, match="256 entries"):
            SubstitutionSuite(sboxes=(IDENT[:255].copy(), IDENT.copy(), IDENT.copy()))


def _repeated(box, i, j):
    """A copy of ``box`` whose entry i repeats entry j."""
    box = box.copy()
    box[i] = box[j]
    return box


#: Three S-boxes each, which no suite may take, by why.
BAD_BOXES = {
    "repeat": (_repeated(IDENT, 3, 4), IDENT, IDENT),
    "repeat_last_box": (IDENT, IDENT, _repeated(IDENT[::-1], 255, 0)),
    "repeat_in_view": (IDENT, _repeated(IDENT, 0, 255)[::-1], IDENT),
    "short": (IDENT, IDENT[:255], IDENT),
    "repeat_before_short": (_repeated(IDENT, 9, 8), IDENT[:255], IDENT),
    "wraps": (IDENT.astype(np.int64) + 256 * (IDENT == 0), IDENT, IDENT),
    "two_dimensional": (IDENT.reshape(16, 16), IDENT, IDENT),
    "two_boxes": (IDENT, IDENT),
}


@pytest.mark.parametrize("sboxes", BAD_BOXES.values(), ids=BAD_BOXES.keys())
def test_bad_boxes_raise_alike_on_both_paths(compiled_library, sboxes):
    raised = []
    for path in (contextlib.nullcontext(), python_loops()):
        with path, pytest.raises((DimensionError, OpCodeError)) as info:
            SubstitutionSuite(sboxes=sboxes)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]


def test_compiled_tables_match_numpy(compiled_library, rng):
    boxes = tuple(rng.permutation(256).astype(np.uint8) for _ in range(3))
    # a view taken backwards is copied, and each box is its own buffer
    for sboxes in (boxes, (boxes[0][::-1], IDENT, boxes[2]), np.stack(boxes)):
        got = _native._compiled_tables(compiled_library, tuple(sboxes))
        for a, b in zip(got, _tables(sboxes), strict=True):
            assert a.shape == b.shape == (3, 256) and a.tobytes() == b.tobytes()


def _one_pixel(suite, p, op, stage=substitution_stage):
    return int(stage(np.array([[p]], dtype=np.uint8), np.array([[op]]), suite)[0, 0])


class TestPixelOps:
    def test_code0_is_plain_lookup(self, identity_suite):
        assert _one_pixel(identity_suite, 0x3C, 0) == 0x3C

    def test_code1_complements(self, identity_suite):
        assert _one_pixel(identity_suite, 0x00, 1) == 0xFF
        assert _one_pixel(identity_suite, 0xFF, 1, unsubstitute_stage) == 0x00

    def test_code2_rotates_left(self, identity_suite):
        assert _one_pixel(identity_suite, 0x80, 2) == 0x01
        assert _one_pixel(identity_suite, 0x01, 2, unsubstitute_stage) == 0x80

    def test_exhaustive_round_trip_768_cases(self, ref_suite):
        # every (code, byte) pair in one stage call, against the definition
        # built from the raw S-boxes: S0[p], 255 - S1[p], rotl1(S2[p])
        img = np.tile(IDENT, (3, 1))
        ops = np.repeat(np.arange(3, dtype=np.uint8)[:, None], 256, axis=1)
        out = substitution_stage(img, ops, ref_suite)
        s0, s1, s2 = (box.astype(int) for box in ref_suite.sboxes)
        expected = np.stack([s0, 255 - s1, ((s2 << 1) | (s2 >> 7)) & 0xFF])
        assert np.array_equal(out, expected)
        # inverting every row exactly makes each branch a bijection
        assert np.array_equal(unsubstitute_stage(out, ops, ref_suite), img)


class TestStage:
    def test_identity_suite_zero_codes(self, identity_suite, rng):
        img = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        ops = np.zeros((8, 8), dtype=np.uint8)
        assert np.array_equal(substitution_stage(img, ops, identity_suite), img)

    def test_constant_image_constant_codes(self, ref_suite):
        img = np.full((4, 4), 200, dtype=np.uint8)
        ops = np.full((4, 4), 2, dtype=np.uint8)
        out = substitution_stage(img, ops, ref_suite)
        assert np.all(out == out[0, 0])

    def test_pointwise(self, ref_suite, rng):
        img = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        ops = rng.integers(0, 3, size=(8, 8), dtype=np.uint8)
        out1 = substitution_stage(img, ops, ref_suite)
        img2 = img.copy()
        img2[5, 5] ^= 0xFF
        out2 = substitution_stage(img2, ops, ref_suite)
        diff = out1 != out2
        assert diff[5, 5] and diff.sum() == 1

    def test_stage_round_trip(self, ref_suite, rng):
        for _ in range(50):
            img = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
            ops = rng.integers(0, 3, size=(8, 8), dtype=np.uint8)
            enc = substitution_stage(img, ops, ref_suite)
            assert np.array_equal(unsubstitute_stage(enc, ops, ref_suite), img)

    def test_shape_mismatch(self, ref_suite):
        with pytest.raises(DimensionError):
            substitution_stage(
                np.zeros((4, 4), dtype=np.uint8), np.zeros((4, 8), dtype=np.uint8), ref_suite
            )

    def test_bad_codes_in_matrix(self, ref_suite):
        img = np.zeros((4, 4), dtype=np.uint8)
        for bad in (3, -1):
            ops = np.zeros((4, 4), dtype=np.int64)
            ops[1, 1] = bad
            for stage in (substitution_stage, unsubstitute_stage):
                with pytest.raises(OpCodeError):
                    stage(img, ops, ref_suite)

    @pytest.mark.parametrize("bad", [3, 255])
    def test_bad_uint8_codes_raise_on_the_compiled_path(self, compiled_library, ref_suite, bad):
        # the C lookup hands the codes back to the NumPy gather, which raises
        img = np.zeros((4, 4), dtype=np.uint8)
        ops = np.zeros((4, 4), dtype=np.uint8)
        ops[3, 2] = bad
        for table in (ref_suite.forward, ref_suite.backward):
            assert _native._compiled_substitute(compiled_library, table, img, ops) is None
        for stage in (substitution_stage, unsubstitute_stage):
            with pytest.raises(OpCodeError, match="outside"):
                stage(img, ops, ref_suite)

    def test_compiled_lookup_matches_numpy(self, compiled_library, ref_suite, rng):
        img = rng.integers(0, 256, size=(64, 48), dtype=np.uint8)
        ops = rng.integers(0, 3, size=(64, 48), dtype=np.uint8)
        for table in (ref_suite.forward, ref_suite.backward):
            for pixels in (img, img[::-1]):
                got = _native._compiled_substitute(compiled_library, table, pixels, ops)
                assert got.tobytes() == _gather(table, pixels, ops).tobytes()

    def test_int64_codes_give_the_uint8_bytes(self, ref_suite, rng):
        img = rng.integers(0, 256, size=(16, 12), dtype=np.uint8)
        ops = rng.integers(0, 3, size=(16, 12), dtype=np.uint8)
        for stage in (substitution_stage, unsubstitute_stage):
            want = stage(img, ops, ref_suite)
            assert stage(img, ops.astype(np.int64), ref_suite).tobytes() == want.tobytes()

    @pytest.mark.parametrize("ops", [np.full((4, 4), 1.7), np.full((4, 4), 1.0),
                                     np.ones((4, 4), dtype=bool)], ids=["1.7", "1.0", "bool"])
    def test_non_integer_codes_rejected(self, ref_suite, ops):
        # a float 1.7 would act as code 1
        img = np.zeros((4, 4), dtype=np.uint8)
        for stage in (substitution_stage, unsubstitute_stage):
            with pytest.raises(OpCodeError, match="integers"):
                stage(img, ops, ref_suite)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_property_random_suites_round_trip(seed):
    r = np.random.default_rng(seed)
    suite = SubstitutionSuite(
        sboxes=tuple(r.permutation(256).astype(np.uint8) for _ in range(3))
    )
    img = r.integers(0, 256, size=(4, 8), dtype=np.uint8)
    ops = r.integers(0, 3, size=(4, 8), dtype=np.uint8)
    assert np.array_equal(
        unsubstitute_stage(substitution_stage(img, ops, suite), ops, suite), img
    )
