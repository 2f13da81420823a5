"""PGM container: parsing tolerance, canonical output, error taxonomy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xcross.errors import (
    DimensionError,
    ParameterError,
    PgmDepthError,
    PgmError,
    PgmMagicError,
    PgmOversizeError,
    PgmTruncatedError,
)
from xcross.image_io import original_size_note, parse_pgm, write_pgm
from xcross.key_schedule import MAX_PIXELS

TINY = np.array([[1, 2], [3, 4]], dtype=np.uint8)


class TestParsing:
    def test_minimal_single_space_file(self):
        comments, pixels = parse_pgm(b"P5 2 2 255 " + bytes([1, 2, 3, 4]))
        assert comments == ()
        assert np.array_equal(pixels, TINY)

    def test_mixed_whitespace(self):
        _, pixels = parse_pgm(b"P5\t2\r\n2\n255\n" + bytes([1, 2, 3, 4]))
        assert np.array_equal(pixels, TINY)

    def test_comments_between_tokens_are_preserved(self):
        raw = b"P5\n# first note\n2 2\n# second\n255\n" + bytes([1, 2, 3, 4])
        comments, pixels = parse_pgm(raw)
        assert comments == ("first note", "second")
        assert np.array_equal(pixels, TINY)

    def test_payload_may_start_with_hash_byte(self):
        # 0x23 is '#'; it must be read as a pixel, not a comment
        raw = b"P5\n2 2\n255\n" + bytes([0x23, 0, 0, 0])
        assert parse_pgm(raw)[1][0, 0] == 0x23

    def test_trailing_bytes_ignored(self):
        raw = b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4]) + b"extra"
        assert np.array_equal(parse_pgm(raw)[1], TINY)

    def test_row_major_layout(self):
        raw = b"P5\n3 2\n255\n" + bytes(range(6))
        pixels = parse_pgm(raw)[1]
        assert pixels.shape == (2, 3)
        assert pixels[1, 0] == 3


class TestRejections:
    def test_ascii_pgm_magic(self):
        with pytest.raises(PgmMagicError):
            parse_pgm(b"P2\n2 2\n255\n1 2 3 4")

    def test_ppm_magic(self):
        with pytest.raises(PgmMagicError):
            parse_pgm(b"P6\n2 2\n255\n" + bytes(12))

    def test_garbage_magic(self):
        with pytest.raises(PgmMagicError):
            parse_pgm(b"BM\x00\x00")

    def test_sixteen_bit_depth(self):
        with pytest.raises(PgmDepthError):
            parse_pgm(b"P5\n2 2\n65535\n" + bytes(8))

    def test_other_depth(self):
        with pytest.raises(PgmDepthError):
            parse_pgm(b"P5\n2 2\n100\n" + bytes(4))

    def test_truncated_payload(self):
        with pytest.raises(PgmTruncatedError):
            parse_pgm(b"P5\n4 4\n255\n" + bytes(15))

    def test_truncated_header(self):
        with pytest.raises(PgmTruncatedError):
            parse_pgm(b"P5\n2 2")
        with pytest.raises(PgmTruncatedError, match="unterminated"):
            parse_pgm(b"P5\n# no newline")

    def test_oversize_dimensions(self):
        # 5000*5000 = 25e6 pixels, above the 2^24 cap; no payload needed
        # because the size check fires before payload validation
        with pytest.raises(PgmOversizeError):
            parse_pgm(b"P5\n5000 5000\n255\n")

    def test_zero_width(self):
        with pytest.raises(PgmError):
            parse_pgm(b"P5\n0 2\n255\n")

    def test_non_numeric_token(self):
        # int() alone would read 1_2 as 12, +4 as 4 and 2_5_5 as 255
        for header in (b"P5\nwide 2\n255\n", b"P5\n1_2 4\n255\n", b"P5\n12 +4\n255\n",
                       b"P5\n12 4\n2_5_5\n", b"P5\n12 -4\n255\n"):
            with pytest.raises(PgmError, match="non-numeric"):
                parse_pgm(header + bytes(48))

    def test_missing_separator(self):
        with pytest.raises(PgmError):
            parse_pgm(b"P5\n2 2\n255")

    @pytest.mark.parametrize("header, error", [
        # int() refuses more than 4300 digits
        pytest.param(b"P5\n%s 2\n255\n" % (b"9" * 5000), PgmOversizeError, id="width"),
        pytest.param(b"P5\n2 %s\n255\n" % (b"1" * 5000), PgmOversizeError, id="height"),
        pytest.param(b"P5\n2 2\n%s\n" % (b"2" * 5000), PgmDepthError, id="maxval"),
        # a side one digit longer than the pixel limit, and one digit within
        pytest.param(b"P5\n%d 1\n255\n" % 10**8, PgmOversizeError, id="nine_digits"),
        pytest.param(b"P5\n%d 2\n255\n" % (10**8 - 1), PgmOversizeError, id="eight_digits"),
    ])
    def test_huge_header_numbers_refused_by_class(self, header, error):
        with pytest.raises(error) as exc:
            parse_pgm(header + bytes(4))
        assert len(str(exc.value)) < 80  # a long number is shown by its length

    def test_zero_padded_header_numbers_keep_their_value(self):
        pad = b"0" * 5000
        comments, img = parse_pgm(b"P5\n%s3 %s2\n%s255\n" % (pad, pad, pad) + bytes(range(6)))
        assert img.shape == (2, 3) and img.tobytes() == bytes(range(6))
        with pytest.raises(PgmError, match="degenerate dimensions 0x2"):
            parse_pgm(b"P5\n%s 2\n255\n" % pad)


class TestWriting:
    def test_canonical_bytes(self):
        assert write_pgm(TINY) == b"P5\n2 2\n255\n\x01\x02\x03\x04"

    def test_pad_note_comment(self):
        raw = write_pgm(np.zeros((4, 4), dtype=np.uint8), pad_note=(3, 2))
        assert raw.startswith(b"P5\n# orig-size 3 2\n4 4\n255\n")
        comments, _ = parse_pgm(raw)
        assert comments == ("orig-size 3 2",)
        assert original_size_note(comments) == (3, 2)

    def test_pad_note_must_fit(self):
        with pytest.raises(ParameterError):
            write_pgm(TINY, pad_note=(3, 2))

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        img = rng.integers(0, 256, size=(9, 7), dtype=np.uint8)
        assert write_pgm(img) == write_pgm(img)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ParameterError):
            write_pgm(np.zeros((2, 2), dtype=np.int32))

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionError):
            write_pgm(np.zeros((2, 2, 2), dtype=np.uint8))
        with pytest.raises(DimensionError):
            write_pgm(np.zeros((0, 2), dtype=np.uint8))

    def test_noncontiguous_input(self):
        base = np.arange(64, dtype=np.uint8).reshape(8, 8)
        view = base[::2, ::2]
        assert np.array_equal(parse_pgm(write_pgm(view))[1], view)


class TestRoundTrip:
    def test_hundred_random_images(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            h = int(rng.integers(1, 40))
            w = int(rng.integers(1, 40))
            img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            again = parse_pgm(write_pgm(img))[1]
            assert again.shape == img.shape
            assert np.array_equal(again, img)

    def test_read_gives_writable_copy(self):
        pixels = parse_pgm(write_pgm(TINY))[1]
        pixels[0, 0] = 99  # must not raise


class TestOrigSizeNote:
    def test_absent(self):
        assert original_size_note(()) is None
        assert original_size_note(("just a note",)) is None

    def test_malformed_values_skipped(self):
        assert original_size_note(("orig-size two three",)) is None
        assert original_size_note(("orig-size 0 5",)) is None

    @pytest.mark.parametrize("field", ["+4", "0_4", "-4", "\u0664"])
    def test_values_are_ascii_digits(self, field):
        # int() reads each as a number; a note that is not plain ASCII
        # digits is ignored, as such PGM header numbers are refused
        assert original_size_note((f"orig-size {field} 4",)) is None
        assert original_size_note((f"orig-size 4 {field}",)) is None
        assert original_size_note((f"orig-size {field} 4", "orig-size 3 2")) == (3, 2)

    def test_first_valid_wins(self):
        assert original_size_note(("x", "orig-size 7 9", "orig-size 1 1")) == (7, 9)

    def test_huge_values_read_past_the_pixel_limit(self):
        # int() refuses more than 4300 digits; such a side fits no image
        huge = "7" * 4400
        assert original_size_note((f"orig-size {huge} 4",)) == (MAX_PIXELS + 1, 4)
        assert original_size_note((f"orig-size 4 {huge}",)) == (4, MAX_PIXELS + 1)
        assert original_size_note((f"orig-size {'0' * 5000}8 3",)) == (8, 3)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    h=st.integers(min_value=1, max_value=24),
    w=st.integers(min_value=1, max_value=24),
)
def test_write_read_identity(data, h, w):
    pixels = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=255),
            min_size=h * w,
            max_size=h * w,
        )
    )
    img = np.array(pixels, dtype=np.uint8).reshape(h, w)
    assert np.array_equal(parse_pgm(write_pgm(img))[1], img)
