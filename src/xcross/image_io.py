"""Binary PGM (P5) reading and writing, bit-exact.

Only 8-bit single-plane images (maxval 255) are supported; that keeps the
container trivially deterministic, which the round-trip guarantees of the
cipher depend on.  Header comments are preserved on read, and the writer
emits at most one comment line: the ``# orig-size <w> <h>`` note used to
undo padding after decryption.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionError,
    ParameterError,
    PgmDepthError,
    PgmError,
    PgmMagicError,
    PgmOversizeError,
    PgmTruncatedError,
    checked_image,
)
from .key_schedule import MAX_PIXELS

_WS = frozenset(b" \t\n\r\v\f")
_HASH = 0x23

ORIG_SIZE_PREFIX = "orig-size"


def parse_pgm(raw: bytes) -> tuple[tuple[str, ...], np.ndarray]:
    """Parse a binary P5 stream into (header comments, pixels).

    The header tokenizer accepts any whitespace between tokens and comment
    lines anywhere before the maxval token; width, height and maxval are
    ASCII digits.  After maxval the format requires exactly one whitespace
    byte, then ``width*height`` payload bytes row-major; trailing bytes are
    ignored.
    """
    raw = bytes(raw)
    tokens: list[bytes] = []
    comments: list[str] = []
    pos, n = 0, len(raw)
    while len(tokens) < 4:
        if pos >= n:
            raise PgmTruncatedError("stream ended inside the header")
        b = raw[pos]
        if b in _WS:
            pos += 1
        elif b == _HASH:
            end = raw.find(b"\n", pos)
            if end < 0:
                raise PgmTruncatedError("unterminated header comment")
            comments.append(raw[pos + 1:end].decode("latin-1").strip())
            pos = end + 1
        else:
            start = pos
            while pos < n and raw[pos] not in _WS and raw[pos] != _HASH:
                pos += 1
            tokens.append(raw[start:pos])
            if len(tokens) == 1 and tokens[0] != b"P5":
                raise PgmMagicError(
                    f"not a binary PGM stream (magic {tokens[0]!r}, expected b'P5')"
                )
    # int() would also take signs and underscores
    if not all(t.isdigit() for t in tokens[1:]):
        raise PgmError(f"non-numeric header tokens {tokens[1:]!r}")
    # int() refuses more than 4300 digits: leading zeros aside, a side
    # longer than the pixel limit exceeds it whatever its value
    width, height, maxval = (t.lstrip(b"0") or b"0" for t in tokens[1:])
    if max(len(width), len(height)) > len(str(MAX_PIXELS)):
        raise PgmOversizeError(f"a {max(len(width), len(height))}-digit side exceeds the "
                               f"{MAX_PIXELS}-pixel limit")
    width, height = int(width), int(height)
    if width < 1 or height < 1:
        raise PgmError(f"degenerate dimensions {width}x{height}")
    if width * height > MAX_PIXELS:
        raise PgmOversizeError(
            f"{width}x{height} exceeds the {MAX_PIXELS}-pixel limit"
        )
    if maxval != b"255":
        shown = maxval.decode() if len(maxval) < 10 else f"a {len(maxval)}-digit number"
        raise PgmDepthError(f"only maxval 255 is supported, got {shown}")
    # exactly one whitespace byte separates the header from the payload;
    # anything else (including a comment here) would make payload bytes
    # that look like '#' ambiguous
    if pos >= n or raw[pos] not in _WS:
        raise PgmError("expected a single whitespace byte after maxval")
    pos += 1
    need = width * height
    if n - pos < need:
        raise PgmTruncatedError(
            f"payload holds {n - pos} bytes, header promises {need}"
        )
    pixels = (
        np.frombuffer(raw, dtype=np.uint8, count=need, offset=pos)
        .reshape(height, width)
        .copy()
    )
    return tuple(comments), pixels


def write_pgm(img: np.ndarray, pad_note: tuple[int, int] | None = None) -> bytes:
    """Serialize to the canonical byte form ``P5\\n<w> <h>\\n255\\n<payload>``.

    ``pad_note=(orig_w, orig_h)`` inserts the ``# orig-size`` comment right
    after the magic line so a later decryption can crop padding away.
    """
    img = checked_image(img)
    if img.size == 0:
        raise DimensionError(f"PGM payload must be nonempty, got shape {img.shape}")
    height, width = img.shape
    parts = ["P5\n"]
    if pad_note is not None:
        ow, oh = pad_note
        if ow < 1 or oh < 1 or ow > width or oh > height:
            raise ParameterError(
                f"original size {ow}x{oh} does not fit inside {width}x{height}"
            )
        parts.append(f"# {ORIG_SIZE_PREFIX} {ow} {oh}\n")
    parts.append(f"{width} {height}\n255\n")
    return "".join(parts).encode("ascii") + img.tobytes()


def original_size_note(comments: tuple[str, ...]) -> tuple[int, int] | None:
    """Extract (width, height) from an ``orig-size`` header comment, if any."""
    for line in comments:
        fields = line.split()
        # ASCII digits only, as in the header: int() would also take signs,
        # underscores and other scripts' digits
        if (len(fields) == 3 and fields[0] == ORIG_SIZE_PREFIX
                and all(f.isascii() and f.isdigit() for f in fields[1:])):
            # int() refuses more than 4300 digits: a side longer than the
            # pixel limit, leading zeros aside, reads as one past it
            ow, oh = (int(d) if len(d) <= len(str(MAX_PIXELS)) else MAX_PIXELS + 1
                      for d in (f.lstrip("0") or "0" for f in fields[1:]))
            if ow > 0 and oh > 0:
                return ow, oh
    return None
