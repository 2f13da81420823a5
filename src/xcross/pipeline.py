"""The full cipher: key derivation plus the three-layer transform.

Encryption order: split into quadrants -> XOR-cascaded X-Cross
permutation -> per-quadrant bit transference -> merge -> dynamic
substitution.  Decryption runs the exact inverses in reverse; its bit
transference is the forward one with the inverse keys, key3/key4/key1/key2
for quadrants A/B/C/D.  Both directions are deterministic functions of
(image, key material).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, ParameterError, checked_image
from .ibt import ibt_stage, ibt_unstage
from .key_schedule import (
    KeyMaterial,
    build_extraction_arrays,
    build_extraction_keys,
    build_operation_matrix,
    build_sboxes,
)
from .permutation import (
    merge_quadrants,
    permute_image,
    split_quadrants,
    unpermute_image,
)
from .substitution import SubstitutionSuite, substitution_stage, unsubstitute_stage

#: Largest image, in pixels, whose context `derive_context` keeps.  A
#: context holds four int32 keys of 2*M*N entries each (about 32 MB at
#: 1024^2), so large ones are rebuilt rather than held.
_MEMO_MAX_PIXELS = 256 * 256


@dataclass(frozen=True)
class CipherContext:
    """Everything derived from one KeyMaterial for one image geometry.

    Contexts from :func:`derive_context` may be shared between calls, so
    their ``keys``, ``opmatrix`` and S-box arrays are read-only.
    """

    keys: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    opmatrix: np.ndarray
    suite: SubstitutionSuite


def derive_context(key: KeyMaterial, m: int, n: int) -> CipherContext:
    """Deterministically assemble all key artifacts for an m x n image.

    The contexts of the two most recent (key, m, n) triples of up to
    256^2 pixels are kept and returned again on a repeat; keys that
    compare equal derive identical artifacts.  Larger contexts are
    derived afresh on every call.  The returned arrays are read-only.
    """
    if not isinstance(key, KeyMaterial):
        raise ParameterError("key must be KeyMaterial")
    if m * n <= _MEMO_MAX_PIXELS:
        return _recent_context(key, m, n)
    return _build_context(key, m, n)


def _build_context(key: KeyMaterial, m: int, n: int) -> CipherContext:
    # the CLT products first, so their temporaries are freed before the
    # four keys exist; the streams are independent, so no byte changes
    opmatrix = build_operation_matrix(key, m, n)
    sboxes = build_sboxes(key)
    rea1, rea2 = build_extraction_arrays(key, m, n)
    keys = build_extraction_keys(rea1, rea2)
    for arr in (*keys, opmatrix, *sboxes):
        arr.setflags(write=False)
    return CipherContext(keys=keys, opmatrix=opmatrix, suite=SubstitutionSuite(sboxes=sboxes))


# typed: an m or n of another type (8.0 for 8) must not hit a kept context
_recent_context = lru_cache(maxsize=2, typed=True)(_build_context)


def _checked_fit(img: np.ndarray, ctx: CipherContext) -> np.ndarray:
    img = checked_image(img)
    if ctx.opmatrix.shape != img.shape:
        raise DimensionError(
            f"context is sized for {ctx.opmatrix.shape}, image is {img.shape}"
        )
    return img


def encrypt_with_context(img: np.ndarray, ctx: CipherContext) -> np.ndarray:
    """Encrypt with pre-derived key artifacts: permute, IBT, substitute."""
    q = ibt_stage(permute_image(split_quadrants(_checked_fit(img, ctx))), ctx.keys)
    return substitution_stage(merge_quadrants(q), ctx.opmatrix, ctx.suite)


def decrypt_with_context(img: np.ndarray, ctx: CipherContext) -> np.ndarray:
    """Exact inverse of :func:`encrypt_with_context`: the inverse layers in reverse."""
    img = unsubstitute_stage(_checked_fit(img, ctx), ctx.opmatrix, ctx.suite)
    return merge_quadrants(unpermute_image(ibt_unstage(split_quadrants(img), ctx.keys)))


def encrypt(img: np.ndarray, key: KeyMaterial) -> np.ndarray:
    """Encrypt a uint8 grayscale image (dimensions divisible by 4)."""
    img = checked_image(img)
    return encrypt_with_context(img, derive_context(key, *img.shape))


def decrypt(img: np.ndarray, key: KeyMaterial) -> np.ndarray:
    """Decrypt a ciphertext produced by :func:`encrypt` with the same key."""
    img = checked_image(img)
    return decrypt_with_context(img, derive_context(key, *img.shape))
