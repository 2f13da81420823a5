import dataclasses
import re

import numpy as np
import pytest
from conftest import hashed_pixels, python_loops
from hypothesis import given, settings
from hypothesis import strategies as st

from xcross import _native, analysis, key_schedule, pipeline
from xcross.errors import DimensionError, ParameterError
from xcross.key_schedule import random_key_material, reference_key
from xcross.pipeline import (
    decrypt,
    decrypt_with_context,
    derive_context,
    encrypt,
    encrypt_with_context,
)


def shannon_entropy(img):
    counts = np.bincount(img.reshape(-1), minlength=256)
    p = counts[counts > 0] / img.size
    return float(-(p * np.log2(p)).sum())


def ramp_image(m, n):
    """Smooth, highly structured plaintext."""
    ii, jj = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
    return ((ii * 3 + jj * 2) % 256).astype(np.uint8)


class TestDeriveContext:
    def test_determinism(self, ref_key):
        c1 = derive_context(ref_key, 8, 8)
        pipeline._recent_context.cache_clear()
        c2 = derive_context(ref_key, 8, 8)
        assert c1 is not c2
        for a, b in zip(c1.keys, c2.keys):
            assert np.array_equal(a, b)
        assert np.array_equal(c1.opmatrix, c2.opmatrix)
        for a, b in zip(c1.suite.sboxes, c2.suite.sboxes):
            assert np.array_equal(a, b)

    def test_rejects_non_mod4(self, ref_key):
        with pytest.raises(DimensionError):
            derive_context(ref_key, 6, 8)

    def test_reference_context_invariants(self, ref_key):
        ctx = derive_context(ref_key, 8, 8)
        n = np.arange(4 * 4 * 8)
        for perm in ctx.keys:
            assert np.array_equal(np.sort(perm), n)
        assert ctx.opmatrix.shape == (8, 8)
        assert set(np.unique(ctx.opmatrix)) <= {0, 1, 2}
        for box in ctx.suite.sboxes:
            assert np.all(np.bincount(box, minlength=256) == 1)

    def test_rejects_non_keymaterial(self):
        with pytest.raises(ParameterError):
            derive_context("not a key", 8, 8)


def with_signed_zero(key, field, zero, y0):
    lshm = dataclasses.replace(key.lshm, y0=y0)
    return dataclasses.replace(key, lshm=dataclasses.replace(lshm, **{field: zero}))


#: (field set to a signed zero, base y0) for the memo's identity check.
SIGNED_ZERO_CASES = [(f, y0) for f in ("x0", "k1", "k2", "alpha") for y0 in (0.5, 3.0)]
SIGNED_ZERO_CASES.append(("y0", 0.0))


class TestContextMemo:
    """`derive_context` keeps the two most recent contexts of up to 256^2."""

    def test_encrypt_and_decrypt_derive_once(self, rng, monkeypatch):
        calls = []
        real = key_schedule.iterate_lshm

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(key_schedule, "iterate_lshm", counted)
        key = random_key_material(rng)
        img = rng.integers(0, 256, size=(16, 12), dtype=np.uint8)
        assert np.array_equal(decrypt(encrypt(img, key), key), img)
        assert len(calls) == 1

    def test_keeps_the_two_most_recent(self, rng):
        k, k_prime, other = (random_key_material(rng) for _ in range(3))
        first = derive_context(k, 8, 8)
        second = derive_context(k_prime, 8, 8)
        assert derive_context(k, 8, 8) is first
        assert derive_context(k_prime, 8, 8) is second
        derive_context(other, 8, 8)
        derive_context(k, 8, 8)
        assert derive_context(k_prime, 8, 8) is not second

    @pytest.mark.parametrize(("field", "y0"), SIGNED_ZERO_CASES)
    def test_signed_zeros_give_identical_ciphertexts(self, field, y0):
        pos = with_signed_zero(reference_key(), field, 0.0, y0)
        neg = with_signed_zero(reference_key(), field, -0.0, y0)
        assert pos == neg and hash(pos) == hash(neg)
        img = ramp_image(8, 8)
        # encrypt each with a freshly derived context, not a kept one
        out = []
        for key in (pos, neg):
            pipeline._recent_context.cache_clear()
            out.append(encrypt(img, key).tobytes())
        assert out[0] == out[1]

    def test_context_arrays_are_read_only(self, ref_key):
        ctx = derive_context(ref_key, 8, 8)
        with pytest.raises(ValueError):
            ctx.keys[0][0] = 1
        with pytest.raises(ValueError):
            ctx.opmatrix[:] = 0
        with pytest.raises(ValueError):
            ctx.suite.sboxes[0][0] = 1

    def test_large_contexts_are_not_kept(self, ref_key):
        assert derive_context(ref_key, 256, 256) is derive_context(ref_key, 256, 256)
        before = pipeline._recent_context.cache_info()
        first = derive_context(ref_key, 256, 260)
        assert pipeline._recent_context.cache_info() == before
        assert derive_context(ref_key, 256, 260) is not first
        assert first.keys[0].flags.writeable is False

    def test_invalid_arguments_still_raise(self, ref_key):
        with pytest.raises(ParameterError):
            derive_context({"not": "a key"}, 8, 8)
        with pytest.raises(ParameterError):
            encrypt(np.zeros((8, 8), dtype=np.uint8), [ref_key])
        derive_context(ref_key, 8, 8)
        with pytest.raises(ParameterError):
            derive_context(ref_key, 8.0, 8)

    @pytest.mark.parametrize("m, n", [(np.int64(8), 8), (8, 8.0), (True, 8), (8, np.uint8(8)),
                                      ("8", 8), (None, 8)])
    def test_dimensions_that_are_not_ints_are_named(self, ref_key, m, n):
        named = re.escape(f"must be Python ints, got {m!r}x{n!r}")
        with pytest.raises(ParameterError, match=named):
            derive_context(ref_key, m, n)


class TestRoundTrip:
    def test_hundred_random_images(self, ref_key, rng):
        for _ in range(100):
            img = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
            assert np.array_equal(decrypt(encrypt(img, ref_key), ref_key), img)

    def test_random_keys_random_sizes(self, rng):
        for _ in range(10):
            key = random_key_material(rng)
            m = int(rng.choice([4, 8, 12, 16]))
            n = int(rng.choice([4, 8, 12, 16]))
            img = rng.integers(0, 256, size=(m, n), dtype=np.uint8)
            enc = encrypt(img, key)
            assert enc.shape == img.shape
            assert np.array_equal(decrypt(enc, key), img)

    def test_all_zero_image(self, ref_key):
        img = np.zeros((8, 8), dtype=np.uint8)
        assert np.array_equal(decrypt(encrypt(img, ref_key), ref_key), img)

    def test_context_reuse_round_trip(self, ref_key, rng):
        ctx = derive_context(ref_key, 16, 16)
        for _ in range(20):
            img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
            assert np.array_equal(
                decrypt_with_context(encrypt_with_context(img, ctx), ctx), img
            )

    def test_context_size_mismatch(self, ref_key, rng):
        ctx = derive_context(ref_key, 8, 8)
        with pytest.raises(DimensionError):
            encrypt_with_context(rng.integers(0, 256, size=(16, 16), dtype=np.uint8), ctx)


class TestCipherBehavior:
    def test_determinism(self, ref_key, rng):
        img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        assert np.array_equal(encrypt(img, ref_key), encrypt(img, ref_key))

    def test_dimension_preserved(self, ref_key, rng):
        img = rng.integers(0, 256, size=(12, 20), dtype=np.uint8)
        assert encrypt(img, ref_key).shape == (12, 20)

    def test_x0_nudge_changes_almost_every_pixel(self, rng):
        key = random_key_material(np.random.default_rng(42))
        moved = dataclasses.replace(
            key, lshm=dataclasses.replace(key.lshm, x0=key.lshm.x0 + 1e-10)
        )
        img = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        ca = encrypt(img, key)
        cb = encrypt(img, moved)
        assert np.mean(ca != cb) >= 0.99

    def test_wrong_key_decrypt_recovers_nothing(self):
        key = random_key_material(np.random.default_rng(3))
        wrong = random_key_material(np.random.default_rng(4))
        img = ramp_image(256, 256)
        garbage = decrypt(encrypt(img, key), wrong)
        assert shannon_entropy(garbage) >= 7.9

    def test_plaintext_structure_destroyed(self, ref_key):
        img = ramp_image(64, 64)
        enc = encrypt(img, ref_key)
        assert shannon_entropy(enc) >= 7.2  # 4096 pixels cap entropy well below 8

    def test_rejects_bad_inputs(self, ref_key):
        with pytest.raises(DimensionError):
            encrypt(np.zeros((6, 8), dtype=np.uint8), ref_key)
        with pytest.raises(ParameterError):
            encrypt(np.zeros((8, 8), dtype=np.float64), ref_key)
        with pytest.raises(DimensionError):
            encrypt(np.zeros(64, dtype=np.uint8), ref_key)


#: Quadrant of a flipped plaintext bit -> the fewest and most ciphertext
#: pixels it changes.  The cascade XOR, X-Cross and IBT are GF(2)-linear bit
#: maps and substitution is a bijection per pixel, so the flip stays one bit
#: in its own quadrant and each later one.  A bit in C also feeds
#: A' = X(A ^ C), so it reaches C' and D' twice, where the two copies may
#: cancel or share a pixel.
FLIP_PIXELS = {"A": (4, 4), "B": (3, 3), "C": (2, 6), "D": (1, 1)}


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.sampled_from([4, 8, 12, 16]),
    n=st.sampled_from([4, 8, 12, 16]),
)
def test_one_plaintext_bit_changes_at_most_six_pixels(data, seed, m, n):
    key = random_key_material(np.random.default_rng(seed))
    pixels = data.draw(st.binary(min_size=m * n, max_size=m * n))
    plain = np.frombuffer(pixels, dtype=np.uint8).reshape(m, n)
    row = data.draw(st.integers(0, m - 1), label="row")
    col = data.draw(st.integers(0, n - 1), label="col")
    flipped = plain.copy()
    flipped[row, col] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    changed = np.count_nonzero(encrypt(plain, key) != encrypt(flipped, key))
    quadrant = "ABCD"[2 * (row >= m // 2) + (col >= n // 2)]
    low, high = FLIP_PIXELS[quadrant]
    assert low <= changed <= high, (quadrant, changed)


#: Each layer's forward and inverse as the pipeline module names them, and
#: an identity stand-in with their signature.
LAYERS = {
    "permutation": (("permute_image", "unpermute_image"), lambda q: q),
    "ibt": (("ibt_stage", "ibt_unstage"), lambda q, keys: q),
    "substitution": (("substitution_stage", "unsubstitute_stage"), lambda img, ops, suite: img),
}


class TestAblationHook:
    """Drop one layer from outside by patching the pipeline's module globals.

    The pipeline must reach every layer through those globals (perfbench's
    tracer times the layers by patching them), each layer must change the
    ciphertext, and the other two must still invert each other.
    """

    @staticmethod
    def drop(monkeypatch, stage):
        names, identity = LAYERS[stage]
        for name in names:
            monkeypatch.setattr(pipeline, name, identity)

    @pytest.mark.parametrize("stage", LAYERS)
    def test_skipping_changes_ciphertext(self, ref_key, rng, monkeypatch, stage):
        img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        full = encrypt(img, ref_key)
        self.drop(monkeypatch, stage)
        assert not np.array_equal(full, encrypt(img, ref_key))

    @pytest.mark.parametrize("stage", LAYERS)
    def test_ablated_cipher_still_round_trips(self, ref_key, rng, monkeypatch, stage):
        img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        self.drop(monkeypatch, stage)
        assert np.array_equal(decrypt(encrypt(img, ref_key), ref_key), img)


class TestCompiledTraffic:
    """What the cipher hands the compiled routines.  Each wrapper copies an
    input that is not C-contiguous, so a caller that hands one a view costs
    a copy and changes no byte; only this test shows it."""

    WRAPPERS = sorted(name for name in vars(_native) if name.startswith("_compiled_"))

    # 20x20 quadrants have an odd number of column pairs
    @pytest.mark.parametrize("side", [64, 20])
    def test_arrays_are_already_contiguous(self, compiled_library, monkeypatch, rng, side):
        calls, stage = [], []

        def spy(name, wrapper):
            def call(*args):
                arrays = [a for a in args if isinstance(a, np.ndarray)]
                calls.append((stage[-1], name, arrays))
                return wrapper(*args)
            return call

        for name in self.WRAPPERS:
            monkeypatch.setattr(_native, name, spy(name, getattr(_native, name)))
        stage.append("derive")
        ctx = pipeline._build_context(reference_key(), side, side)
        stage.append("encrypt")
        cipher = encrypt_with_context(rng.integers(0, 256, size=(side, side), dtype=np.uint8), ctx)
        stage.append("decrypt")
        decrypt_with_context(cipher, ctx)
        stage.append("analyze")
        analysis.analyze(cipher)
        assert sorted({name for _, name, _ in calls}) == self.WRAPPERS
        assert [name for stage_name, name, _ in calls if stage_name == "analyze"] == [
            "_compiled_statistics"]
        for stage_name, name, arrays in calls:
            if (stage_name, name) == ("decrypt", "_compiled_ibt"):
                # the quadrant views of the unsubstituted image, copied today
                arrays = arrays[1:]
            assert all(a.flags.c_contiguous for a in arrays), (stage_name, name)

    def test_a_view_is_analyzed_in_one_call(self, compiled_library, monkeypatch):
        # every statistic comes from one compiled call, so a view is copied once
        cipher = encrypt(hashed_pixels(64, 64), reference_key())[:, ::-1]
        with python_loops():
            want = analysis.report_csv(analysis.analyze(cipher))
        calls, wrapper = [], _native._compiled_statistics

        def spy(lib, img):
            calls.append(img.flags.c_contiguous)
            return wrapper(lib, img)

        monkeypatch.setattr(_native, "_compiled_statistics", spy)
        assert analysis.report_csv(analysis.analyze(cipher)) == want
        assert calls == [False]
