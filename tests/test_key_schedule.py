import contextlib
import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import REPO_ROOT, python_loops, x86_64_only
from xcross import _native
from xcross.chaotic_maps import TRANSIENT, CltParams, LshmParams, iterate_clt, iterate_lshm
from xcross.errors import DimensionError, KeyFormatError, ParameterError
from xcross.key_schedule import (
    _QUANTIZE_CHUNK,
    KEY_FIELDS,
    PARAM_RANGES,
    KeyMaterial,
    build_extraction_arrays,
    build_extraction_keys,
    build_operation_matrix,
    build_sboxes,
    _context_arrays,
    key_from_values,
    key_values,
    parse_key,
    random_key_material,
    reference_key,
    _quantized,
    round_half_away,
    sbox_from_stream,
    serialize_key,
)
from xcross.pipeline import encrypt


def nudged(key: KeyMaterial, field: str, delta: float = 1e-10) -> KeyMaterial:
    """Copy of the key with one scalar perturbed."""
    if field.startswith("lshm."):
        name = field.split(".", 1)[1]
        lshm = dataclasses.replace(key.lshm, **{name: getattr(key.lshm, name) + delta})
        return dataclasses.replace(key, lshm=lshm)
    if field.startswith("clt."):
        name = {"lambda": "lam", "alpha": "alpha_c", "z0": "z0"}[field.split(".", 1)[1]]
        clt = dataclasses.replace(key.clt, **{name: getattr(key.clt, name) + delta})
        return dataclasses.replace(key, clt=clt)
    idx = int(field[-1]) - 1
    seeds = list(key.sbox_seeds)
    seeds[idx] += delta
    return dataclasses.replace(key, sbox_seeds=tuple(seeds))


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, 0), (2.4, 2), (2.5, 3), (2.6, 3), (500.5, 501),
            (-2.4, -2), (-2.5, -3), (-2.6, -3), (-500.5, -501),
        ],
    )
    def test_half_away_cases(self, value, expected):
        assert round_half_away(np.array([value]))[0] == expected

    def test_matches_exact_rationals(self, rng):
        vals = rng.uniform(-4.0, 4.0, size=2000)
        got = round_half_away(vals * 1e5)
        want = [oracles.round_half_away_exact(float(v * 1e5), 1) for v in vals]
        assert got.tolist() == want


@pytest.fixture(params=["compiled", "numpy"])
def quantizer(request):
    """Runs the test with ``_quantized`` by the C loop, then by NumPy."""
    if request.param == "compiled":
        request.getfixturevalue("compiled_library")
        yield
    else:
        with python_loops():
            yield


#: Non-finite values, values at and beyond the ends of int64, and a tie,
#: for `_quantized`.
NON_FINITE = np.array([np.nan, -np.nan, np.inf, -np.inf, 1e300, -1e300, 2.0**63, -2.0**63, 0.5])


class TestChunkedQuantize:
    """``_quantized`` must give round_half_away's bytes across chunk borders,
    by the C loop and by NumPy."""

    @staticmethod
    def reference(stream, scale, modulus):
        return np.mod(round_half_away(stream * scale), modulus).astype(np.uint8)

    @pytest.mark.parametrize("scale, modulus", [(1.0, 256), (1e5, 256), (1e3, 3)])
    def test_matches_round_half_away(self, quantizer, rng, scale, modulus):
        stream = rng.uniform(-4.0, 4.0, 2 * _QUANTIZE_CHUNK + 3)
        # exact ties both ways, signed zeros and a negative tie at each border
        stream[::5] = (np.arange(stream[::5].size) % 1000 - 500) + 0.5
        stream[1::11] = -0.0
        stream[_QUANTIZE_CHUNK - 1:2 * _QUANTIZE_CHUNK + 1:_QUANTIZE_CHUNK] = -2.5
        got = _quantized(stream, scale, modulus)
        assert got.dtype == np.uint8
        assert got.tobytes() == self.reference(stream, scale, modulus).tobytes()

    @pytest.mark.parametrize("modulus", [3, 256])
    def test_ties_negatives_and_large_values(self, quantizer, modulus):
        # every k + 0.5 for k in -40..39, then values within a few ulps of
        # +-2**62 and the largest double below 2**63
        near = np.array([2.0**62 - 512, 2.0**62, 2.0**62 + 1024, 2.0**63 - 1024, 12345.5])
        stream = np.concatenate([np.arange(-40, 40) + 0.5, near, -near])
        want = [oracles.round_half_away_exact(float(v), 1) % modulus for v in stream]
        assert _quantized(stream, 1.0, modulus).tolist() == want

    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
    def test_non_finite_values_match_round_half_away(self):
        with python_loops():
            for modulus in (256, 3):
                got = _quantized(NON_FINITE, 1e5, modulus)
                assert got.tobytes() == self.reference(NON_FINITE, 1e5, modulus).tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
    @pytest.mark.parametrize("scale, modulus, expected", [
        (1e5, 256, [0, 0, 0, 0, 0, 0, 0, 0, 80]),
        (1e3, 3, [1, 1, 1, 1, 1, 1, 1, 1, 2]),
    ])
    @pytest.mark.parametrize("path", [
        "compiled", pytest.param("numpy", marks=x86_64_only)])
    def test_non_finite_values_give_fixed_bytes(self, request, path, scale, modulus, expected):
        # the C loop gives these bytes on every CPU, NumPy's cast on x86-64
        if path == "compiled":
            request.getfixturevalue("compiled_library")
        with python_loops() if path == "numpy" else contextlib.nullcontext():
            assert _quantized(NON_FINITE, scale, modulus).tolist() == expected

    def test_compiled_quantizer_warns_of_nothing(self, compiled_library):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _quantized(NON_FINITE, 1e5, 256).tolist() == [0] * 8 + [80]
            # exactly +-2**63, where the C loop stops converting
            assert _quantized(np.array([2.0**63, -2.0**63]), 1.0, 3).tolist() == [1, 1]

    def test_other_moduli_and_dtypes_take_numpy(self, compiled_library):
        for stream, modulus in ((np.arange(4.0), 7), (np.arange(4, dtype=np.float32), 3),
                                (np.ones((2, 2)), 3)):
            assert _native._compiled_quantize(compiled_library, stream, 1.0, modulus) is None
        assert _quantized(np.arange(-3.0, 4.0), 1.0, 7).tolist() == [4, 5, 6, 0, 1, 2, 3]


class TestExtractionArrays:
    def test_quantizer_hand_values(self):
        # 0.123456 scales to 12345.6 -> 12346 -> 58 after mod 256
        assert np.mod(round_half_away(np.array([0.123456]) * 1e5), 256)[0] == 58
        assert np.mod(round_half_away(np.array([0.0]) * 1e5), 256)[0] == 0

    def test_reference_rea_matches_exact_quantization(self, ref_key):
        rea1, rea2 = build_extraction_arrays(ref_key, 8, 8)
        xs, ys = iterate_lshm(ref_key.lshm, 128)
        assert rea1.tolist() == oracles.quantize_rea_exact([float(v) for v in xs])
        assert rea2.tolist() == oracles.quantize_rea_exact([float(v) for v in ys])
        assert rea1.shape == rea2.shape == (128,)
        assert rea1.min() >= 0 and rea1.max() <= 255
        assert rea2.min() >= 0 and rea2.max() <= 255

    def test_negative_y_values_are_exercised(self, ref_key):
        # the y stream must push the quantizer through its negative branch,
        # otherwise the mod-into-range logic goes untested
        _, ys = iterate_lshm(ref_key.lshm, 128)
        assert np.any(ys < 0)

    def test_dimension_checks(self, ref_key):
        with pytest.raises(DimensionError):
            build_extraction_arrays(ref_key, 6, 8)
        with pytest.raises(DimensionError):
            build_extraction_arrays(ref_key, 4096, 8192)


class TestExtractionKeys:
    def test_three_element_argsort(self):
        k1, k2, k3, k4 = build_extraction_keys(np.array([30, 10, 20]), np.array([30, 10, 20]))
        assert k1.tolist() == [1, 2, 0]
        assert k3.tolist() == [2, 0, 1]

    def test_all_ties_give_identity(self):
        k1, _, k3, _ = build_extraction_keys(np.full(16, 7), np.full(16, 7))
        assert k1.tolist() == list(range(16))
        assert k3.tolist() == list(range(16))

    def test_inverse_composition(self, ref_key):
        rea1, rea2 = build_extraction_arrays(ref_key, 8, 8)
        k1, k2, k3, k4 = build_extraction_keys(rea1, rea2)
        n = np.arange(k1.size)
        assert np.array_equal(k3[k1], n)
        assert np.array_equal(k4[k2], n)
        for perm in (k1, k2, k3, k4):
            assert np.array_equal(np.sort(perm), n)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            build_extraction_keys(np.arange(8), np.arange(9))

    def test_too_long_for_int32_keys(self):
        # a broadcast view: 2**31 + 1 entries in one byte of memory
        rea = np.broadcast_to(np.uint8(0), (2**31 + 1,))
        with pytest.raises(DimensionError, match="int32"):
            build_extraction_keys(rea, rea)

    def test_int32_keys_for_any_input_dtype(self):
        for rea in (np.array([3, 1, 2], np.uint8), np.array([30, 10, 20])):
            assert {k.dtype for k in build_extraction_keys(rea, rea)} == {np.dtype(np.int32)}


@st.composite
def extraction_arrays(draw):
    """uint8 vectors of a multiple of 8 entries up to 4096: random, constant,
    ascending or descending (the last a non-contiguous view)."""
    n = 8 * draw(st.integers(1, 512))
    kind = draw(st.sampled_from(["random", "constant", "ascending", "descending"]))
    if kind == "random":
        return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
            0, 256, n, dtype=np.uint8)
    if kind == "constant":
        return np.full(n, draw(st.integers(0, 255)), np.uint8)
    ramp = (np.arange(n) * draw(st.integers(1, 256)) // n).astype(np.uint8)
    return ramp if kind == "ascending" else ramp[::-1]


def compiled_context(lib, rea1, rea2, key=None, pixels=16, chunk=_native._CONTEXT_CHUNK):
    """The context routine's arrays for the extraction arrays, the CLT
    parameters and seeds of ``key`` (the reference key by default), and
    ``pixels`` operation codes."""
    key = key or reference_key()
    return _native._compiled_context(lib, rea1, rea2, key.clt, key.sbox_seeds, pixels,
                                     TRANSIENT, chunk)


@settings(max_examples=60, deadline=None)
@given(rea=extraction_arrays())
def test_context_routine_sorts_stably_with_inverse(compiled_library, rea):
    keys, _, _ = compiled_context(compiled_library, rea, rea[::-1])
    for key, inv, want in zip(keys[:2], keys[2:], (rea, rea[::-1])):
        want_key = np.argsort(want, kind="stable")
        want_inv = np.empty_like(want_key)
        want_inv[want_key] = np.arange(want_key.size)
        assert key.dtype == inv.dtype == np.int32
        assert np.array_equal(key, want_key) and np.array_equal(inv, want_inv)


def test_context_routine_declines_other_inputs(compiled_library):
    # cast to uint8, 300 and 256 would sort as 44 and 0
    wide = np.array([300, 1, 2, 256])
    narrow = wide.astype(np.uint8)
    assert compiled_context(compiled_library, wide, wide) is None
    assert compiled_context(compiled_library, narrow, narrow[:3]) is None
    square = np.zeros((2, 4), np.uint8)
    assert compiled_context(compiled_library, square, square) is None
    assert compiled_context(None, narrow, narrow) is None
    assert build_extraction_keys(wide, wide)[0].tolist() == [1, 2, 3, 0]


#: Context shapes on which the routine must give the definitions' arrays:
#: the check's two, one whose quadrants X-Cross across rows, the benchmark's
#: and the memo's largest sides, and the two extremes of a 2**14-pixel image.
CONTEXT_SHAPES = [(4, 4), (12, 20), (20, 20), (64, 64), (256, 256), (4, 4096), (4096, 4)]


def assert_same_arrays(got, want):
    """Two (keys, operation matrix, S-boxes) triples hold the same arrays."""
    (got_keys, got_ops, got_boxes), (want_keys, want_ops, want_boxes) = got, want
    for a, b in zip([*got_keys, got_ops, *got_boxes], [*want_keys, want_ops, *want_boxes],
                    strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("m, n", CONTEXT_SHAPES)
def test_context_routine_matches_definitions(compiled_library, m, n, seed):
    key = reference_key() if seed is None else random_key_material(np.random.default_rng(seed))
    rea1, rea2 = build_extraction_arrays(key, m, n)
    got = _context_arrays(key, rea1, rea2, m, n)
    with python_loops():
        want = _context_arrays(key, rea1, rea2, m, n)
    assert_same_arrays(got, want)


@pytest.mark.parametrize("chunk", [256, 257, 500, 1000, 1001, 4096])
def test_context_routine_is_independent_of_its_scratch(compiled_library, ref_key, chunk):
    # the op-matrix stream crosses chunk borders, and the transient ends
    # on one where the chunk divides 1000
    rea1, rea2 = build_extraction_arrays(ref_key, 64, 64)
    assert_same_arrays(compiled_context(compiled_library, rea1, rea2, pixels=4096, chunk=chunk),
                       compiled_context(compiled_library, rea1, rea2, pixels=4096))


class TestOperationMatrix:
    def test_hand_quantization(self):
        # 0.002 scales to exactly 2.0 -> code 2
        assert np.mod(round_half_away(np.array([0.002]) * 1e3), 3)[0] == 2
        # 0.5005 is the classic binary64 trap: the double nearest 0.5005
        # times 1000.0 is 500.49999999999994, *below* the half, so the
        # result is 500 -> code 2 (decimal hand arithmetic would say 501).
        assert (0.5005 * 1e3) == 500.49999999999994
        assert np.mod(round_half_away(np.array([0.5005]) * 1e3), 3)[0] == 2

    def test_reference_matrix_matches_exact_quantization(self, ref_key):
        om = build_operation_matrix(ref_key, 8, 8)
        zs = iterate_clt(ref_key.clt, 64)
        assert om.shape == (8, 8)
        assert om.ravel().tolist() == oracles.quantize_ops_exact([float(z) for z in zs])
        assert set(np.unique(om)) <= {0, 1, 2}

    def test_row_major_fill(self, ref_key):
        om8 = build_operation_matrix(ref_key, 8, 8)
        om48 = build_operation_matrix(ref_key, 4, 8)
        # same stream prefix, so the first 32 codes agree row-major
        assert np.array_equal(om8.ravel()[:32], om48.ravel())

    def test_all_codes_appear(self, ref_key):
        om = build_operation_matrix(ref_key, 32, 32)
        assert set(np.unique(om)) == {0, 1, 2}


class TestSboxes:
    def test_increasing_stream_gives_identity(self):
        assert sbox_from_stream(np.linspace(0.0, 1.0, 256)).tolist() == list(range(256))

    def test_decreasing_stream_gives_reversal(self):
        table = sbox_from_stream(np.linspace(1.0, 0.0, 256))
        assert table.tolist() == list(range(255, -1, -1))

    def test_stream_of_another_length_rejected(self):
        with pytest.raises(DimensionError, match="256"):
            sbox_from_stream(np.arange(255.0))

    def test_reference_boxes_bijective(self, ref_key):
        boxes = build_sboxes(ref_key)
        assert len(boxes) == 3
        for box in boxes:
            assert box.dtype == np.uint8
            assert np.all(np.bincount(box, minlength=256) == 1)
        # three distinct seeds should give three distinct tables
        assert not np.array_equal(boxes[0], boxes[1])
        assert not np.array_equal(boxes[1], boxes[2])

    def test_seed_collision_rejected(self):
        with pytest.raises(ParameterError):
            KeyMaterial(
                lshm=reference_key().lshm,
                clt=reference_key().clt,
                sbox_seeds=(0.3, 0.3, 0.7),
            )

    @pytest.mark.parametrize("change, match", [
        pytest.param({"sbox_seeds": (0.3, 0.7)}, "exactly three", id="two_seeds"),
        pytest.param({"sbox_seeds": (0.3, 1.0, 0.7)}, "seed2 must lie", id="seed_one"),
        pytest.param({"version": "2"}, "unsupported key version", id="version"),
    ])
    def test_bad_seeds_or_version_rejected(self, ref_key, change, match):
        with pytest.raises(ParameterError, match=match):
            dataclasses.replace(ref_key, **change)

    def test_list_seeds_equal_tuple_seeds(self, ref_key, rng):
        listed = dataclasses.replace(ref_key, sbox_seeds=list(ref_key.sbox_seeds))
        assert listed.sbox_seeds == ref_key.sbox_seeds
        assert listed == ref_key and hash(listed) == hash(ref_key)
        img = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        assert encrypt(img, listed).tobytes() == encrypt(img, ref_key).tobytes()


class TestDeterminism:
    def test_identical_key_identical_artifacts(self, ref_key):
        a = build_extraction_arrays(ref_key, 16, 16)
        b = build_extraction_arrays(ref_key, 16, 16)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert np.array_equal(
            build_operation_matrix(ref_key, 16, 16),
            build_operation_matrix(ref_key, 16, 16),
        )
        for x, y in zip(build_sboxes(ref_key), build_sboxes(ref_key)):
            assert np.array_equal(x, y)


class TestKeySensitivity:
    """How a 1e-10 nudge of each scalar propagates into the derived keys.

    The extraction keys are fed only by the LSHM; x-side scalars reach all
    four keys, while k2/y0 touch only the y stream (key2/key4) because x
    evolves autonomously.  CLT-side scalars leave the extraction keys
    untouched by construction and show up in the operation matrix and
    S-boxes instead.
    """

    @staticmethod
    def keys_for(key, m=32, n=32):
        return build_extraction_keys(*build_extraction_arrays(key, m, n))

    @pytest.mark.parametrize("field", ["lshm.x0", "lshm.k1", "lshm.alpha", "lshm.beta"])
    def test_x_side_scalars_scramble_all_keys(self, ref_key, field):
        base = self.keys_for(ref_key)
        moved = self.keys_for(nudged(ref_key, field))
        for b, m in zip(base, moved):
            assert np.mean(b != m) >= 0.90

    def test_y0_is_inert_after_the_transient(self, ref_key):
        # the y recurrence is a contraction driven by x (measured Lyapunov
        # exponent ~ -0.81 along the reference orbit), so 1000 transient
        # steps erase the y seed completely: not "slightly different",
        # bit-for-bit identical.
        base = self.keys_for(ref_key)
        for delta in (1e-10, 0.3):
            moved = self.keys_for(nudged(ref_key, "lshm.y0", delta))
            assert all(np.array_equal(b, m) for b, m in zip(base, moved))

    def test_k2_sensitivity_has_a_quantizer_floor(self, ref_key):
        # k2 scales y multiplicatively, so a 1e-10 nudge moves the scaled
        # stream by ~1e-5 of one quantization step — invisible to the
        # x10^5 rounding.  A 1e-3 nudge scrambles the y-side keys while
        # provably leaving the autonomous x side untouched.
        base = self.keys_for(ref_key)
        tiny = self.keys_for(nudged(ref_key, "lshm.k2", 1e-10))
        assert all(np.array_equal(b, m) for b, m in zip(base, tiny))
        big = self.keys_for(nudged(ref_key, "lshm.k2", 1e-3))
        assert np.array_equal(base[0], big[0])
        assert np.array_equal(base[2], big[2])
        assert np.mean(base[1] != big[1]) >= 0.90
        assert np.mean(base[3] != big[3]) >= 0.90

    def test_clt_scalars_move_matrix_not_keys(self, ref_key):
        base_keys = self.keys_for(ref_key)
        base_om = build_operation_matrix(ref_key, 32, 32)
        moved = nudged(ref_key, "clt.z0")
        assert all(
            np.array_equal(b, m) for b, m in zip(base_keys, self.keys_for(moved))
        )
        # two effectively independent {0,1,2} streams agree about 1/3 of
        # the time, so "differs" plateaus near 2/3 — well above half
        assert np.mean(base_om != build_operation_matrix(moved, 32, 32)) >= 0.50

    def test_sbox_seed_moves_its_table(self, ref_key):
        base = build_sboxes(ref_key)
        moved = build_sboxes(nudged(ref_key, "sbox.seed2"))
        assert np.array_equal(base[0], moved[0])
        assert np.mean(base[1] != moved[1]) >= 0.90
        assert np.array_equal(base[2], moved[2])


class TestKeyFile:
    def test_round_trip_reference(self, ref_key):
        assert parse_key(serialize_key(ref_key)) == ref_key

    def test_reference_key_file_is_the_reference_key(self, ref_key):
        # the CLI's copy of the key that tests and scripts take from code
        text = (REPO_ROOT / "assets" / "reference.key").read_bytes()
        assert text == serialize_key(ref_key).encode("ascii")

    def test_round_trip_awkward_floats(self):
        key = KeyMaterial(
            lshm=LshmParams(x0=0.1 + 0.2 - 0.3 + 0.05, y0=1 / 3, k1=3.6 + 1e-13,
                            k2=3.5, alpha=2.0000000001, beta=1.9999999999),
            clt=CltParams(lam=3.9999999, alpha_c=2.0000001, z0=1e-12),
            sbox_seeds=(0.1, 0.2, 0.30000000000000004),
        )
        again = parse_key(serialize_key(key))
        assert again == key  # float equality == bit equality after repr round-trip

    def test_field_values_round_trip(self, ref_key):
        values = key_values(ref_key)
        assert tuple(values) == KEY_FIELDS[:-1]
        assert values["clt.lambda"] == ref_key.clt.lam
        assert key_from_values(values) == ref_key

    def test_field_list_is_fixed(self, ref_key):
        text = serialize_key(ref_key)
        names = [line.split("=")[0].strip() for line in text.strip().splitlines()]
        assert names == list(KEY_FIELDS)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda t: t.replace("lshm.x0", "lshm.x9"),           # unknown field
            lambda t: t + "lshm.x0 = 0.25\n",                     # duplicate
            lambda t: t.replace("lshm.k1 = ", "lshm.k1  "),       # missing '='
            lambda t: t.replace("version = 1", "version = 2"),    # bad version
            lambda t: "\n".join(t.splitlines()[:-1]) + "\n",      # missing version
            lambda t: t.replace("3.9", "three.nine"),             # not a number
        ],
    )
    def test_malformed_files_rejected(self, ref_key, mutate):
        with pytest.raises(KeyFormatError):
            parse_key(mutate(serialize_key(ref_key)))

    @pytest.mark.parametrize("field, value", [
        ("lshm.x0", "0.3_0"),             # float() reads 0.3
        ("lshm.k1", "3_9"),               # float() reads 39.0, out of the domain
        ("sbox.seed1", "1e-1_0"),         # float() reads 1e-10
        ("lshm.x0", "\u0660.\u0663"),     # Arabic-Indic digits: float() reads 0.3
        ("clt.z0", "0.\uff13\uff17"),     # fullwidth digits: float() reads 0.37
    ])
    def test_underscored_or_non_ascii_values_rejected(self, ref_key, field, value):
        line = f"{field} = {key_values(ref_key)[field]!r}"
        text = serialize_key(ref_key).replace(line, f"{field} = {value}")
        assert f"{field} = {value}" in text
        with pytest.raises(KeyFormatError, match="not a decimal literal"):
            parse_key(text)

    @pytest.mark.parametrize("value", ["nan", "NaN", "-nan", "inf", "+inf", "-Infinity",
                                       "1e", ".", "1.2.3", "0x1p-2", "1e+-5"])
    def test_non_decimal_values_rejected(self, ref_key, value):
        # float() reads the first six: they are not numbers a key file writes
        text = serialize_key(ref_key).replace("lshm.y0 = 0.5", f"lshm.y0 = {value}")
        assert f"lshm.y0 = {value}" in text
        with pytest.raises(KeyFormatError, match="not a decimal literal"):
            parse_key(text)

    @pytest.mark.parametrize("value, read", [
        ("1e-05", 1e-05), ("1e+16", 1e16), ("3.9999999999999996", 3.9999999999999996),
        (".5", 0.5), ("5.", 5.0), ("+0.5E0", 0.5), ("00.5", 0.5),
    ])
    def test_decimal_literals_read(self, ref_key, value, read):
        # every repr serialize_key writes, and the other decimal forms
        text = serialize_key(ref_key).replace("lshm.y0 = 0.5", f"lshm.y0 = {value}")
        assert parse_key(text).lshm.y0 == read

    def test_overflowing_literal_is_parameter_error(self, ref_key):
        # a decimal literal that float() reads as inf is outside the domain
        text = serialize_key(ref_key).replace("lshm.y0 = 0.5", "lshm.y0 = 1e400")
        with pytest.raises(ParameterError, match="finite"):
            parse_key(text)

    def test_out_of_domain_value_is_parameter_error(self, ref_key):
        text = serialize_key(ref_key).replace("lshm.x0 = 0.3", "lshm.x0 = 1.5")
        with pytest.raises(ParameterError):
            parse_key(text)

    def test_blank_lines_tolerated(self, ref_key):
        text = serialize_key(ref_key).replace("\n", "\n\n")
        assert parse_key(text) == ref_key


class TestRandomKeys:
    def test_ranges_cover_all_generated_fields(self):
        assert set(PARAM_RANGES) == set(KEY_FIELDS) - {"version"}
        for lo, hi in PARAM_RANGES.values():
            assert lo < hi

    def test_draws_are_valid_and_in_range(self, rng):
        for _ in range(20):
            key = random_key_material(rng)
            assert PARAM_RANGES["lshm.k1"][0] <= key.lshm.k1 <= PARAM_RANGES["lshm.k1"][1]
            assert PARAM_RANGES["clt.lambda"][0] <= key.clt.lam <= PARAM_RANGES["clt.lambda"][1]
            # serialization round-trip holds for generated keys too
            assert parse_key(serialize_key(key)) == key

    def test_same_seed_same_key(self):
        a = random_key_material(np.random.default_rng(7))
        b = random_key_material(np.random.default_rng(7))
        assert a == b

    def test_different_seeds_different_keys(self):
        a = random_key_material(np.random.default_rng(1))
        b = random_key_material(np.random.default_rng(2))
        assert a != b

    def test_draw_order_is_pinned(self):
        # keygen --random and perfbench's pinned keys rest on this order:
        # the seeds (redrawn until distinct), the LSHM fields, then CLT
        class Scripted:
            """Draw i lands at ``fractions[i]`` of its range."""

            def __init__(self, fractions):
                self.fractions = iter(fractions)

            def uniform(self, lo, hi):
                return lo + (hi - lo) * next(self.fractions)

        # seed1 == seed2 on the first try forces a redraw of all three
        redrawn = random_key_material(Scripted([0.5, 0.5, 0.25, *(i / 16 for i in range(1, 13))]))
        assert redrawn.sbox_seeds == (0.02 + 0.96 / 16, 0.02 + 0.96 * 2 / 16, 0.02 + 0.96 * 3 / 16)
        text = "".join(serialize_key(random_key_material(np.random.default_rng(s)))
                       for s in range(100)) + serialize_key(redrawn)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
            "342296a1ed87f1fdce6ac23252f6114b22dc0cc3cfaf35456a9eaf35a7200f3b")


class TestBenchSizesScript:
    """``scripts/bench_sizes.py`` calls ``key_schedule._quantized`` and
    ``key_schedule._context_arrays`` and replaces ``_native.trusted``, so a
    rename of any of them would break it silently."""

    SCRIPT = REPO_ROOT / "scripts" / "bench_sizes.py"

    @pytest.mark.parametrize("loops", ["python", "compiled"])
    def test_child_reports_every_stage(self, request, loops):
        if loops == "compiled":
            request.getfixturevalue("compiled_library")
        spec = importlib.util.spec_from_file_location("bench_sizes", self.SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-W", "error", str(self.SCRIPT), "--child", "64",
                              loops], env=env, capture_output=True, text=True, timeout=120,
                             check=True).stdout
        (line,) = out.splitlines()
        report = json.loads(line)
        assert sorted(report) == sorted([*script.STAGES, "ru_maxrss_mb"])
        assert all(value > 0 for value in report.values()), report
