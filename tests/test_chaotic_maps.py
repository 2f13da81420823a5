import contextlib
import ctypes
import dataclasses
import functools
import hashlib
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import SUM_BLOCKS, hashed_pixels, python_loops, sum_block, x86_64_only
from xcross import (
    _native,
    analysis,
    ibt,
    image_io,
    key_schedule,
    permutation,
    pipeline,
    substitution,
)
from xcross.chaotic_maps import (
    TRANSIENT,
    CltParams,
    LshmParams,
    _clt_loop,
    clt_step,
    iterate_clt,
    iterate_lshm,
    lshm_step,
)
from xcross.errors import EmptyRequestError, OpCodeError, ParameterError
from xcross.ibt import _gather_bits
from xcross.key_schedule import PARAM_RANGES, reference_key
from xcross.pipeline import _build_context
from xcross.sample_images import random_image


@functools.cache
def cpu_flags() -> frozenset[str]:
    """The CPU flags of an x86-64 Linux host; none elsewhere."""
    try:
        flags = Path("/proc/cpuinfo").read_text()
    except OSError:
        return frozenset()
    return frozenset(flags.split()) if platform.machine() == "x86_64" else frozenset()


def cpu_reports_avx2() -> bool:
    """Whether this is an x86-64 Linux host whose CPU flags list AVX2, where
    the compiled gather takes its AVX2 body for whole 4-byte blocks."""
    return "avx2" in cpu_flags()


def cpu_reports_vbmi() -> bool:
    """Whether this is an x86-64 Linux host whose CPU flags list AVX-512
    VBMI, where the compiled substitution takes its VBMI body for each whole
    run of 64 pixels."""
    return "avx512vbmi" in cpu_flags()


def cpu_reports_avx512f() -> bool:
    """Whether this is an x86-64 Linux host whose CPU flags list AVX-512F,
    where the compiled correlation sums take the AVX-512 leaf, not the AVX2
    one."""
    return "avx512f" in cpu_flags()


def substitution_cases(rng):
    """Pixels and codes, one row each, of every length from 0 to 200, so
    that runs of 64 pixels and the tails after them are looked up; then,
    for each length, the codes with a 3 at the first, a middle and the last
    pixel."""
    good, bad = [], []
    for n in range(201):
        img = rng.integers(0, 256, (1, n), dtype=np.uint8)
        ops = rng.integers(0, 3, (1, n), dtype=np.uint8)
        good.append((img, ops))
        for at in sorted({0, n // 2, n - 1}) if n else ():
            worse = ops.copy()
            worse[0, at] = 3
            bad.append((img, worse))
    return good, bad


def assert_substitution_matches_gather(lib, rng):
    """The compiled lookup gives the NumPy gather's bytes for every case of
    :func:`substitution_cases` and declines every bad code."""
    table = rng.integers(0, 256, (3, 256), dtype=np.uint8)
    good, bad = substitution_cases(rng)
    for img, ops in good:
        got = _native._compiled_substitute(lib, table, img, ops)
        assert got.tobytes() == substitution._gather(table, img, ops).tobytes(), img.size
    for img, ops in bad:
        assert _native._compiled_substitute(lib, table, img, ops) is None, (img.size, ops)


#: The line of _maps.c that compiles the AVX2 and AVX-512 bodies on x86-64.
AVX2_DEFINE = "#define XCROSS_AVX2 1\n"

#: The test that sends the correlation leaves to the AVX-512 body, and the
#: edit that turns it off, so that CPUs reporting AVX-512F run the AVX2 leaf.
AVX512_LEAF_OFF = ('__builtin_cpu_supports("avx512f")', "0")

#: Why each routine group is refused when its check finds a differing byte.
MISMATCH_CAUSES = {
    "cipher": "differs from lshm_step/clt_step on the reference key within 300 steps, "
              "or from the NumPy quantizer, key sorts, operation codes, S-boxes, suite tables, "
              "bit gather, X-Cross or substitution",
    "statistics": "differs from the NumPy image statistics",
}

REF_LSHM = reference_key().lshm
REF_CLT = reference_key().clt

#: The reference key with LSHM parameters whose streams overflow to NaN:
#: x from its first step and y from its second, whatever the libm.
OVERFLOW_KEY = dataclasses.replace(reference_key(), lshm=LshmParams(
    k1=-1e308, k2=1e308, alpha=1e308, beta=2.5, x0=0.0, y0=-1e300))

#: SHA-256 of OVERFLOW_KEY's 16x16 context arrays, in `context_arrays` order.
OVERFLOW_CONTEXT_DIGEST = "2445fd21d25a6977d844ed3cf13d51e387b5a3ed581717cd19d9230905565f0f"

#: Attracting period-2 window of the x-map (see
#: test_periodic_window_erases_seed_sensitivity).
WINDOW_LSHM = LshmParams(
    k1=3.892784933455308,
    k2=3.229084835497175,
    alpha=2.5992101641531096,
    beta=1.7233644621515993,
    x0=0.41692255167072845,
    y0=0.63195361628962,
)


class TestParamValidation:
    def test_x0_outside_unit_interval(self):
        with pytest.raises(ParameterError):
            LshmParams(k1=3.9, k2=3.6, alpha=2.1, beta=2.0, x0=1.0, y0=0.5)
        with pytest.raises(ParameterError):
            LshmParams(k1=3.9, k2=3.6, alpha=2.1, beta=2.0, x0=-0.1, y0=0.5)

    def test_beta_below_one(self):
        with pytest.raises(ParameterError):
            LshmParams(k1=3.9, k2=3.6, alpha=2.1, beta=0.5, x0=0.3, y0=0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            LshmParams(k1=math.nan, k2=3.6, alpha=2.1, beta=2.0, x0=0.3, y0=0.5)
        with pytest.raises(ParameterError):
            LshmParams(k1=math.inf, k2=3.6, alpha=2.1, beta=2.0, x0=0.3, y0=0.5)

    def test_non_real_rejected(self):
        with pytest.raises(ParameterError, match="must be a real number"):
            LshmParams(k1="3.9", k2=3.6, alpha=2.1, beta=2.0, x0=0.3, y0=0.5)

    def test_iterators_refuse_the_other_maps_params(self):
        with pytest.raises(ParameterError, match="LshmParams"):
            iterate_lshm(REF_CLT, 8)
        with pytest.raises(ParameterError, match="CltParams"):
            iterate_clt(REF_LSHM, 8)

    @pytest.mark.parametrize(
        "lam,alpha_c,z0",
        [
            (3.5, 3.1, 0.37),   # lam at the open boundary
            (4.0, 3.1, 0.37),
            (3.77, 2.0, 0.37),  # alpha_c at the open boundary
            (3.77, 4.0, 0.37),
            (3.77, 3.1, 0.0),
            (3.77, 3.1, 1.0),
        ],
    )
    def test_clt_open_ranges(self, lam, alpha_c, z0):
        with pytest.raises(ParameterError):
            CltParams(lam=lam, alpha_c=alpha_c, z0=z0)

    def test_zero_iterations(self):
        with pytest.raises(EmptyRequestError):
            iterate_lshm(REF_LSHM, 0)
        with pytest.raises(EmptyRequestError):
            iterate_clt(REF_CLT, 0)

    def test_negative_iterations(self):
        with pytest.raises(ParameterError):
            iterate_lshm(REF_LSHM, -3)
        with pytest.raises(ParameterError):
            iterate_clt(REF_CLT, True)


class TestKnownValues:
    def test_alpha_zero_collapses_to_k1_mod_1(self):
        # with alpha = 0 the x recurrence loses its x-dependence entirely
        # and every emitted value is k1 mod 1.  In binary64 that constant is
        # 3.9 % 1.0 == 0.8999999999999999, one ulp shy of decimal 0.9.
        for x0 in (0.0, 0.123, 0.77):
            p = LshmParams(k1=3.9, k2=3.6, alpha=0.0, beta=2.0, x0=x0, y0=0.5)
            xs, _ = iterate_lshm(p, 50)
            assert np.all(xs == 3.9 % 1.0)
            assert abs(xs[0] - 0.9) < 1e-15

    def test_cosine_zero_seed_kills_first_y(self):
        # y0 = pi/2 makes cos(y0) vanish, so the first y update is 0 up to
        # the rounding of pi/2 itself.
        p = LshmParams(k1=3.9, k2=3.6, alpha=2.1, beta=2.0, x0=0.3, y0=math.pi / 2)
        _, y1 = lshm_step(p.x0, p.y0, p)
        assert abs(y1) <= 1e-15

    def test_clt_zero_fixed_point(self):
        assert clt_step(0.0, REF_CLT) == 0.0

    def test_lshm_tiny_negative_x_wraps_to_zero(self):
        # cos(0) and pow(1, 1) are exact, so each step forms k1 * (1 + alpha)
        # = -2**-55, whose % 1.0 is 1.0: the wrap fix must give +0.0, and x
        # then stays at 0 on both paths.  y depends on libm's cos(3.6).
        p = LshmParams(k1=0.125, k2=3.6, alpha=-1 - 2**-52, beta=1.0, x0=0.0, y0=0.0)
        assert -2**-55 % 1.0 == 1.0
        for xs, _ in both_loops(iterate_lshm, p, 8):
            assert same_bits(xs, [0.0] * 8)

    def test_clt_tiny_negative_z_wraps_to_zero(self):
        # a normal number, so that no flush-to-zero mode changes the case:
        # the step forms -5.32e-18, whose % 1.0 is 1.0, and the wrap fix
        # must give +0.0 in the Python loop and in the C loop
        zs = np.empty(4)
        _clt_loop(_native.trusted("cipher"), zs, -1e-18, REF_CLT)
        assert same_bits([clt_step(-1e-18, REF_CLT), *zs], [0.0] * 5)

    def test_clt_half_branch_hand_value(self):
        # z = 0.5 on the upper branch with lam=3.6, alpha=2:
        # 3.6*0.5*0.5 + 2*0.5/2 = 1.4 -> 0.4 after the mod.
        # (alpha=2 sits on the open boundary of the validated range, so the
        # raw step is exercised with a plain namespace carrying the fields.)
        p = SimpleNamespace(lam=3.6, alpha_c=2.0)
        assert clt_step(0.5, p) == pytest.approx(0.4, abs=1e-12)

    def test_clt_lower_branch_hand_value(self):
        # z = 0.25: 3.6*0.25*0.75 + 2*0.25/2 = 0.675 + 0.25 = 0.925
        p = SimpleNamespace(lam=3.6, alpha_c=2.0)
        assert clt_step(0.25, p) == pytest.approx(0.925, abs=1e-12)


class TestOracleAgreement:
    """Per-transition validation against the 50-digit reference steps.

    Every emitted iteration (including the 10th post-transient one) is the
    target of one validated transition.  A correct binary64 step sits a few
    ulp from the high-precision value; the 1e-9 gate leaves six orders of
    headroom while any formula error misses by O(1).
    """

    TOL = 1e-9

    def test_lshm_stream_matches_reference_steps(self):
        p = REF_LSHM
        xs, ys = iterate_lshm(p, 10)
        # reconstruct the emission-start state to cover iteration 1
        x, y = p.x0, p.y0
        for _ in range(1000):
            x, y = lshm_step(x, y, p)
        states = [(x, y)] + list(zip(xs, ys))
        worst = 0.0
        for (x_prev, y_prev), (x_cur, y_cur) in zip(states, states[1:]):
            ox, oy = oracles.lshm_next(x_prev, y_prev, p.k1, p.k2, p.alpha, p.beta)
            worst = max(worst, abs(x_cur - ox), abs(y_cur - oy))
        assert worst <= self.TOL, f"worst per-step deviation {worst:.3e}"

    def test_clt_stream_matches_reference_steps(self):
        p = REF_CLT
        zs = iterate_clt(p, 10)
        z = p.z0
        for _ in range(1000):
            z = clt_step(z, p)
        states = [z] + list(zs)
        worst = 0.0
        for z_prev, z_cur in zip(states, states[1:]):
            worst = max(worst, abs(z_cur - oracles.clt_next(z_prev, p.lam, p.alpha_c)))
        assert worst <= self.TOL, f"worst per-step deviation {worst:.3e}"

    def test_clt_ten_step_free_run(self):
        # the CLT amplifies per-step rounding mildly enough that a ten-step
        # 50-digit free run from the emission-start state still pins the
        # tenth value to ~1e-12; the LSHM has no such luxury (its per-step
        # error growth is ~e^2.55, which turns one ulp into ~1e-5 by step 10).
        p = REF_CLT
        zs = iterate_clt(p, 10)
        z = p.z0
        for _ in range(1000):
            z = clt_step(z, p)
        ref = oracles.clt_free_run(z, p.lam, p.alpha_c, 10)
        assert abs(zs[9] - ref[9]) <= self.TOL

    def test_oracle_rejects_single_precision(self):
        # sanity check that the validator has teeth: a float32 step lands
        # far outside the gate.
        p = REF_LSHM
        xs, ys = iterate_lshm(p, 2)
        bad_x = np.float32(xs[0])
        c = np.float32(np.cos(np.float32(np.pi) * bad_x))
        bad_next = float(np.float32(p.k1) * (np.float32(1) + np.float32(p.alpha) * c * c) % np.float32(1))
        ox, _ = oracles.lshm_next(float(xs[0]), float(ys[0]), p.k1, p.k2, p.alpha, p.beta)
        assert abs(bad_next - ox) > self.TOL


class TestStreamProperties:
    def test_determinism(self):
        a1, b1 = iterate_lshm(REF_LSHM, 200)
        a2, b2 = iterate_lshm(REF_LSHM, 200)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
        z1 = iterate_clt(REF_CLT, 200)
        z2 = iterate_clt(REF_CLT, 200)
        assert np.array_equal(z1, z2)

    def test_unit_interval_range(self):
        xs, _ = iterate_lshm(REF_LSHM, 5000)
        assert np.all((xs >= 0.0) & (xs < 1.0))
        zs = iterate_clt(REF_CLT, 5000)
        assert np.all((zs >= 0.0) & (zs < 1.0))

    def test_seed_sensitivity(self):
        xs, _ = iterate_lshm(REF_LSHM, 1000)
        nudged = LshmParams(k1=3.9, k2=3.6, alpha=2.1, beta=2.0,
                            x0=0.3 + 1e-12, y0=0.5)
        xs2, _ = iterate_lshm(nudged, 1000)
        assert np.mean(xs != xs2) >= 0.90

    def test_clt_exercises_both_branches(self):
        zs = iterate_clt(REF_CLT, 10_000)
        assert np.any(zs < 0.5) and np.any(zs >= 0.5)

    def test_periodic_window_erases_seed_sensitivity(self):
        # The x-recurrence is not chaotic everywhere in the operating
        # range: this parameter point (found by sweeping random keys, hit
        # rate ~0.7%) has an attracting period-2 cycle, so the transient
        # pulls any nearby seed onto the bit-identical orbit and x0
        # sensitivity vanishes.  Pinned here as a known hazard of the map,
        # not a defect of the implementation.
        window = WINDOW_LSHM
        xs, ys = iterate_lshm(window, 32)
        nudged = LshmParams(
            k1=window.k1, k2=window.k2, alpha=window.alpha,
            beta=window.beta, x0=window.x0 + 1e-10, y0=window.y0,
        )
        xs2, ys2 = iterate_lshm(nudged, 32)
        assert np.array_equal(xs, xs2) and np.array_equal(ys, ys2)
        assert np.array_equal(xs[:2], xs[2:4])  # period-2 orbit

    @settings(max_examples=25, deadline=None)
    @given(
        lam=st.floats(3.51, 3.99),
        alpha_c=st.floats(2.05, 3.95),
        z0=st.floats(0.01, 0.99),
    )
    def test_clt_range_property(self, lam, alpha_c, z0):
        zs = iterate_clt(CltParams(lam=lam, alpha_c=alpha_c, z0=z0), 64)
        assert np.all((zs >= 0.0) & (zs < 1.0))


def operating(name: str) -> st.SearchStrategy[float]:
    lo, hi = PARAM_RANGES[name]
    return st.floats(lo, hi)


def lshm_states(p, n):
    """Every LSHM state from the seed on, transient included, by :func:`lshm_step`."""
    states = [(p.x0, p.y0)]
    for _ in range(TRANSIENT + n):
        states.append(lshm_step(*states[-1], p))
    return states


def clt_states(p, n):
    """Every CLT state from the seed on, transient included, by :func:`clt_step`."""
    states = [p.z0]
    for _ in range(TRANSIENT + n):
        states.append(clt_step(states[-1], p))
    return states


def same_bits(got, want) -> bool:
    """Bit equality of float64 sequences: signed zeros and NaN payloads count."""
    return np.array_equal(np.asarray(got, np.float64).view(np.uint64),
                          np.asarray(want, np.float64).view(np.uint64))


def both_loops(iterate, params, n):
    """``iterate(params, n)`` by the compiled loops (the Python loops when
    they did not load), then by the Python loops."""
    compiled = iterate(params, n)
    with python_loops():
        return compiled, iterate(params, n)


class TestIteratorPathsMatchSteps:
    """Both iterator paths, the compiled loops and the Python loops, must
    agree with the step functions bit for bit.

    Every example runs ``iterate_lshm``/``iterate_clt`` by the compiled
    loops (the Python loops when the library did not load) and then by the
    Python loops; one test covers both because Hypothesis refuses to run a
    test function under two classes or with a function-scoped fixture.  The
    reference is a naive loop over :func:`lshm_step` / :func:`clt_step`
    that keeps every state, transient included, so the tests can also
    check that both branches of each map were taken.  The step functions
    run the same Python loop one turn at a time, so on the Python path this
    checks the transient and buffer handling; the 50-digit oracle tests pin
    the arithmetic itself.
    """

    LENGTHS = st.sampled_from([1, 7, 4096])

    @settings(max_examples=20, deadline=None)
    @given(
        k1=operating("lshm.k1"),
        k2=operating("lshm.k2"),
        alpha=operating("lshm.alpha"),
        beta=operating("lshm.beta").filter(lambda b: not b.is_integer()),
        x0=operating("lshm.x0"),
        y0=operating("lshm.y0"),
        n=LENGTHS,
    )
    @example(**vars(WINDOW_LSHM), n=4096)
    @example(**vars(REF_LSHM), n=7)
    # operating-range keys on which the x-map never crosses 0.5: x sits at
    # the fixed point 0, or alternates 0.9999999999999996 / 0.5000000000000009
    @example(k1=4.0, k2=3.5, alpha=2.0, beta=1.5, x0=0.5, y0=0.5, n=4096)
    @example(k1=3.9999999999999996, k2=3.5, alpha=2.125, beta=1.5, x0=0.5, y0=0.5, n=4096)
    def test_lshm(self, k1, k2, alpha, beta, x0, y0, n):
        p = LshmParams(k1=k1, k2=k2, alpha=alpha, beta=beta, x0=x0, y0=y0)
        states = lshm_states(p, n)[TRANSIENT + 1:]
        for xs, ys in both_loops(iterate_lshm, p, n):
            assert same_bits(xs, [x for x, _ in states])
            assert same_bits(ys, [y for _, y in states])

    @pytest.mark.parametrize("p, n", [(WINDOW_LSHM, 4096), (REF_LSHM, 7)])
    def test_lshm_examples_take_both_branches(self, p, n):
        # cos(pi*x) < 0 exactly when x > 0.5: the sign flip was exercised
        xs = [x for x, _ in lshm_states(p, n)[:-1]]
        assert any(x > 0.5 for x in xs)
        assert any(x < 0.5 for x in xs)

    @settings(max_examples=20, deadline=None)
    @given(
        lam=operating("clt.lambda"),
        alpha_c=operating("clt.alpha"),
        z0=operating("clt.z0"),
        n=LENGTHS,
    )
    @example(lam=REF_CLT.lam, alpha_c=REF_CLT.alpha_c, z0=REF_CLT.z0, n=4096)
    def test_clt(self, lam, alpha_c, z0, n):
        p = CltParams(lam=lam, alpha_c=alpha_c, z0=z0)
        states = clt_states(p, n)
        assert any(z < 0.5 for z in states[:-1])
        assert any(z >= 0.5 for z in states[:-1])
        for zs in both_loops(iterate_clt, p, n):
            assert same_bits(zs, states[TRANSIENT + 1:])


def context_arrays(ctx):
    return [*ctx.keys, ctx.opmatrix, *ctx.suite.sboxes]


def layer_bytes(group):
    """What the callers of one routine group make of fixed inputs, as bytes:
    the reference key's 20x20 context and a round trip of hashed pixels at
    that size (its quadrants' 5 column pairs make X-Cross straddle rows),
    or a report of hashed pixels."""
    if group == "statistics":
        return analysis.report_csv(analysis.analyze(hashed_pixels(91, 92)))
    ctx = _build_context(reference_key(), 20, 20)
    cipher = pipeline.encrypt_with_context(hashed_pixels(20, 20), ctx)
    return [*(a.tobytes() for a in context_arrays(ctx)), cipher.tobytes(),
            pipeline.decrypt_with_context(cipher, ctx).tobytes()]


class TestCompiledLoops:
    """Loading the compiled library, checking each routine group, and
    falling back to the definitions."""

    @pytest.fixture()
    def source_copy(self, tmp_path, monkeypatch):
        """Build from a copy of the C source, so the cache is under tmp_path."""
        copy = tmp_path / "_maps.c"
        shutil.copyfile(_native._KERNEL_SOURCE, copy)
        monkeypatch.setattr(_native, "_KERNEL_SOURCE", copy)
        return copy

    @staticmethod
    def edit_source(source_copy, edits):
        """Replace, in the source copy, each ``old`` of the (old, new) pairs
        ``edits``, which must occur there exactly once."""
        text = source_copy.read_text()
        for old, new in edits:
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        source_copy.write_text(text)

    @staticmethod
    def fresh_checks(monkeypatch):
        # an uncached loader and checks, so the patched conditions decide
        monkeypatch.setattr(_native, "_library", functools.cache(_native._library.__wrapped__))
        monkeypatch.setattr(_native, "trusted", functools.cache(_native.trusted.__wrapped__))
        monkeypatch.setattr(_native, "failures", {})

    def assert_python_loops_in_use(self, monkeypatch, cause):
        """Every group is refused for ``cause``, and the loops run in Python."""
        self.fresh_checks(monkeypatch)
        for group in _native._CHECKS:
            assert _native.trusted(group) is None
            assert cause in _native.failures[group]
        states = lshm_states(REF_LSHM, 64)[TRANSIENT + 1:]
        xs, ys = iterate_lshm(REF_LSHM, 64)
        assert same_bits(xs, [x for x, _ in states]) and same_bits(ys, [y for _, y in states])
        assert same_bits(iterate_clt(REF_CLT, 64), clt_states(REF_CLT, 64)[TRANSIENT + 1:])

    def assert_only_group_refused(self, monkeypatch, group):
        """``group`` is refused for a mismatch, the other groups stay
        compiled, and the callers of ``group`` give their definitions' bytes."""
        with python_loops():
            want = layer_bytes(group)
        self.fresh_checks(monkeypatch)
        assert _native.trusted(group) is None
        assert MISMATCH_CAUSES[group] in _native.failures[group]
        for other in _native._CHECKS.keys() - {group}:
            assert _native.trusted(other) is not None, _native.failures
        assert layer_bytes(group) == want

    @pytest.mark.parametrize("got", [
        pytest.param(None, id="declined"),
        # the same bytes as another dtype
        pytest.param(np.zeros(2, np.int64), id="dtype"),
        pytest.param(np.array([0.0, -0.0]), id="signed_zero"),
        pytest.param((0.0, 1.0), id="tuple"),
    ])
    def test_any_difference_is_a_mismatch(self, got):
        zeros = np.zeros(2)
        assert _native._same_bytes([(zeros, zeros.copy()), ((0.0, 0.0), zeros)])
        assert not _native._same_bytes([(zeros, zeros.copy()), (got, zeros)])

    @pytest.mark.parametrize("key, side", [
        pytest.param(reference_key(), 256, id="reference"),
        # streams that overflow to NaN: the two paths may differ in NaN
        # sign bits, but every NaN quantizes to the same byte
        pytest.param(
            OVERFLOW_KEY, 16, id="overflow",
            marks=pytest.mark.filterwarnings("ignore:invalid value encountered in cast")),
    ])
    def test_context_bytes_match_python_loops(self, compiled_library, key, side):
        compiled = context_arrays(_build_context(key, side, side))
        with python_loops():
            python = context_arrays(_build_context(key, side, side))
        for got, want in zip(compiled, python):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @x86_64_only
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    def test_overflow_key_context_is_pinned_on_both_paths(self):
        # every NaN quantizes to byte 0, so the keys are the identity, and
        # the CLT-fed op matrix and S-boxes are the reference key's
        want = _build_context(reference_key(), 16, 16)
        identity = np.arange(8 * 8 * 8, dtype=np.int32)
        for path in (contextlib.nullcontext(), python_loops()):
            with path:
                ctx = _build_context(OVERFLOW_KEY, 16, 16)
                rea1, rea2 = key_schedule.build_extraction_arrays(OVERFLOW_KEY, 16, 16)
            assert not rea1.any() and not rea2.any()
            for key in ctx.keys:
                assert key.tobytes() == identity.tobytes()
            assert ctx.opmatrix.tobytes() == want.opmatrix.tobytes()
            for got, box in zip(ctx.suite.sboxes, want.suite.sboxes):
                assert got.tobytes() == box.tobytes()
            digest = hashlib.sha256(b"".join(a.tobytes() for a in context_arrays(ctx)))
            assert digest.hexdigest() == OVERFLOW_CONTEXT_DIGEST

    def test_context_keys_are_read_only_int32_on_both_paths(self):
        compiled = _build_context(reference_key(), 16, 16)
        with python_loops():
            python = _build_context(reference_key(), 16, 16)
        for key in (*compiled.keys, *python.keys):
            assert key.dtype == np.int32 and not key.flags.writeable

    def test_compiles_once_into_the_cache(self, compiled_library, source_copy, monkeypatch):
        cache = source_copy.parent / "__pycache__"
        cache.mkdir()
        prefix = f"_maps.{sys.implementation.cache_tag}-{platform.machine()}-"
        # a library of an older source, a killed compile's leftover, a
        # compile still running, and another interpreter's library
        stale = cache / f"{prefix}00000000.so"
        killed, running = cache / "_maps.killed.tmp", cache / "_maps.running.tmp"
        other = cache / "_maps.other-tag-00000000.so"
        for path in stale, killed, running, other:
            path.write_bytes(b"")
        old = time.time() - 2 * _native._COMPILE_TIMEOUT_S
        os.utime(killed, (old, old))
        assert isinstance(_native._library.__wrapped__(), ctypes.CDLL)
        (built,) = set(cache.iterdir()) - {running, other}
        assert built.name.startswith(prefix) and built.suffix == ".so"
        # a second load finds the cached library and needs no compiler
        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
        assert isinstance(_native._library.__wrapped__(), ctypes.CDLL)

    def test_concurrent_first_uses_share_one_library(self, compiled_library, source_copy):
        # processes race to compile the same library (four: more than a
        # small CI runner's cores, few enough for a large machine's memory)
        code = ("import sys; from pathlib import Path; from xcross import _native as c; "
                "c._KERNEL_SOURCE = Path(sys.argv[1]); print(all(map(c.trusted, c._CHECKS)))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        procs = [subprocess.Popen([sys.executable, "-c", code, str(source_copy)], env=env,
                                  stdout=subprocess.PIPE, text=True)
                 for _ in range(4)]
        outs = [proc.communicate(timeout=120)[0] for proc in procs]
        assert outs == ["True\n"] * len(procs)
        assert [p.suffix for p in (source_copy.parent / "__pycache__").iterdir()] == [".so"]

    def test_missing_compiler_keeps_python_loops(self, source_copy, monkeypatch):
        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
        self.assert_python_loops_in_use(monkeypatch, "no C compiler")
        assert not (source_copy.parent / "__pycache__").exists()

    def test_compile_error_keeps_python_loops(self, compiled_library, source_copy,
                                              monkeypatch):
        source_copy.write_text("not C\n")
        self.assert_python_loops_in_use(monkeypatch, "compiling _maps.c failed")
        assert [p.suffix for p in (source_copy.parent / "__pycache__").iterdir()] == []

    def test_unloadable_library_keeps_python_loops(self, compiled_library, source_copy,
                                                   monkeypatch):
        # built but not yet loaded: a loaded library must not be rewritten
        _native._built_kernel().write_bytes(b"not a shared library")
        self.assert_python_loops_in_use(monkeypatch, "OSError")

    def test_missing_routine_keeps_python_loops(self, compiled_library, source_copy,
                                                monkeypatch):
        self.edit_source(source_copy, [("xcross_statistics(", "xcross_sums(")])
        self.assert_python_loops_in_use(monkeypatch, "AttributeError")

    def test_exports_are_the_declared_routines(self):
        # an export _ROUTINES does not declare is dead: no wrapper calls it
        # and no group's check covers it
        text = _native._KERNEL_SOURCE.read_text()
        exported = re.findall(r"^(?!static\b)(?:\w+[ \t]+\**)+(\w+)\([^;{]*\)\s*\{", text, re.M)
        assert sorted(exported) == sorted(_native._ROUTINES)

    def test_import_loads_no_other_xcross_module(self):
        # chaotic_maps imports _native, so _native may import it only
        # where a check runs
        code = ("import sys, xcross._native\n"
                "print(sorted(m for m in sys.modules if m.startswith('xcross')))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout
        assert out.strip() == "['xcross', 'xcross._native']"

    def test_source_allocates_nothing(self):
        # every buffer comes from _native, so no routine can fail for memory
        text = _native._KERNEL_SOURCE.read_text()
        assert re.findall(r"\b(?:malloc|calloc|realloc|free)\s*\(", text) == []

    def test_library_serves_every_layer(self, compiled_library, monkeypatch, rng):
        # the NumPy quantizer, sorts, suite tables, gathers, sums and X-Cross
        # are the silent fallback, so a round trip alone would also hold with
        # none of them compiled
        def numpy_in_use(*args):
            raise AssertionError("a NumPy definition ran where the library should")

        monkeypatch.setattr(ibt, "_gather_bits", numpy_in_use)
        monkeypatch.setattr(key_schedule, "_argsort_keys", numpy_in_use)
        monkeypatch.setattr(key_schedule, "round_half_away", numpy_in_use)
        monkeypatch.setattr(key_schedule, "sbox_from_stream", numpy_in_use)
        monkeypatch.setattr(substitution, "_tables", numpy_in_use)
        monkeypatch.setattr(analysis, "_centred_sums", numpy_in_use)
        monkeypatch.setattr(analysis, "_glcm_matrix", numpy_in_use)
        monkeypatch.setattr(analysis, "_histogram", numpy_in_use)
        monkeypatch.setattr(permutation, "_permute_by_schedule", numpy_in_use)
        monkeypatch.setattr(permutation, "_unpermute_by_schedule", numpy_in_use)
        monkeypatch.setattr(substitution, "_gather", numpy_in_use)
        ctx = _build_context(reference_key(), 64, 64)
        plain = random_image(rng, (64, 64))
        cipher = pipeline.encrypt_with_context(plain, ctx)
        assert analysis.analyze(cipher).flags == ()
        assert np.array_equal(pipeline.decrypt_with_context(cipher, ctx), plain)

    @pytest.mark.parametrize("command, groups", [
        ("encrypt", ["cipher"]), ("decrypt", ["cipher"]), ("analyze", ["statistics"])])
    def test_each_command_checks_only_its_groups(self, tmp_path, command, groups):
        # a group checked during the command is a cache hit afterwards
        code = ("import sys; from xcross import _native, cli\n"
                "code = cli.main(sys.argv[1:])\n"
                "for group in _native._CHECKS:\n"
                "    hits = _native.trusted.cache_info().hits\n"
                "    _native.trusted(group)\n"
                "    if _native.trusted.cache_info().hits > hits: print('checked', group)\n"
                "sys.exit(code)")
        image, key = tmp_path / "image.pgm", tmp_path / "ref.key"
        image.write_bytes(image_io.write_pgm(hashed_pixels(16, 16)))
        key.write_text(key_schedule.serialize_key(reference_key()), encoding="ascii")
        args = {"analyze": ["--in", image]}.get(
            command, ["--in", image, "--out", tmp_path / "out.pgm", "--key", key])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code, command, *map(str, args)], env=env,
                             capture_output=True, text=True, timeout=120, check=True).stdout
        assert [line.split()[1] for line in out.splitlines()
                if line.startswith("checked ")] == groups

    @pytest.mark.parametrize("old, new", [
        # a CLT step that halves very slightly wrong
        pytest.param("alpha_c * z / 2.0", "alpha_c * z * 0.4999999999", id="clt"),
        # a sort that numbers each bin from the end: not the stable order
        pytest.param("key[j] = (int32_t)s;", "key[j] = (int32_t)(n - 1 - s);", id="sort"),
        # a quantizer that rounds exact ties down
        pytest.param("f - (double)t >= 0.5", "f - (double)t > 0.5", id="quantize_tie"),
        # codes of negative values left negative, 254 and 255 as bytes
        pytest.param("(uint8_t)(r < 0 ? r + 3 : r)", "(uint8_t)r", id="quantize_mod3"),
        # an S-box merge that takes the right run's entry first on ties
        pytest.param("v[src[r]] < v[src[l]]", "v[src[r]] <= v[src[l]]", id="sbox_merge"),
        # a code-2 table rotated right, not left
        pytest.param("s2[i] << 1 | s2[i] >> 7", "s2[i] >> 1 | s2[i] << 7", id="tables_rotation"),
        # tables for a box that is not a bijection
        pytest.param("if (!seen[i])\n            return 1;", "", id="tables_bijection"),
        # a scalar gather that numbers the bits of a byte LSB first
        pytest.param("(7 - (k & 7))", "(k & 7)", id="gather"),
        # an AVX2 gather that shifts by the bit's position in a nibble, not a byte
        pytest.param("(k, seven)", "(k, three)", id="gather_simd",
                     marks=pytest.mark.skipif(not cpu_reports_avx2(), reason="only CPUs that "
                                              "report AVX2 run the AVX2 gather")),
        # an X-Cross that emits a column pair's top corners swapped
        pytest.param("e[0] = top[cols - 1 - l];\n                e[1] = bottom[l];\n"
                     "                e[2] = top[l];",
                     "e[0] = top[l];\n                e[1] = bottom[l];\n"
                     "                e[2] = top[cols - 1 - l];", id="xcross"),
        # an inverse X-Cross that writes a column pair's bottom corners swapped
        pytest.param("bottom[l] = e[1];\n            top[l] = e[2];\n"
                     "            bottom[cols - 1 - l] = e[3];",
                     "bottom[cols - 1 - l] = e[1];\n            top[l] = e[2];\n"
                     "            bottom[l] = e[3];", id="xcross_inverse"),
        # a substitution whose table rows are one entry short
        pytest.param("table[ops[i] << 8 | img[i]];", "table[ops[i] * 255 + img[i]];",
                     id="substitute"),
        # a VBMI substitution that picks a row's last 128 entries by bit 6, not bit 7
        pytest.param("_mm512_movepi8_mask(p)", "_mm512_test_epi8_mask(p, _mm512_set1_epi8(0x40))",
                     id="substitute_simd",
                     marks=pytest.mark.skipif(not cpu_reports_vbmi(), reason="only CPUs that "
                                              "report AVX-512 VBMI run the VBMI substitution")),
    ])
    def test_cipher_mismatch_refuses_library(self, compiled_library, source_copy, monkeypatch,
                                             old, new):
        self.edit_source(source_copy, [(old, new)])
        self.assert_only_group_refused(monkeypatch, "cipher")

    def edited_library_matching_numpy(self, source_copy, old, new):
        """The library built with ``old`` replaced by ``new`` in its source,
        once it passes every group's check and gives the correlation sums
        of `_numpy_moments` on every SUM_BLOCKS entry."""
        self.edit_source(source_copy, [(old, new)])
        lib = _native._library.__wrapped__()
        assert isinstance(lib, ctypes.CDLL), lib
        for group, (pairs, _) in _native._CHECKS.items():
            assert _native._same_bytes(pairs(lib)), group
        for name, block in SUM_BLOCKS.items():
            img = sum_block(*block)
            got = _native._compiled_statistics(lib, img)[0][:9]
            assert got.tobytes() == np.array(analysis._numpy_moments(img)).tobytes(), name
        return lib

    def test_scalar_bodies_match_numpy_without_avx2(self, compiled_library, source_copy,
                                                     monkeypatch, rng):
        # CI runners report AVX2, so only a build without the AVX2 bodies runs
        # the scalar correlation leaf of 8 or more pairs and the scalar gather
        # of whole 4-byte words there, and on a CPU that reports AVX-512 VBMI
        # the scalar substitution of whole 64-pixel runs
        lib = self.edited_library_matching_numpy(source_copy, AVX2_DEFINE, "")
        blk = hashed_pixels(8, 8)
        key = rng.permutation(8 * blk.size).astype(np.int32)
        assert _native._compiled_ibt(lib, blk, key).tobytes() == _gather_bits(blk, key).tobytes()
        assert_substitution_matches_gather(lib, rng)

    @pytest.mark.skipif(not cpu_reports_avx512f(), reason="CPUs that do not report "
                        "AVX-512F run the AVX2 correlation leaf in the unedited build")
    def test_avx2_leaf_matches_numpy_without_avx512(self, compiled_library, source_copy):
        # where the CPU reports AVX-512F, only a build with that leaf's
        # dispatch turned off runs the AVX2 leaf that other CPUs take
        self.edited_library_matching_numpy(source_copy, *AVX512_LEAF_OFF)

    @pytest.mark.skipif(not cpu_reports_vbmi(),
                        reason="only CPUs that report AVX-512 VBMI run the VBMI substitution")
    def test_vbmi_substitution_matches_numpy(self, compiled_library, rng):
        assert_substitution_matches_gather(compiled_library, rng)
        suite = substitution.SubstitutionSuite(tuple(rng.permutation(256) for _ in range(3)))
        for img, ops in substitution_cases(rng)[1]:
            with pytest.raises(OpCodeError, match="outside"):
                substitution.substitution_stage(img, ops, suite)

    @pytest.mark.parametrize("edits", [
        # correlation sums added left to right, not in NumPy's eight lanes, in
        # a build without the AVX2 leaf, which would take every leaf of 8 or
        # more pairs
        pytest.param([(AVX2_DEFINE, ""), ("if (n < 8) {", "if (n < 8 || 1) {")], id="sums"),
        # an AVX2 leaf that combines accumulators 1 and 2 swapped, in a build
        # whose CPUs reporting AVX-512F take it too
        pytest.param([AVX512_LEAF_OFF,
                      ("combine_avx2(r[k][0], r[k][1])",
                       "combine_avx2(_mm256_permute4x64_pd(r[k][0], 0xd8), r[k][1])")],
                     id="sums_simd", marks=pytest.mark.skipif(
                         not cpu_reports_avx2(),
                         reason="only CPUs that report AVX2 run the AVX2 correlation leaf")),
        # an AVX-512 leaf that combines accumulators 1 and 2 swapped
        pytest.param([("combine_avx2(_mm512_castpd512_pd256(r[k]),",
                       "combine_avx2(_mm256_permute4x64_pd(_mm512_castpd512_pd256(r[k]), 0xd8),")],
                     id="sums_avx512", marks=pytest.mark.skipif(
                         not cpu_reports_avx512f(),
                         reason="only CPUs that report AVX-512F run the AVX-512 correlation leaf")),
        # diagonal b's sum without the corner it shares with the first row and
        # column, which only the check's [::-3] view has nonzero
        pytest.param([("t + img[0] - r0 - c0", "t - r0 - c0")], id="means_corner"),
        # horizontal a's and b's sums, each without the other's column
        pytest.param([("t - cl, t - c0", "t - c0, t - cl")], id="means_columns"),
        # leaves that combine accumulators 1 and 2 swapped: where the CPU
        # reports AVX2, only the GLCM sums add through this scalar leaf
        pytest.param([("((r[0] + r[1]) + (r[2] + r[3]))", "((r[0] + r[2]) + (r[1] + r[3]))")],
                     id="glcm"),
        # a histogram that misses each row's last pixel, no pair's left one
        pytest.param([("hist[img[cols - 1]]++;", "")], id="histogram"),
        # an image sum, for every direction's means, that leaves out level 1
        pytest.param([("v = 1", "v = 2")], id="means_histogram"),
    ])
    def test_statistics_mismatch_refuses_library(self, compiled_library, source_copy,
                                                 monkeypatch, edits):
        self.edit_source(source_copy, edits)
        self.assert_only_group_refused(monkeypatch, "statistics")
