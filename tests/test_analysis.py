"""Statistical metrics: hand-computable cases, invariants, report formats.

Every metric is read from a field of `analyze`'s report.  Every test class
runs twice: as written, on the default path (the compiled statistics where
the library loads), and as its ``...NumPy`` subclass at the end of the
module, with the NumPy definitions only.  The tests after those compare
the two paths byte for byte.
"""

import math

import numpy as np
import pytest
from conftest import SUM_BLOCKS, hashed_pixels, python_loops, sum_block
from hypothesis import given, settings
from hypothesis import strategies as st

from xcross import _native, analysis
from xcross.analysis import analyze, report_csv, report_text
from xcross.errors import DimensionError, ParameterError
from xcross.permutation import xcross_permute


def checkerboard(n=8):
    idx = np.indices((n, n)).sum(axis=0)
    return np.where(idx % 2 == 0, 0, 255).astype(np.uint8)


def row_ramp(m=8, n=8):
    return np.tile(np.arange(m, dtype=np.uint8)[:, None], (1, n))


class TestEntropy:
    def test_constant_image_has_zero_entropy(self):
        h = analyze(np.full((16, 16), 7, dtype=np.uint8)).entropy
        assert h == 0.0
        assert math.copysign(1.0, h) == 1.0  # +0.0: reports print 0.000000, not -0.000000

    def test_perfectly_uniform_histogram_has_eight_bits(self):
        img = np.arange(256, dtype=np.uint8).reshape(16, 16)
        assert analyze(img).entropy == 8.0

    def test_two_equal_levels_give_one_bit(self):
        assert analyze(checkerboard()).entropy == pytest.approx(1.0, abs=1e-15)

    def test_never_exceeds_eight_bits(self):
        rng = np.random.default_rng(11)
        img = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
        assert analyze(img).entropy <= 8.0

    def test_rejects_non_uint8(self):
        with pytest.raises(ParameterError):
            analyze(np.zeros((4, 4), dtype=np.float64))

    def test_rejects_empty(self):
        with pytest.raises(DimensionError, match="empty"):
            analyze(np.zeros((0, 4), dtype=np.uint8))


def correlations(img):
    """The report's adjacent-pixel correlations by direction."""
    report = analyze(img)
    return {"horizontal": report.corr_h, "vertical": report.corr_v, "diagonal": report.corr_d}


class TestAdjacentCorrelation:
    def test_row_ramp_is_perfectly_correlated_horizontally(self):
        # every horizontal pair is (i, i), so x and y are the same sequence
        assert analyze(row_ramp()).corr_h == pytest.approx(1.0, abs=1e-12)

    def test_checkerboard_is_anticorrelated(self):
        c = correlations(checkerboard())
        for d in ("horizontal", "vertical"):
            assert c[d] == pytest.approx(-1.0, abs=1e-12)
        # diagonal neighbours share the same parity -> same value
        assert c["diagonal"] == pytest.approx(1.0, abs=1e-12)

    def test_constant_image_reports_zero(self):
        img = np.full((8, 8), 42, dtype=np.uint8)
        assert analyze(img).corr_h == 0.0

    def test_vertical_equals_horizontal_of_transpose(self):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(12, 20), dtype=np.uint8)
        v = analyze(img).corr_v
        h_t = analyze(np.ascontiguousarray(img.T)).corr_h
        assert v == pytest.approx(h_t, abs=1e-12)

    def test_complement_invariance(self):
        rng = np.random.default_rng(6)
        img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        c, complement = correlations(img), correlations(255 - img)
        for d in ("horizontal", "vertical", "diagonal"):
            assert c[d] == pytest.approx(complement[d], abs=1e-12)

    def test_too_small_for_direction(self):
        # a 1x2 image has one horizontal pair (below the two-pair minimum);
        # a 1x3 image has two, and no vertical pairs at all
        with pytest.raises(DimensionError, match="horizontal"):
            analyze(np.array([[1, 2]], dtype=np.uint8))
        with pytest.raises(DimensionError, match="vertical"):
            analyze(np.array([[1, 2, 3]], dtype=np.uint8))


class TestGlcm:
    def test_constant_image(self):
        report = analyze(np.full((8, 8), 9, dtype=np.uint8))
        assert report.glcm_contrast == 0.0
        assert report.glcm_energy == 1.0
        assert report.glcm_homogeneity == 1.0
        assert report.glcm_correlation is None

    def test_checkerboard_closed_forms(self):
        report = analyze(checkerboard())
        # all horizontal pairs are (0,255) or (255,0), each with mass 1/2
        assert report.glcm_contrast == pytest.approx(255.0**2, abs=1e-9)
        assert report.glcm_energy == pytest.approx(0.5, abs=1e-15)
        assert report.glcm_homogeneity == pytest.approx(1.0 / 256.0, abs=1e-15)
        assert report.glcm_correlation == pytest.approx(-1.0, abs=1e-12)

    def test_matrix_is_normalized_and_symmetric_features_bounded(self):
        rng = np.random.default_rng(7)
        report = analyze(rng.integers(0, 256, size=(24, 24), dtype=np.uint8))
        assert 0.0 <= report.glcm_energy <= 1.0
        assert 0.0 < report.glcm_homogeneity <= 1.0
        assert report.glcm_contrast >= 0.0
        assert report.glcm_correlation is not None and -1.0 <= report.glcm_correlation <= 1.0

    def test_energy_homogeneity_ordering_is_not_universal(self):
        # On typical photographic or noise images energy stays well below
        # homogeneity, but the ordering can invert: a two-level 0/255
        # checkerboard concentrates the GLCM in two far-apart cells, giving
        # energy 1/2 while homogeneity collapses to 1/256.
        report = analyze(checkerboard())
        assert report.glcm_energy > report.glcm_homogeneity
        rng = np.random.default_rng(8)
        for _ in range(5):
            report = analyze(rng.integers(0, 256, size=(32, 32), dtype=np.uint8))
            assert report.glcm_energy <= report.glcm_homogeneity

    def test_needs_two_columns(self):
        # a single column has no horizontal pair, so no GLCM either
        with pytest.raises(DimensionError, match="horizontal"):
            analyze(np.zeros((4, 1), dtype=np.uint8))


class TestChiSquare:
    def test_exactly_uniform_histogram_scores_zero(self):
        img = np.arange(256, dtype=np.uint8).reshape(16, 16)
        assert analyze(img).chi_square == 0.0

    def test_constant_image_closed_form(self):
        img = np.zeros((256, 256), dtype=np.uint8)
        n = img.size
        expected = n / 256.0
        # one bin holds everything, 255 bins hold nothing
        closed = 255 * expected + (n - expected) ** 2 / expected
        assert analyze(img).chi_square == pytest.approx(closed, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        assert analyze(img).chi_square >= 0.0


class TestPermutationInvariance:
    # pixel-shuffling stages must leave histogram statistics untouched
    def test_entropy_and_chi_square_survive_permutation(self):
        rng = np.random.default_rng(10)
        img = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        report, shuffled = analyze(img), analyze(xcross_permute(img))
        assert shuffled.entropy == report.entropy
        assert shuffled.chi_square == report.chi_square
        assert np.array_equal(shuffled.histogram, report.histogram)


class TestAnalyze:
    def test_constant_image_sets_flags(self):
        report = analyze(np.full((8, 8), 3, dtype=np.uint8))
        assert report.entropy == 0.0
        assert report.glcm_correlation is None
        assert "glcm_correlation_undefined" in report.flags
        assert "corr_h_zero_variance" in report.flags
        assert "corr_v_zero_variance" in report.flags
        assert "corr_d_zero_variance" in report.flags

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        r1, r2 = analyze(img), analyze(img)
        assert report_csv(r1) == report_csv(r2)
        assert report_text(r1) == report_text(r2)


class TestReportFormats:
    @pytest.fixture()
    def report(self):
        rng = np.random.default_rng(14)
        return analyze(rng.integers(0, 256, size=(16, 16), dtype=np.uint8))

    def test_csv_shape(self, report):
        lines = report_csv(report).splitlines()
        assert lines[0] == "metric,value"
        # 9 scalars + flags + 256 histogram bins
        assert len(lines) == 1 + 9 + 1 + 256
        names = [ln.split(",", 1)[0] for ln in lines[1:]]
        assert names[0] == "entropy"
        assert names[9] == "flags"
        assert names[10] == "histogram_000"
        assert names[-1] == "histogram_255"

    def test_csv_floats_round_trip(self, report):
        rows = dict(
            ln.split(",", 1) for ln in report_csv(report).splitlines()[1:]
        )
        assert float(rows["entropy"]) == report.entropy
        assert float(rows["chi_square"]) == report.chi_square
        assert int(rows["histogram_000"]) == int(report.histogram[0])

    def test_csv_undefined_correlation(self):
        report = analyze(np.full((8, 8), 1, dtype=np.uint8))
        rows = dict(
            ln.split(",", 1) for ln in report_csv(report).splitlines()[1:]
        )
        assert rows["glcm_correlation"] == "undefined"
        assert "glcm_correlation_undefined" in rows["flags"]

    def test_text_mentions_every_metric(self, report):
        text = report_text(report)
        for token in ("entropy", "horizontal", "vertical", "diagonal",
                      "contrast", "energy", "homogeneity", "chi-square",
                      "histogram", "flags"):
            assert token in text
        # 16 histogram rows of 16 counts each
        grid = [ln for ln in text.splitlines() if ln.startswith("  ") and
                ln.strip()[0].isdigit()]
        assert len(grid) == 16

    def test_text_flags_none_placeholder(self):
        rng = np.random.default_rng(15)
        report = analyze(rng.integers(0, 256, size=(16, 16), dtype=np.uint8))
        assert "flags                : none" in report_text(report)


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    m=st.integers(min_value=3, max_value=12),
    n=st.integers(min_value=3, max_value=12),
)
def test_metric_ranges_hold_for_arbitrary_images(data, m, n):
    pixels = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=255),
            min_size=m * n,
            max_size=m * n,
        )
    )
    img = np.array(pixels, dtype=np.uint8).reshape(m, n)
    report = analyze(img)
    assert 0.0 <= report.entropy <= 8.0
    assert report.chi_square >= 0.0
    for c in (report.corr_h, report.corr_v, report.corr_d):
        assert abs(c) <= 1.0 + 1e-9
    assert 0.0 < report.glcm_energy <= 1.0
    assert 0.0 < report.glcm_homogeneity <= 1.0
    if report.glcm_correlation is not None:
        assert abs(report.glcm_correlation) <= 1.0 + 1e-9


class NumPyStatistics:
    """Runs the inherited tests with the NumPy definitions of the statistics."""

    @pytest.fixture(autouse=True)
    def numpy_statistics(self):
        with python_loops():
            yield


class TestEntropyNumPy(NumPyStatistics, TestEntropy):
    pass


class TestAdjacentCorrelationNumPy(NumPyStatistics, TestAdjacentCorrelation):
    pass


class TestGlcmNumPy(NumPyStatistics, TestGlcm):
    pass


class TestChiSquareNumPy(NumPyStatistics, TestChiSquare):
    pass


class TestPermutationInvarianceNumPy(NumPyStatistics, TestPermutationInvariance):
    pass


class TestAnalyzeNumPy(NumPyStatistics, TestAnalyze):
    pass


class TestReportFormatsNumPy(NumPyStatistics, TestReportFormats):
    pass


def report_or_error(img):
    """The CSV report of ``img``, or the class and text of the error."""
    try:
        return report_csv(analyze(img))
    except DimensionError as exc:
        return f"{type(exc).__name__}: {exc}"


def numpy_report(img):
    with python_loops():
        return report_or_error(img)


class TestCompiledStatistics:
    """The compiled statistics against their NumPy definitions."""

    @pytest.mark.parametrize("block", list(SUM_BLOCKS.values()), ids=list(SUM_BLOCKS))
    def test_sums_and_reports_match_numpy_across_block_sizes(self, compiled_library, block):
        img = sum_block(*block)
        got = _native._compiled_statistics(compiled_library, img)
        for got_part, want_part in zip(got, analysis._numpy_statistics(img)):
            assert got_part.dtype == want_part.dtype
            assert got_part.tobytes() == want_part.tobytes()
        assert report_csv(analyze(img)) == numpy_report(img)

    @pytest.mark.parametrize("img", [
        # its 8 diagonal pairs have nonzero variances and covariance exactly 0
        pytest.param(np.array([[2, 0, 1, 2, 1], [0, 1, 2, 2, 2], [0, 1, 1, 1, 2]],
                              dtype=np.uint8), id="zero_covariance"),
        pytest.param(np.full((8, 8), 9, dtype=np.uint8), id="constant"),
        pytest.param(row_ramp(), id="row_ramp"),
    ])
    def test_zero_sums_stay_on_the_compiled_path(self, compiled_library, monkeypatch, img):
        # signed sums are added to +0.0 as NumPy's reduction adds them, so a
        # zero sum needs no NumPy re-run
        want = numpy_report(img)

        def numpy_in_use(*args):
            raise AssertionError("a NumPy statistic ran where the library should")

        monkeypatch.setattr(analysis, "_centred_sums", numpy_in_use)
        monkeypatch.setattr(analysis, "_glcm_matrix", numpy_in_use)
        monkeypatch.setattr(analysis, "_histogram", numpy_in_use)
        report = analyze(img)
        assert report_csv(report) == want
        sums = _native._compiled_statistics(compiled_library, img)[0]
        assert all(math.copysign(1.0, s) == 1.0 for s in sums if s == 0.0)
        if img.shape == (3, 5):
            assert report.corr_d == 0.0 and report.flags == ()

    def test_counts_match_bincount(self, compiled_library):
        img = hashed_pixels(17, 23)
        got = _native._compiled_statistics(compiled_library, img)[1]
        want = analysis._histogram(img)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_count_buffers_are_zeroed_first(self, compiled_library):
        # the image sum comes from the histogram, so counts added onto stale
        # ones would change the correlation sums as well as the counts
        img = hashed_pixels(12, 13)
        sums, hist = np.empty(15), np.full(256, 12345, np.int64)
        cells = np.full(65536, -7, np.int64)
        compiled_library.xcross_statistics(
            _native._address(img), *img.shape, _native._address(sums), _native._address(hist),
            _native._address(cells))
        want_sums, want_hist = analysis._numpy_statistics(img)
        assert sums.tobytes() == want_sums.tobytes()
        assert hist.tobytes() == want_hist.tobytes()

    @pytest.mark.parametrize("img", [
        pytest.param(np.array([[7, 7], [0, 255]], dtype=np.uint8), id="2x2"),
        pytest.param(hashed_pixels(5, 2), id="5x2"),
        # the border sums read the image's first and last bytes
        pytest.param(hashed_pixels(2, 257), id="2x257"),
        pytest.param(hashed_pixels(257, 2), id="257x2"),
        pytest.param(hashed_pixels(91, 92)[::-3], id="row_view"),
        pytest.param(np.full((1024, 1024), 200, dtype=np.uint8), id="constant_1024"),
        pytest.param(hashed_pixels(1024, 1024), id="random_1024"),
    ])
    def test_histogram_comes_from_the_pair_pass(self, compiled_library, img):
        # each row's last pixel is no pair's left pixel, and is counted apart
        hist = _native._compiled_statistics(compiled_library, img)[1]
        want = np.bincount(img.reshape(-1), minlength=256)
        assert hist.dtype == np.int64 == want.dtype
        assert np.array_equal(hist, want)

    @pytest.mark.parametrize("img", [
        # variance 0: no correlation, on both paths
        pytest.param(np.full((8, 8), 9, dtype=np.uint8), id="constant"),
        pytest.param(np.array([[1, 2], [2, 1]], dtype=np.uint8), id="2x2"),
        pytest.param(hashed_pixels(37, 2), id="two_columns"),
        pytest.param(checkerboard(), id="checkerboard"),
        pytest.param(hashed_pixels(91, 92)[::-3], id="row_view"),
        # 4 levels: at most 16 of the 65536 cells are nonzero
        pytest.param(hashed_pixels(64, 64) % 4 + 100, id="narrow_range_64"),
    ])
    def test_glcm_matches_numpy(self, compiled_library, img):
        got = _native._compiled_statistics(compiled_library, img)[0][9:]
        want = analysis._glcm_sums(img)
        assert got.tobytes() == np.array(want).tobytes()
        assert report_or_error(img) == numpy_report(img)
        assert repr(analysis._glcm_features(got)) == repr(analysis._glcm_features(want))

    def test_views_the_library_cannot_read_are_declined(self, compiled_library):
        img = hashed_pixels(8, 10)
        assert _native._compiled_statistics(None, img) is None
        # one column has no horizontal pair, one row no vertical one
        assert _native._compiled_statistics(compiled_library, img[:, :1]) is None
        assert _native._compiled_statistics(compiled_library, img[:1]) is None
        # a view whose columns lie apart is read through a contiguous copy
        view = img[:, ::2]
        got = _native._compiled_statistics(compiled_library, view)
        want = analysis._numpy_statistics(view)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1])


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(min_value=2, max_value=40),
    cols=st.integers(min_value=2, max_value=40),
    row_step=st.sampled_from([1, 2, 3, -1, -2]),
    col_step=st.sampled_from([1, 2, -1]),
)
def test_compiled_and_numpy_reports_agree(compiled_library, data, rows, cols,
                                          row_step, col_step):
    pixels = data.draw(st.binary(min_size=rows * cols, max_size=rows * cols))
    # the drawn pixels in a strided view, between bytes a wrong stride would read
    base = hashed_pixels(abs(row_step) * rows, abs(col_step) * cols)
    img = base[::row_step, ::col_step]
    img[...] = np.frombuffer(pixels, dtype=np.uint8).reshape(rows, cols)
    if data.draw(st.booleans(), label="few levels"):
        img = img % 3  # small variances, ties and exact zero sums
    assert report_or_error(img) == numpy_report(img)
