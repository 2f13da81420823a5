"""Statistical security metrics for 8-bit grayscale images.

All metrics are exhaustive (every pixel / every adjacent pair) rather than
sampled, so repeated runs on the same image give identical reports.
`analyze` counts the 256-bin histogram once and takes entropy, chi-square
and the reported histogram from it.  The GLCM uses the horizontal (0,1)
offset, full 256 gray levels, counts each pair in both orders (symmetric),
and normalizes to probabilities; a pair is counted at the flat index
``left << 8 | right``.

The NumPy code below is the definition of every statistic.  Where the
compiled library of :mod:`~xcross._native` runs, it takes each
direction's correlation sums and the GLCM's sums instead, and counts
`analyze`'s histogram in the GLCM's pass over the pairs, without
pixel-sized float64 arrays or 256x256 ones; it forms each term as
NumPy does, adds the sums in NumPy's own pairwise order, and adds a sum
with terms of both signs to +0.0, the identity NumPy's reduction starts
from, so both paths give the same report bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _native
from .errors import DimensionError, ParameterError, checked_image

#: Direction -> the (rows, columns) from each pixel to its pair.
_DIRECTIONS = {"horizontal": (0, 1), "vertical": (1, 0), "diagonal": (1, 1)}

#: The 256 gray levels, read-only.
_LEVELS = np.arange(256, dtype=np.float64)
_LEVELS.flags.writeable = False

#: The offsets j - i of the GLCM's cells (i, j), -255 to 255.
_OFFSETS = np.arange(-255, 256, dtype=np.float64)
_OFFSETS.flags.writeable = False


@dataclass(frozen=True)
class AnalysisReport:
    """Everything `analyze` measures about one image.

    ``glcm_correlation`` is None when the GLCM marginals have zero
    variance (constant image); degenerate Pearson correlations are
    reported as 0.0 with a marker in ``flags``.
    """

    entropy: float
    corr_h: float
    corr_v: float
    corr_d: float
    glcm_contrast: float
    glcm_energy: float
    glcm_homogeneity: float
    glcm_correlation: float | None
    chi_square: float
    histogram: np.ndarray
    flags: tuple[str, ...] = ()


def _nonempty(img: np.ndarray) -> np.ndarray:
    img = checked_image(img)
    if img.size == 0:
        raise DimensionError("image is empty")
    return img


def _histogram(img: np.ndarray) -> np.ndarray:
    """The 256-bin histogram of ``img``: by NumPy, the definition."""
    return np.bincount(img.reshape(-1), minlength=256)


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    # a single level sums to +0.0, and -(+0.0) would report -0.0
    return float(0.0 - (p * np.log2(p)).sum())


def _chi_square(counts: np.ndarray) -> float:
    expected = counts.sum() / 256.0
    return float(((counts - expected) ** 2 / expected).sum())


def entropy(img: np.ndarray) -> float:
    """Shannon entropy of the pixel histogram, in bits per pixel."""
    return _entropy(_histogram(_nonempty(img)))


def _direction_pairs(img: np.ndarray, direction: str) -> tuple[np.ndarray, np.ndarray]:
    if direction not in _DIRECTIONS:
        raise ParameterError(f"direction must be one of {tuple(_DIRECTIONS)}, got {direction!r}")
    dr, dc = _DIRECTIONS[direction]
    rows, cols = img.shape
    return img[:rows - dr, :cols - dc], img[dr:, dc:]


def adjacent_correlation(img: np.ndarray, direction: str) -> float:
    """Pearson correlation over all adjacent pixel pairs in one direction.

    Returns 0.0 when either marginal is constant (the report carries a
    flag for that case).
    """
    return _correlation(_nonempty(img), direction)[0]


def _correlation(img: np.ndarray, direction: str) -> tuple[float, bool]:
    """(Pearson correlation, whether a marginal has zero variance)."""
    a, b = _direction_pairs(img, direction)
    if a.size < 2:
        raise DimensionError(
            f"image {img.shape} has too few {direction} pairs for a correlation"
        )
    sums = _native._compiled_moments(_native.trusted("statistics"), img, *_DIRECTIONS[direction])
    if sums is None:
        sums = _centred_sums(a, b)
    # as ndarray.mean divides np.add.reduce's sum by the count
    sxx, syy, sxy = sums
    vx = sxx / a.size
    vy = syy / a.size
    if vx == 0.0 or vy == 0.0:
        return 0.0, True
    cov = sxy / a.size
    return float(cov / np.sqrt(vx * vy)), False


def _centred_sums(a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    """The sums of x*x, y*y and x*y for the pixels of ``a`` and ``b`` as
    float64, x and y centred on their means: by NumPy, the definition."""
    # centred in place, so at most three pixel-sized float64 arrays are live
    x = a.reshape(-1).astype(np.float64)
    y = b.reshape(-1).astype(np.float64)
    x -= x.mean()
    y -= y.mean()
    return (x * x).sum(), (y * y).sum(), (x * y).sum()


def _by_offset(values: np.ndarray) -> np.ndarray:
    """The 256x256 view whose cell (i, j) is ``values[255 + j - i]``: a GLCM
    weight of cell (i, j), given by offset j - i from -255 to 255, without
    building a table."""
    return sliding_window_view(values, 256)[::-1]


def _glcm_matrix(img: np.ndarray) -> np.ndarray:
    pairs = (img[:, :-1].astype(np.uint16) << 8) | img[:, 1:]
    counts = np.bincount(pairs.reshape(-1), minlength=65536).reshape(256, 256)
    sym = counts + counts.T
    return sym / sym.sum()


def _glcm_sums(img: np.ndarray) -> tuple[float, float, float, float, float, float]:
    """The GLCM contrast, energy, homogeneity, mean, variance and the sum
    of the correlation's numerator, for an image with a horizontal pair:
    by NumPy, the definition."""
    p = _glcm_matrix(img)
    pi = p.sum(axis=1)
    mu = (_LEVELS * pi).sum()
    return (
        (_by_offset(_OFFSETS**2) * p).sum(),
        (p**2).sum(),
        (p / _by_offset(1.0 + np.abs(_OFFSETS))).sum(),
        mu,
        ((_LEVELS - mu) ** 2 * pi).sum(),
        ((_LEVELS[:, None] - mu) * (_LEVELS[None, :] - mu) * p).sum(),
    )


def glcm(img: np.ndarray) -> tuple[float, float, float, float | None]:
    """GLCM texture features: (contrast, energy, homogeneity, correlation)."""
    return _glcm(_nonempty(img))[0]


def _glcm(img: np.ndarray) -> tuple[tuple[float, float, float, float | None], np.ndarray]:
    """(the GLCM features of `glcm`, the 256-bin histogram): from the
    compiled pass over the pairs where the library takes the image, else
    from their NumPy definitions."""
    if img.shape[1] < 2:
        raise DimensionError("GLCM needs at least two columns")
    compiled = _native._compiled_glcm(_native.trusted("statistics"), img)
    sums, counts = compiled or (_glcm_sums(img), _histogram(img))
    contrast, energy, homogeneity, _, var, corr_sum = (float(s) for s in sums)
    correlation = None if var == 0.0 else corr_sum / var
    return (contrast, energy, homogeneity, correlation), counts


def histogram_chi_square(img: np.ndarray) -> float:
    """Chi-square statistic of the 256-bin histogram against uniform."""
    return _chi_square(_histogram(_nonempty(img)))


def analyze(img: np.ndarray) -> AnalysisReport:
    """All metrics in one deterministic report."""
    img = _nonempty(img)
    flags = []
    corrs = {}
    for d in _DIRECTIONS:
        corrs[d], zero_variance = _correlation(img, d)
        if zero_variance:
            flags.append(f"corr_{d[0]}_zero_variance")
    (contrast, energy_, homogeneity, correlation), counts = _glcm(img)
    if correlation is None:
        flags.append("glcm_correlation_undefined")
    return AnalysisReport(
        entropy=_entropy(counts),
        corr_h=corrs["horizontal"],
        corr_v=corrs["vertical"],
        corr_d=corrs["diagonal"],
        glcm_contrast=contrast,
        glcm_energy=energy_,
        glcm_homogeneity=homogeneity,
        glcm_correlation=correlation,
        chi_square=_chi_square(counts),
        histogram=counts,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# report emission

_SCALAR_FIELDS = (
    "entropy", "corr_h", "corr_v", "corr_d",
    "glcm_contrast", "glcm_energy", "glcm_homogeneity", "glcm_correlation",
    "chi_square",
)


def report_csv(report: AnalysisReport) -> str:
    """`metric,value` rows: the scalars, the flags, then all 256 histogram bins.

    Floats are rendered with repr so the CSV round-trips binary64 exactly.
    """
    lines = ["metric,value"]
    for name in _SCALAR_FIELDS:
        value = getattr(report, name)
        lines.append(f"{name},{'undefined' if value is None else repr(value)}")
    lines.append(f"flags,{';'.join(report.flags)}")
    for v in range(256):
        lines.append(f"histogram_{v:03d},{int(report.histogram[v])}")
    return "\n".join(lines) + "\n"


def report_text(report: AnalysisReport) -> str:
    """Human-readable report block."""
    corr = (
        "undefined"
        if report.glcm_correlation is None
        else f"{report.glcm_correlation:+.6f}"
    )
    lines = [
        "statistical analysis",
        "--------------------",
        f"entropy              : {report.entropy:.6f} bits/pixel",
        "adjacent correlation",
        f"  horizontal         : {report.corr_h:+.6f}",
        f"  vertical           : {report.corr_v:+.6f}",
        f"  diagonal           : {report.corr_d:+.6f}",
        "glcm (offset 0,1; 256 levels; symmetric)",
        f"  contrast           : {report.glcm_contrast:.6f}",
        f"  energy             : {report.glcm_energy:.8f}",
        f"  homogeneity        : {report.glcm_homogeneity:.6f}",
        f"  correlation        : {corr}",
        f"histogram chi-square : {report.chi_square:.6f} (256 bins)",
        f"flags                : {'; '.join(report.flags) if report.flags else 'none'}",
        "histogram (16 bins per row)",
    ]
    for row in range(16):
        chunk = report.histogram[row * 16:(row + 1) * 16]
        lines.append("  " + " ".join(f"{int(c):6d}" for c in chunk))
    return "\n".join(lines) + "\n"
