"""Statistical security metrics for 8-bit grayscale images.

All metrics are exhaustive (every pixel / every adjacent pair) rather than
sampled, so repeated runs on the same image give identical reports.
`analyze` counts the 256-bin histogram once and takes entropy, chi-square
and the reported histogram from it.  The GLCM uses the horizontal (0,1)
offset, full 256 gray levels, counts each pair in both orders (symmetric),
and normalizes to probabilities; a pair is counted at the flat index
``left << 8 | right``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError, checked_image

_DIRECTIONS = ("horizontal", "vertical", "diagonal")


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
    return np.bincount(img.reshape(-1), minlength=256)


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log2(p)).sum())


def _chi_square(counts: np.ndarray) -> float:
    expected = counts.sum() / 256.0
    return float(((counts - expected) ** 2 / expected).sum())


def entropy(img: np.ndarray) -> float:
    """Shannon entropy of the pixel histogram, in bits per pixel."""
    return _entropy(_histogram(_nonempty(img)))


def _direction_pairs(img: np.ndarray, direction: str) -> tuple[np.ndarray, np.ndarray]:
    if direction == "horizontal":
        return img[:, :-1], img[:, 1:]
    if direction == "vertical":
        return img[:-1, :], img[1:, :]
    if direction == "diagonal":
        return img[:-1, :-1], img[1:, 1:]
    raise ParameterError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")


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
    # centred in place, so at most three pixel-sized float64 arrays are live
    x = a.reshape(-1).astype(np.float64)
    y = b.reshape(-1).astype(np.float64)
    x -= x.mean()
    y -= y.mean()
    vx = (x * x).mean()
    vy = (y * y).mean()
    if vx == 0.0 or vy == 0.0:
        return 0.0, True
    cov = (x * y).mean()
    return float(cov / np.sqrt(vx * vy)), False


def _glcm_matrix(img: np.ndarray) -> np.ndarray:
    pairs = (img[:, :-1].astype(np.uint16) << 8) | img[:, 1:]
    counts = np.bincount(pairs.reshape(-1), minlength=65536).reshape(256, 256)
    sym = counts + counts.T
    return sym / sym.sum()


def glcm(img: np.ndarray) -> tuple[float, float, float, float | None]:
    """GLCM texture features: (contrast, energy, homogeneity, correlation)."""
    img = _nonempty(img)
    if img.shape[1] < 2:
        raise DimensionError("GLCM needs at least two columns")
    p = _glcm_matrix(img)
    levels = np.arange(256, dtype=np.float64)
    diff = levels[:, None] - levels[None, :]
    contrast = float((diff**2 * p).sum())
    energy = float((p**2).sum())
    homogeneity = float((p / (1.0 + np.abs(diff))).sum())
    pi = p.sum(axis=1)
    mu = float((levels * pi).sum())
    var = float(((levels - mu) ** 2 * pi).sum())
    if var == 0.0:
        correlation = None
    else:
        correlation = float(
            ((levels[:, None] - mu) * (levels[None, :] - mu) * p).sum() / var
        )
    return contrast, energy, homogeneity, correlation


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
    contrast, energy_, homogeneity, correlation = glcm(img)
    if correlation is None:
        flags.append("glcm_correlation_undefined")
    counts = _histogram(img)
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
