"""Finite-precision iterators for the two chaotic maps driving the cipher.

Two maps are implemented:

* a 2D logistic-sine/Henon-style map (LSHM) producing the coupled
  ``x``/``y`` streams that the key schedule turns into extraction keys, and
* a combined logistic-tent map (CLT) producing the stream behind the
  operation-selection matrix and the S-boxes.

Everything here is deliberately plain binary64 arithmetic with a fixed
operation order.  Chaotic maps amplify a one-ulp difference exponentially,
so "mostly the same" arithmetic produces completely different key streams;
the only way two runs (or two implementations) agree is if every single
floating-point operation rounds identically.  Hence: no vectorized
transcendentals, no re-association, no fused multiply-add.

One Python loop per map, :func:`_lshm_loop` and :func:`_clt_loop`, is the
definition of both streams; :func:`lshm_step` and :func:`clt_step` are one
turn of that loop.  The compiled library holds the same two loops, and
the iterators run them wherever :func:`~xcross._native.trusted` gives it
for the ``cipher`` group; else the loops run in Python.
Both paths emit the same bytes, with one exception:
once a stream has overflowed to NaN (only for keys far outside the
operating ranges, such as ``k1=-1e308``), which NaN an operation returns
is the hardware's choice, so the paths can differ in NaN sign bits.
Every NaN quantizes to the same byte, so the derived keys do not differ.

Both iterators discard a fixed transient prefix so emitted values are
decorrelated from the raw seeds.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import EmptyRequestError, ParameterError

#: Iterations discarded before any value is emitted.
TRANSIENT = 1000


def _require_finite(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class LshmParams:
    """Control parameters and seeds for the 2D LSHM map.

    The recurrence, iterated in binary64 exactly as written:

        x' = k1 * (1 + alpha * cos(pi*x)^beta)  mod 1
        y' = k2 * (cos(y) * (1 - x))

    ``x`` evolves autonomously and drives ``y``; ``y'`` uses the *previous*
    ``x``.  ``cos(pi*x)^beta`` is computed as ``sign(c) * |c|**beta`` so the
    map stays real-valued for non-integer ``beta`` while agreeing with the
    plain reading for integer exponents.  ``y`` is not reduced mod 1 and may
    leave [0, 1).
    """

    k1: float
    k2: float
    alpha: float
    beta: float
    x0: float
    y0: float

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "alpha", "beta", "x0", "y0"):
            _require_finite(f"lshm.{name}", getattr(self, name))
        if not 0.0 <= self.x0 < 1.0:
            raise ParameterError(f"lshm.x0 must lie in [0, 1), got {self.x0!r}")
        if self.beta < 1.0:
            raise ParameterError(f"lshm.beta must be >= 1, got {self.beta!r}")


@dataclass(frozen=True)
class CltParams:
    """Control parameters and seed for the combined logistic-tent map.

    The recurrence, branching on the current value:

        z < 0.5:   z' = (lam*z*(1-z) + alpha_c*z/2)      mod 1
        z >= 0.5:  z' = (lam*z*(1-z) + alpha_c*(1-z)/2)  mod 1

    ``lam`` must lie in (3.5, 4) and ``alpha_c`` in (2, 4); both ranges are
    open and checked at construction, as is ``z0`` in (0, 1).
    """

    lam: float
    alpha_c: float
    z0: float

    def __post_init__(self) -> None:
        _require_finite("clt.lambda", self.lam)
        _require_finite("clt.alpha", self.alpha_c)
        _require_finite("clt.z0", self.z0)
        if not 3.5 < self.lam < 4.0:
            raise ParameterError(f"clt.lambda must lie in (3.5, 4), got {self.lam!r}")
        if not 2.0 < self.alpha_c < 4.0:
            raise ParameterError(f"clt.alpha must lie in (2, 4), got {self.alpha_c!r}")
        if not 0.0 < self.z0 < 1.0:
            raise ParameterError(f"clt.z0 must lie in (0, 1), got {self.z0!r}")


def lshm_step(x: float, y: float, p: LshmParams) -> tuple[float, float]:
    """One application of the LSHM recurrence to the state ``(x, y)``."""
    xs, ys = [0.0], [0.0]
    _lshm_loop(None, xs, ys, x, y, p)
    return xs[0], ys[0]


def clt_step(z: float, p: CltParams) -> float:
    """One application of the CLT recurrence to the state ``z``."""
    zs = [0.0]
    _clt_loop(None, zs, z, p)
    return zs[0]


def iterate_lshm(params: LshmParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Emit ``n`` post-transient values of each LSHM stream.

    Returns the x-stream and y-stream as float64 arrays of length ``n``.
    Every x value lies in [0, 1); y values are unbounded.
    """
    if not isinstance(params, LshmParams):
        raise ParameterError("params must be LshmParams")
    n = _checked_count(n)
    xs, ys = np.empty(TRANSIENT + n), np.empty(TRANSIENT + n)
    _lshm_loop(_native.trusted("cipher"), xs, ys, params.x0, params.y0, params)
    return xs[TRANSIENT:], ys[TRANSIENT:]


def iterate_clt(params: CltParams, n: int) -> np.ndarray:
    """Emit ``n`` post-transient values of the CLT stream, all in [0, 1)."""
    if not isinstance(params, CltParams):
        raise ParameterError("params must be CltParams")
    n = _checked_count(n)
    zs = np.empty(TRANSIENT + n)
    _clt_loop(_native.trusted("cipher"), zs, params.z0, params)
    return zs[TRANSIENT:]


def _lshm_loop(lib: ctypes.CDLL | None, xs, ys, x: float, y: float, p: LshmParams) -> None:
    """Write the ``len(xs)`` LSHM states that follow ``(x, y)`` into ``xs``
    and ``ys``: by the C loop when ``lib`` is the compiled library (the
    buffers are then C-contiguous float64 arrays of one length), else by
    the Python loop."""
    if lib is not None:
        lib.xcross_lshm(_native._address(xs), _native._address(ys), len(xs),
                        x, y, p.k1, p.k2, p.alpha, p.beta, math.pi)
        return
    cos, pow_, abs_, pi = math.cos, math.pow, abs, math.pi
    k1, k2, alpha, beta = p.k1, p.k2, p.alpha, p.beta
    for i in range(len(xs)):
        c = cos(pi * x)
        t = pow_(abs_(c), beta)
        if c < 0.0:
            t = -t
        y = k2 * (cos(y) * (1.0 - x))
        # mod 1, with the one way CPython's ``%`` leaves [0, 1) fixed: for a
        # tiny negative v, ``v % 1.0`` returns exactly 1.0 (the excluded
        # endpoint); a zero remainder is always +0.0
        x = k1 * (1.0 + alpha * t) % 1.0
        if x >= 1.0:
            x = 0.0
        xs[i] = x
        ys[i] = y


def _clt_loop(lib: ctypes.CDLL | None, zs, z: float, p: CltParams) -> None:
    """Write the ``len(zs)`` CLT states that follow ``z`` into ``zs``: by
    the C loop when ``lib`` is the compiled library (``zs`` is then a
    C-contiguous float64 array), else by the Python loop."""
    if lib is not None:
        lib.xcross_clt(_native._address(zs), len(zs), z, p.lam, p.alpha_c)
        return
    lam, alpha_c = p.lam, p.alpha_c
    for i in range(len(zs)):
        if z < 0.5:
            z = lam * z * (1.0 - z) + alpha_c * z / 2.0
        else:
            z = lam * z * (1.0 - z) + alpha_c * (1.0 - z) / 2.0
        z %= 1.0  # fixed as in _lshm_loop
        if z >= 1.0:
            z = 0.0
        zs[i] = z


def _checked_count(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParameterError(f"iteration count must be a positive integer, got {n!r}")
    if n == 0:
        raise EmptyRequestError("at least one iteration must be requested")
    return n
