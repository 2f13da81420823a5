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
floating-point operation rounds identically.  Hence: scalar ``math`` calls
in a Python loop, no vectorized transcendentals, no re-association.

Both iterators discard a fixed transient prefix so emitted values are
decorrelated from the raw seeds.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

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


def _mod1(v: float) -> float:
    """Reduce into [0, 1), fixing the two ways CPython's ``%`` can betray us.

    For a tiny negative v, ``v % 1.0`` returns exactly ``1.0`` (the excluded
    endpoint); and a negative zero result would compare equal to 0.0 but
    print differently.  Both are normalized away.
    """
    r = v % 1.0
    if r >= 1.0:
        r = 0.0
    return r + 0.0


def lshm_step(x: float, y: float, p: LshmParams) -> tuple[float, float]:
    """One application of the LSHM recurrence to the state ``(x, y)``."""
    c = math.cos(math.pi * x)
    t = math.pow(abs(c), p.beta)
    if c < 0.0:
        t = -t
    x_next = _mod1(p.k1 * (1.0 + p.alpha * t))
    y_next = p.k2 * (math.cos(y) * (1.0 - x))
    return x_next, y_next


def clt_step(z: float, p: CltParams) -> float:
    """One application of the CLT recurrence to the state ``z``."""
    t = p.lam * z * (1.0 - z)
    if z < 0.5:
        s = p.alpha_c * z / 2.0
    else:
        s = p.alpha_c * (1.0 - z) / 2.0
    return _mod1(t + s)


def iterate_lshm(params: LshmParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Emit ``n`` post-transient values of each LSHM stream.

    Returns the x-stream and y-stream as float64 arrays of length ``n``.
    Every x value lies in [0, 1); y values are unbounded.

    The loop body is :func:`lshm_step` and :func:`_mod1` inlined with the
    same binary64 operations in the same order; tests pin the two
    bit-for-bit.
    """
    if not isinstance(params, LshmParams):
        raise ParameterError("params must be LshmParams")
    n = _checked_count(n)
    cos, pow_, abs_, pi = math.cos, math.pow, abs, math.pi
    k1, k2, alpha, beta = params.k1, params.k2, params.alpha, params.beta
    x, y = params.x0, params.y0
    xs, ys = array("d"), array("d")
    x_append, y_append = xs.append, ys.append
    for _ in range(TRANSIENT + n):
        c = cos(pi * x)
        t = pow_(abs_(c), beta)
        if c < 0.0:
            t = -t
        y = k2 * (cos(y) * (1.0 - x))
        x = k1 * (1.0 + alpha * t) % 1.0
        if x >= 1.0:
            x = 0.0
        x += 0.0
        x_append(x)
        y_append(y)
    return _emitted(xs), _emitted(ys)


def iterate_clt(params: CltParams, n: int) -> np.ndarray:
    """Emit ``n`` post-transient values of the CLT stream, all in [0, 1).

    The loop body is :func:`clt_step` and :func:`_mod1` inlined, pinned
    bit-for-bit to them by tests.
    """
    if not isinstance(params, CltParams):
        raise ParameterError("params must be CltParams")
    n = _checked_count(n)
    lam, alpha_c = params.lam, params.alpha_c
    z = params.z0
    zs = array("d")
    z_append = zs.append
    for _ in range(TRANSIENT + n):
        if z < 0.5:
            z = lam * z * (1.0 - z) + alpha_c * z / 2.0
        else:
            z = lam * z * (1.0 - z) + alpha_c * (1.0 - z) / 2.0
        z %= 1.0
        if z >= 1.0:
            z = 0.0
        z += 0.0
        z_append(z)
    return _emitted(zs)


def _emitted(values: array) -> np.ndarray:
    """Zero-copy float64 view of ``values`` past the transient prefix."""
    return np.frombuffer(values, dtype=np.float64)[TRANSIENT:]


def _checked_count(n: int) -> int:
    if n == 0:
        raise EmptyRequestError("at least one iteration must be requested")
    if not isinstance(n, int) or n < 0:
        raise ParameterError(f"iteration count must be a positive integer, got {n!r}")
    return n
