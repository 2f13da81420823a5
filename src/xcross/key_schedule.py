"""Derivation of every key artifact from the key material.

One `KeyMaterial` fans out into: two quantized extraction arrays (from the
LSHM streams), four bit-extraction keys (stable argsorts and their
inverses), the per-pixel operation-selection matrix and three S-boxes
(both from CLT streams).  All derivations are deterministic; the keys are
permutations and the S-boxes bijections by construction.

The ``build_*`` functions, :func:`round_half_away` and
:func:`_argsort_keys` are the definitions.  Where the compiled library of
:mod:`~xcross._native` runs, :func:`_quantized` is one C loop, and
:func:`_context_arrays` derives everything after the extraction arrays,
the keys, operation matrix and S-boxes, in one C call that holds no CLT
stream whole.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import _native
from .chaotic_maps import TRANSIENT, CltParams, LshmParams, iterate_clt, iterate_lshm
from .errors import DimensionError, KeyFormatError, ParameterError
from .permutation import _check_quarterable

#: Hard cap on M*N, mirrored by the image reader.
MAX_PIXELS = 2**24

#: Stream values the NumPy fallback of `_quantized` quantizes per pass, so
#: the float64 temporaries of `round_half_away` stay this size whatever the
#: image; the compiled quantizer needs none.  At 2**15 each temporary is
#: 256 KB; on a 2-core x86-64 host that quantized a 256² context's streams
#: in 0.75 of the time 2**16 took, and no size slower.
_QUANTIZE_CHUNK = 2**15

#: Operating ranges for key generation.  `keygen --random` draws uniformly
#: from these, and explicitly supplied values are validated against them;
#: they stay well inside the chaotic regime of both maps (the mathematical
#: domains accepted when *parsing* a key file are wider).
PARAM_RANGES: dict[str, tuple[float, float]] = {
    "lshm.x0": (0.05, 0.95),
    "lshm.y0": (0.05, 0.95),
    "lshm.k1": (3.6, 4.0),
    "lshm.k2": (3.1, 3.9),
    "lshm.alpha": (1.8, 2.6),
    "lshm.beta": (1.5, 2.5),
    "clt.z0": (0.02, 0.98),
    "clt.lambda": (3.55, 3.95),
    "clt.alpha": (2.05, 3.95),
    "sbox.seed1": (0.02, 0.98),
    "sbox.seed2": (0.02, 0.98),
    "sbox.seed3": (0.02, 0.98),
}

KEY_FIELDS = (*PARAM_RANGES, "version")

KEY_VERSION = "1"

#: A key file's number: an ASCII decimal literal, as `serialize_key`'s repr
#: writes one, with no underscores, nan or inf.
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


@dataclass(frozen=True)
class KeyMaterial:
    """Every secret the cipher derives its working keys from."""

    lshm: LshmParams
    clt: CltParams
    sbox_seeds: tuple[float, float, float]
    version: str = KEY_VERSION

    def __post_init__(self) -> None:
        # a tuple keeps the key hashable when the seeds come as a list
        object.__setattr__(self, "sbox_seeds", tuple(self.sbox_seeds))
        if len(self.sbox_seeds) != 3:
            raise ParameterError("exactly three sbox seeds are required")
        for i, s in enumerate(self.sbox_seeds, start=1):
            if not 0.0 < s < 1.0:
                raise ParameterError(f"sbox.seed{i} must lie in (0, 1), got {s!r}")
        if len(set(self.sbox_seeds)) != 3:
            raise ParameterError("sbox seeds must be pairwise distinct")
        if self.version != KEY_VERSION:
            raise ParameterError(f"unsupported key version {self.version!r}")


def _check_dims(m: int, n: int) -> None:
    if any(not isinstance(d, int) or isinstance(d, bool) for d in (m, n)):
        raise ParameterError(f"image dimensions must be Python ints, got {m!r}x{n!r}")
    _check_quarterable(m, n)
    if m * n > MAX_PIXELS:
        raise DimensionError(f"image of {m}x{n} exceeds the {MAX_PIXELS}-pixel cap")


def round_half_away(values: np.ndarray) -> np.ndarray:
    """Elementwise round-to-nearest with ties away from zero, as int64."""
    v = np.asarray(values, dtype=np.float64)
    # round |v| half up, then restore the sign; |v| - floor(|v|) is exact
    frac = np.abs(v)
    r = np.floor(frac)
    frac -= r
    r += frac >= 0.5
    return np.copysign(r, v, out=r).astype(np.int64)


def _quantized(stream: np.ndarray, scale: float, modulus: int) -> np.ndarray:
    """``round_half_away(stream * scale) mod modulus`` as uint8: by the C
    loop where it runs, else `_QUANTIZE_CHUNK` values at a time.  NaN,
    +-inf and values beyond int64 give byte 0 and code 1 in C; NumPy's
    cast gives them the platform's int64, the same one on x86-64."""
    out = _native._compiled_quantize(_native.trusted("cipher"), stream, scale, modulus)
    if out is not None:
        return out
    out = np.empty(stream.size, np.uint8)
    for start in range(0, stream.size, _QUANTIZE_CHUNK):
        q = round_half_away(stream[start:start + _QUANTIZE_CHUNK] * scale)
        if modulus != 256:  # the int64 -> uint8 cast below is mod 256
            q %= modulus
        np.copyto(out[start:start + q.size], q, casting="unsafe")
    return out


def build_extraction_arrays(key: KeyMaterial, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Quantize the two LSHM streams into byte-range extraction arrays.

    Each stream value v becomes round(v * 10^5) mod 256 (ties away from
    zero), returned as uint8 arrays.  The y stream can go negative; the
    mod is the mathematical one there too.  Array length is
    (m/2 * n/2) * 8: one entry per bit of one quadrant.
    """
    _check_dims(m, n)
    length = (m // 2) * (n // 2) * 8
    xs, ys = iterate_lshm(key.lshm, length)
    return _quantized(xs, 1e5, 256), _quantized(ys, 1e5, 256)


def build_extraction_keys(rea1: np.ndarray, rea2: np.ndarray) -> tuple[np.ndarray, ...]:
    """Turn the extraction arrays into four bit-permutation keys.

    key1/key2 are the stable ascending argsorts of rea1/rea2 (ties keep
    their original order); key3/key4 are their inverse permutations
    (key3[key1[i]] = i).  All four are int32 arrays: a context lives as
    long as its keys, and int32 halves them against intp (4 x 134 MB
    rather than 4 x 268 MB at the 4096^2 cap).  The compiled IBT gather
    reads int32 keys as they are; the NumPy fallback casts them per call.
    For a context, :func:`_context_arrays` builds the keys in one counting
    sort each where the compiled library runs.
    """
    rea1 = np.asarray(rea1)
    rea2 = np.asarray(rea2)
    if rea1.ndim != 1 or rea2.ndim != 1 or rea1.shape != rea2.shape:
        raise DimensionError(
            f"extraction arrays must be equal-length vectors, got {rea1.shape} and {rea2.shape}"
        )
    if rea1.size > 2**31:
        raise DimensionError(f"extraction arrays of {rea1.size} entries exceed int32 keys")
    (key1, key3), (key2, key4) = _argsort_keys(rea1), _argsort_keys(rea2)
    return key1, key2, key3, key4


def _argsort_keys(rea: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable ascending argsort of ``rea`` and its inverse, as int32."""
    key = np.argsort(rea, kind="stable").astype(np.int32)
    inv = np.empty_like(key)
    inv[key] = np.arange(key.size, dtype=np.int32)
    return key, inv


def build_operation_matrix(key: KeyMaterial, m: int, n: int) -> np.ndarray:
    """Quantize one CLT stream into the m x n matrix of codes in {0,1,2}.

    Each value z becomes round(z * 10^3) mod 3, filled row-major; one code
    per pixel of the target image.
    """
    _check_dims(m, n)
    zs = iterate_clt(key.clt, m * n)
    return _quantized(zs, 1e3, 3).reshape(m, n)


def sbox_from_stream(stream: np.ndarray) -> np.ndarray:
    """Stable ascending argsort of 256 values, as a uint8 substitution table.

    An argsort of 256 values is a permutation of 0..255, so the table is a
    bijection by construction.  A strictly increasing stream yields the
    identity box, a strictly decreasing one the reversal box; ties keep
    stream order.
    """
    stream = np.asarray(stream)
    if stream.shape != (256,):
        raise DimensionError(f"an S-box needs exactly 256 stream values, got {stream.shape}")
    return np.argsort(stream, kind="stable").astype(np.uint8)


def build_sboxes(key: KeyMaterial) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate the three S-boxes from the three seeds.

    Each seed replaces z0 in the key's CLT parameters and the 256-value
    stream becomes one table through :func:`sbox_from_stream`.  The seeds
    are pairwise distinct, as `KeyMaterial` enforces.
    """
    tables = []
    for seed in key.sbox_seeds:
        p = CltParams(lam=key.clt.lam, alpha_c=key.clt.alpha_c, z0=seed)
        tables.append(sbox_from_stream(iterate_clt(p, 256)))
    return tables[0], tables[1], tables[2]


def _context_arrays(key: KeyMaterial, rea1: np.ndarray, rea2: np.ndarray, m: int,
                    n: int) -> tuple[tuple[np.ndarray, ...], np.ndarray, tuple[np.ndarray, ...]]:
    """The four extraction keys of ``rea1`` and ``rea2``, the m x n
    operation matrix and the three S-boxes of ``key``: by one C call where
    the compiled library runs, else by :func:`build_operation_matrix`,
    :func:`build_sboxes` and then :func:`build_extraction_keys`, so that the
    CLT stream is freed before the keys exist."""
    arrays = _native._compiled_context(_native.trusted("cipher"), rea1, rea2, key.clt,
                                       key.sbox_seeds, m * n, TRANSIENT)
    if arrays is None:
        opmatrix, sboxes = build_operation_matrix(key, m, n), build_sboxes(key)
        return build_extraction_keys(rea1, rea2), opmatrix, sboxes
    keys, ops, sboxes = arrays
    return keys, ops.reshape(m, n), sboxes


# ---------------------------------------------------------------------------
# key file format: one `name = decimal-literal` line per field


def key_values(key: KeyMaterial) -> dict[str, float]:
    """Key-file field name -> value of every numeric field, in file order."""
    p, c = key.lshm, key.clt
    return {
        "lshm.x0": p.x0, "lshm.y0": p.y0, "lshm.k1": p.k1, "lshm.k2": p.k2,
        "lshm.alpha": p.alpha, "lshm.beta": p.beta,
        "clt.z0": c.z0, "clt.lambda": c.lam, "clt.alpha": c.alpha_c,
        "sbox.seed1": key.sbox_seeds[0],
        "sbox.seed2": key.sbox_seeds[1],
        "sbox.seed3": key.sbox_seeds[2],
    }


def key_from_values(values: dict[str, float]) -> KeyMaterial:
    """Inverse of :func:`key_values`: validated key material from field values."""
    lshm = LshmParams(
        x0=values["lshm.x0"], y0=values["lshm.y0"], k1=values["lshm.k1"],
        k2=values["lshm.k2"], alpha=values["lshm.alpha"], beta=values["lshm.beta"],
    )
    clt = CltParams(lam=values["clt.lambda"], alpha_c=values["clt.alpha"], z0=values["clt.z0"])
    seeds = (values["sbox.seed1"], values["sbox.seed2"], values["sbox.seed3"])
    return KeyMaterial(lshm=lshm, clt=clt, sbox_seeds=seeds)


def serialize_key(key: KeyMaterial) -> str:
    """Render key material in the line-oriented text format.

    Floats are written with repr, which round-trips binary64 exactly.
    """
    lines = [f"{name} = {value!r}" for name, value in key_values(key).items()]
    lines.append(f"version = {key.version}")
    return "\n".join(lines) + "\n"


def parse_key(text: str) -> KeyMaterial:
    """Parse the text format back into validated key material.

    Syntax problems (missing '=', unknown or duplicate names, unparseable
    numbers, bad version) raise KeyFormatError; values that parse but lie
    outside their mathematical domain raise ParameterError from the
    KeyMaterial/params constructors.
    """
    seen: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        name, eq, value = line.partition("=")
        if not eq:
            raise KeyFormatError(f"line {lineno}: expected 'name = value', got {raw!r}")
        name = name.strip()
        value = value.strip()
        if name not in KEY_FIELDS:
            raise KeyFormatError(f"line {lineno}: unknown field {name!r}")
        if name in seen:
            raise KeyFormatError(f"line {lineno}: duplicate field {name!r}")
        seen[name] = value
    missing = [f for f in KEY_FIELDS if f not in seen]
    if missing:
        raise KeyFormatError(f"missing fields: {', '.join(missing)}")
    if seen["version"] != KEY_VERSION:
        raise KeyFormatError(f"unsupported key version {seen['version']!r}")

    def num(name: str) -> float:
        value = seen[name]
        # float() alone would also take underscores, other scripts' digits,
        # nan and inf
        if _DECIMAL.fullmatch(value) is None:
            raise KeyFormatError(f"field {name}: {value!r} is not a decimal literal")
        return float(value)

    return key_from_values({name: num(name) for name in KEY_FIELDS[:-1]})


def random_key_material(rng) -> KeyMaterial:
    """Draw key material uniformly from the operating ranges.

    ``rng`` needs only ``uniform(lo, hi)``: a NumPy ``Generator`` or
    ``random.SystemRandom()`` (OS entropy) both fit.  The draw order is
    fixed: the three seeds (redrawn until distinct), then the LSHM
    fields, then ``clt.lambda``, ``clt.alpha`` and ``clt.z0``.
    """

    def draw(name: str) -> float:
        lo, hi = PARAM_RANGES[name]
        return float(rng.uniform(lo, hi))

    while True:
        values = {name: draw(name) for name in ("sbox.seed1", "sbox.seed2", "sbox.seed3")}
        if len(set(values.values())) == 3:
            break
    for name in ("lshm.x0", "lshm.y0", "lshm.k1", "lshm.k2", "lshm.alpha", "lshm.beta",
                 "clt.lambda", "clt.alpha", "clt.z0"):
        values[name] = draw(name)
    return key_from_values(values)


def reference_key() -> KeyMaterial:
    """The repository's fixed reference key (also shipped as assets/reference.key)."""
    return KeyMaterial(
        lshm=LshmParams(x0=0.3, y0=0.5, k1=3.9, k2=3.6, alpha=2.1, beta=2.0),
        clt=CltParams(lam=3.77, alpha_c=3.1, z0=0.37),
        sbox_seeds=(0.21, 0.52, 0.83),
    )
