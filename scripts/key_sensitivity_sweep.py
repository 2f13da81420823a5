#!/usr/bin/env python3
"""Measure how each key scalar propagates into the ciphertext.

For every scalar in the key, perturb it by a range of magnitudes and
report the fraction of ciphertext pixels that change on a 64x64 noise
image.  This makes the key-space structure visible:

* x-side scalars (lshm.x0, k1, alpha, beta) avalanche from 1e-10 up;
* lshm.y0 never changes anything -- the y-recurrence is contracting, so
  the warm-up erases the seed;
* lshm.k2 only acts through a coarse quantizer, so perturbations below
  ~1e-6 are invisible; larger ones re-key just the two y-side bit
  permutations, which caps the change fraction near 50%;
* clt scalars and sbox seeds act through the operation matrix and
  S-boxes rather than the bit-permutation keys (one seed moves roughly
  the third of the pixels its S-box serves).

    python3 scripts/key_sensitivity_sweep.py
"""

from __future__ import annotations

import argparse

import numpy as np

from xcross.key_schedule import (
    PARAM_RANGES,
    KeyMaterial,
    key_from_values,
    key_values,
    reference_key,
)
from xcross.pipeline import encrypt
from xcross.sample_images import random_image

MAGNITUDES = (1e-10, 1e-6, 1e-3)

#: Side length of the noise plaintext, and the seed of its generator.
SIZE = 64
SEED = 7


def _perturbed(key: KeyMaterial, field: str, delta: float) -> KeyMaterial:
    values = key_values(key)
    values[field] += delta
    return key_from_values(values)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    key = reference_key()
    plain = random_image(np.random.default_rng(SEED), (SIZE, SIZE))
    base = encrypt(plain, key)

    header = " ".join(f"{f'+{m:.0e}':>10}" for m in MAGNITUDES)
    print(f"ciphertext change fraction, {SIZE}x{SIZE} noise plaintext")
    print(f"{'scalar':<12} {header}")
    print("-" * (13 + 11 * len(MAGNITUDES)))
    for field in PARAM_RANGES:
        cells = []
        for mag in MAGNITUDES:
            other = encrypt(plain, _perturbed(key, field, mag))
            cells.append(f"{float(np.mean(other != base)):>10.4f}")
        print(f"{field:<12} {' '.join(cells)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
