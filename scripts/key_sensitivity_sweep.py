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

    python3 scripts/key_sensitivity_sweep.py [--size 64] [--seed 7]
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


def _perturbed(key: KeyMaterial, field: str, delta: float) -> KeyMaterial:
    values = key_values(key)
    values[field] += delta
    return key_from_values(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=64, help="image side length")
    parser.add_argument("--seed", type=int, default=7, help="plaintext noise seed")
    args = parser.parse_args(argv)

    key = reference_key()
    rng = np.random.default_rng(args.seed)
    plain = random_image(rng, (args.size, args.size))
    base = encrypt(plain, key)

    header = " ".join(f"{f'+{m:.0e}':>10}" for m in MAGNITUDES)
    print(f"ciphertext change fraction, {args.size}x{args.size} noise plaintext")
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
