#!/usr/bin/env python3
"""Reproduce the headline security table on the frozen test image.

Encrypts the bundled 256x256 texture with the reference key and prints
plaintext-vs-ciphertext rows for every metric the analysis suite knows.
``xcross encrypt`` and ``xcross analyze --format csv --out`` write the
images and the raw CSV reports of any other key.

    python3 scripts/reproduce_security_report.py
"""

from __future__ import annotations

import argparse
import sys

from xcross.analysis import analyze
from xcross.key_schedule import reference_key
from xcross.pipeline import decrypt, encrypt
from xcross.sample_images import natural_test_image

_ROWS = (
    ("entropy (bits/pixel)", "entropy", "{:.4f}"),
    ("correlation, horizontal", "corr_h", "{:+.6f}"),
    ("correlation, vertical", "corr_v", "{:+.6f}"),
    ("correlation, diagonal", "corr_d", "{:+.6f}"),
    ("GLCM contrast", "glcm_contrast", "{:.3f}"),
    ("GLCM energy", "glcm_energy", "{:.6f}"),
    ("GLCM homogeneity", "glcm_homogeneity", "{:.5f}"),
    ("histogram chi-square", "chi_square", "{:.2f}"),
)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    key = reference_key()
    plain = natural_test_image()
    cipher = encrypt(plain, key)
    if not (decrypt(cipher, key) == plain).all():
        print("round-trip failed; refusing to report", file=sys.stderr)
        return 1

    before = analyze(plain)
    after = analyze(cipher)

    print("256x256 frozen texture, encrypted with reference key")
    print(f"{'metric':<26} {'plaintext':>14} {'ciphertext':>14}")
    print("-" * 56)
    for label, attr, fmt in _ROWS:
        a = fmt.format(getattr(before, attr))
        b = fmt.format(getattr(after, attr))
        print(f"{label:<26} {a:>14} {b:>14}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
