"""Golden report digests that no libm call feeds.

The digests of ``tests/test_golden.py`` pin the reference key's streams, so
a libm that rounds ``cos`` or ``pow`` another way fails them all, and a
statistics bug on such a host would hide behind those failures.  The
images here are built from integer arithmetic only, so no key stream feeds
them, and their digests were the same under glibc's default x86-64 libm
and under ``GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA``, which picks its
builds for CPUs without FMA and AVX2: CI runs this file under both.

Each image is pinned whole, with its columns reversed, and on every second
row, on both paths: the compiled statistics and their NumPy definitions.
"""

import hashlib

import numpy as np
import pytest
from conftest import hashed_pixels, python_loops

from xcross.analysis import analyze, report_csv

SHAPE = (97, 131)

#: Image name -> the image, each of SHAPE.
BASES = {
    "hashed": hashed_pixels(*SHAPE),
    # every level about equally often, neighbours one apart
    "ramp": (np.arange(SHAPE[0] * SHAPE[1]) % 256).astype(np.uint8).reshape(SHAPE),
    "two_level": np.where(hashed_pixels(*SHAPE) < 128, 0, 255).astype(np.uint8),
    # every flag set, zero sums and entropy +0.0
    "constant": np.full(SHAPE, 128, np.uint8),
}

#: View name -> the view of an image it takes.
VIEWS = {
    "whole": lambda img: img,
    "columns_reversed": lambda img: img[:, ::-1],
    "every_second_row": lambda img: img[::2],
}

#: "image/view" -> SHA-256 of report_csv(analyze(view of image)).
REPORT_DIGESTS = {
    "constant/columns_reversed": "1b660142e79c2b79b89b13ae45a34ebb458f5bce44516ed0c79727e44338421d",
    "constant/every_second_row": "635dab0a34f43102fd43bd6b8ffae605c2260bbfcce3347ce8a4eafb85f53b4a",
    "constant/whole": "1b660142e79c2b79b89b13ae45a34ebb458f5bce44516ed0c79727e44338421d",
    "hashed/columns_reversed": "468d9995196844376d7c44e35f9cf5ea8fd887a0fb3b67586087b9b15ee6ef55",
    "hashed/every_second_row": "ec4ebb8abef7f5fff69e6c309a2b7d5662da794c68d15ce66e50d9a189a4d1c5",
    "hashed/whole": "7a2945fb1064422284acd177771ac9109c0266271517aca6bd0ee5c54438c745",
    "ramp/columns_reversed": "759f92012bc7fa8b1df2f69069f31b440af111afd33fc6ce88553c89816bf152",
    "ramp/every_second_row": "247a6817cca8f3caab386fc61c95cd993a00ed10db43679860c20620c1044850",
    "ramp/whole": "3356d284968342f02234ffe5a7590ad7b8a03c00314a70e907cfc5d6c3215f78",
    "two_level/columns_reversed": "100f7cba73d50ded822fcba7597f424a1fb1e57214ee1565be8ee35940e0d9a5",
    "two_level/every_second_row": "ea6fd9695b21062680ac30cdc6ee66c435497966895f19a5a2f4f397f4e614d3",
    "two_level/whole": "1033bd4854472bfae31adeed15acd92dffbb998c3e6d8a69f44d7fd7b3ec39fc",
}


def report_digest(name):
    base, view = name.split("/")
    report = report_csv(analyze(VIEWS[view](BASES[base])))
    return hashlib.sha256(report.encode("ascii")).hexdigest()


def test_every_image_and_view_is_pinned():
    assert sorted(REPORT_DIGESTS) == sorted(f"{b}/{v}" for b in BASES for v in VIEWS)


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_compiled_report_digest(compiled_library, name):
    assert report_digest(name) == REPORT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_definitions_report_digest(name):
    with python_loops():
        assert report_digest(name) == REPORT_DIGESTS[name]
