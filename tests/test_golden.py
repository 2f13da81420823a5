"""Golden vectors: SHA-256 digests of everything the reference key derives.

The cipher's contract is bit-exact output: a ciphertext written today must
decrypt, and re-encrypt to the same bytes, with any later version.  Chaotic
maps turn a one-ulp change anywhere in key derivation into a completely
different key stream, yet every other test would still pass (round trips
hold for *any* self-consistent key).  These digests catch that.

Derived arrays are hashed at a fixed dtype (extraction arrays as uint8,
extraction keys as little-endian int64) so the digests pin values, not the
in-memory representation.  The derived artifacts are pinned on both loop
paths: the default one (the compiled library where it loads) and the
Python loops with the NumPy key sort, which otherwise run only where the
library does not load.  Should one of these ever need to change, that is a
new key version, not a refactor.
"""

import hashlib

import numpy as np
import pytest
from conftest import python_loops

from xcross.analysis import analyze, report_csv
from xcross.cli import main
from xcross.image_io import parse_pgm, write_pgm
from xcross.key_schedule import (
    build_extraction_arrays,
    build_extraction_keys,
    build_operation_matrix,
    build_sboxes,
    serialize_key,
)
from xcross.pipeline import encrypt
from xcross.sample_images import natural_test_image

#: Geometry the derived artifacts are pinned at.
ARTIFACT_SHAPE = (64, 64)

ARTIFACT_DIGESTS = {
    "rea1": "83bd52a8488b1c87a33baa6c760147da84c31329c7ebf90593e39f81bc7ec08d",
    "rea2": "df761347f115aa5f7f0f0e0b372bad646f222e57ad0ca4f1d0f71ae2ecddb2f3",
    "key1": "80bec3ae433b9b585b2c8dc9c208214770b904e345b5b2b097e0a47b1665e041",
    "key2": "75230d96ea59137719058eb0cd9631ae0ccde17f5686463431aa5e18084de201",
    "key3": "1640fe54eea89270b472b4381b392eaab2c90c7dff112aec08091cb3bdef416a",
    "key4": "e209521714c056c668036887d541d196f92344c1fa164bc9a2eae6e0c1fc0dd7",
    "opmatrix": "af97728ec1d7a7b858718eeb3d5bf9f083f78f44f69bb72473fe0811a8149ac8",
    "sbox1": "7d5bec1eab0b53a14372c5fc412cd36809a4c5445a9c2767a1f3f9b9c584869c",
    "sbox2": "6aeff919063b1cc264a4a5166d0c74b09cd6744894a631b3e25af6aa8ec7a725",
    "sbox3": "84acb1da638553aacdd057d32fe559f82b13e5a96812ac220d50dd919dadf63a",
}

#: Plaintext generator name -> (plaintext digest, ciphertext digest).
CIPHERTEXT_DIGESTS = {
    "ramp8": (
        "94eb5de4943613fd048dc93393ab06877405faa39c11f53e9386083339833e7e",
        "7975c32bcf0ad3566be013971be7b7a3f287c088d31b9b51848dea76704f7059",
    ),
    "ramp64": (
        "4e441a3533bb2c10cd5649981d395744213e09a336746b5a3458fee4057205ec",
        "20db20f4fb850abc3c88b2126bd1c1482f56138460a659fa023ff876585fd75a",
    ),
    "natural256": (
        "12824cddd340c839c89c13c375f97dec682f98c76e2394d33967a5066646f389",
        "83ead8281bf7a67042d0973009ea0c8cba151c1ea713c705ee105848a9267354",
    ),
}

#: Digest of the `xcross encrypt --pad` output file for the 13x10 ramp.
PADDED_CLI_DIGEST = "056b8a4b3f9a52962245db51c91d13ac8fff60367b8751cdaa2fd24a437ff37e"


#: Digests of `report_csv(analyze(...))`: the reference key's 256²
#: `natural_test_image` ciphertext, and a constant 8x8 image (every flag set,
#: and `entropy,0.0`: a single level has entropy +0.0, never -0.0).
REPORT_DIGESTS = {
    "natural256": "8b98883f20d47e5f37f0b718a90af169e36638a9c07c44b1acf94fd44628d4af",
    "constant8": "7abe140665d4f19c089ebe0e7d4b9a9c1f17d9267bb1b77cec33fe56bcf9eeb3",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def ramp(rows: int, cols: int) -> np.ndarray:
    """Pure-arithmetic plaintext, independent of any RNG implementation."""
    return ((np.arange(rows * cols) * 37 + 11) % 256).astype(np.uint8).reshape(rows, cols)


PLAINTEXTS = {
    "ramp8": lambda: ramp(8, 8),
    "ramp64": lambda: ramp(64, 64),
    "natural256": lambda: natural_test_image(256),
}


def derived_artifacts(key) -> dict[str, bytes]:
    rea1, rea2 = build_extraction_arrays(key, *ARTIFACT_SHAPE)
    keys = build_extraction_keys(rea1, rea2)
    out = {
        "rea1": np.asarray(rea1).astype(np.uint8).tobytes(),
        "rea2": np.asarray(rea2).astype(np.uint8).tobytes(),
        "opmatrix": build_operation_matrix(key, *ARTIFACT_SHAPE).astype(np.uint8).tobytes(),
    }
    for i, k in enumerate(keys, start=1):
        out[f"key{i}"] = np.asarray(k).astype("<i8").tobytes()
    for i, box in enumerate(build_sboxes(key), start=1):
        out[f"sbox{i}"] = np.asarray(box).astype(np.uint8).tobytes()
    return out


@pytest.fixture(scope="module")
def artifacts(ref_key):
    return derived_artifacts(ref_key)


@pytest.fixture(scope="module")
def python_loop_artifacts(ref_key):
    with python_loops():
        return derived_artifacts(ref_key)


@pytest.mark.parametrize("name", sorted(ARTIFACT_DIGESTS))
def test_reference_key_artifact_digest(artifacts, name):
    assert sha256(artifacts[name]) == ARTIFACT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ARTIFACT_DIGESTS))
def test_python_loop_artifact_digest(python_loop_artifacts, name):
    assert sha256(python_loop_artifacts[name]) == ARTIFACT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CIPHERTEXT_DIGESTS))
def test_reference_key_ciphertext_digest(ref_key, name):
    plain_digest, cipher_digest = CIPHERTEXT_DIGESTS[name]
    img = PLAINTEXTS[name]()
    assert sha256(img.tobytes()) == plain_digest, "plaintext generator changed"
    assert sha256(encrypt(img, ref_key).tobytes()) == cipher_digest


def test_padded_cli_ciphertext_digest(ref_key, tmp_path):
    key = tmp_path / "ref.key"
    key.write_text(serialize_key(ref_key), encoding="ascii")
    plain = ramp(10, 13)
    src, enc, dec = tmp_path / "p.pgm", tmp_path / "c.pgm", tmp_path / "d.pgm"
    src.write_bytes(write_pgm(plain))
    assert main(["encrypt", "--in", str(src), "--out", str(enc), "--key", str(key), "--pad"]) == 0
    assert sha256(enc.read_bytes()) == PADDED_CLI_DIGEST
    assert main(["decrypt", "--in", str(enc), "--out", str(dec), "--key", str(key)]) == 0
    assert np.array_equal(parse_pgm(dec.read_bytes())[1], plain)


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_csv_digest(ref_key, name):
    if name == "natural256":
        img = encrypt(natural_test_image(256), ref_key)
    else:
        img = np.full((8, 8), 77, dtype=np.uint8)
    assert sha256(report_csv(analyze(img)).encode("ascii")) == REPORT_DIGESTS[name]
