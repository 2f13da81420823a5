"""Golden cipher vectors that no libm call feeds.

The ciphertext digests of ``tests/test_golden.py`` depend on the LSHM
streams, whose ``cos`` and ``pow`` a libm may round another way; on such a
host they all fail, and a bug in X-Cross, IBT or substitution would hide
behind those failures.  Here the extraction arrays are hashed bytes instead
of LSHM output, passed through `build_extraction_keys`, and the operation
matrix and S-boxes are the reference key's, which only the CLT's plain
arithmetic feeds.  The digests were the same under glibc's default x86-64
libm and under ``GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA``, which picks
its builds for CPUs without FMA and AVX2: CI runs this file under both.

Each plaintext is pinned after the cascade, after IBT and after
substitution, so a failure names its layer, and by the `report_csv` of its
ciphertext; each ciphertext must decrypt back to it.  Both paths are
pinned: the compiled library and the Python and NumPy definitions.
"""

from functools import cache

import pytest
from conftest import hashed_pixels, python_loops
from test_golden import PLAINTEXTS, sha256

from xcross.analysis import analyze, report_csv
from xcross.ibt import ibt_stage
from xcross.key_schedule import (
    build_extraction_keys,
    build_operation_matrix,
    build_sboxes,
    reference_key,
)
from xcross.permutation import merge_quadrants, permute_image, split_quadrants
from xcross.pipeline import CipherContext, decrypt_with_context, encrypt_with_context
from xcross.substitution import SubstitutionSuite

#: Plaintext name -> stage -> SHA-256 of its bytes.
DIGESTS = {
    "ramp8": {
        "cascade": "5217f4d9ec04f0dca0474433d5d831dcbceb427d87983cafe846f7411025a12e",
        "ibt": "5fbdbc686e2dbfd2bba1c0359ca7cd285fee07eff89c541a7527ca2b6d5bccbc",
        "substitution": "12c66b27509c503ed6df0f63d82ec4fada43bfdb6918bbbe152ceb347e9473c7",
        "report": "d954c2ebdb01a70aebd286adc1732dc6942afcb27f5495592643a2959a88940d",
    },
    "ramp64": {
        "cascade": "a38dd4e2fbbb5878e695be6db55f9cc1d8a43d10133d425df1e3abf589f4cfae",
        "ibt": "b8313a1aee9300dcfd74ca9cd47c7e2c4a347bffc5909ad5bccc06668fd9e300",
        "substitution": "44edd43e20ad06436079f18791f297c3c67e03d42a0adb9c189bb2112176e85a",
        "report": "de1587c388054b1ba8f7bcceba3cae4edaa237cd6a7cd1773c75da3af5644c4b",
    },
    "natural256": {
        "cascade": "7a200d7cc0e50c16f06feb13a48fa6cb696a177ad8625d6ed093ee2598ac132a",
        "ibt": "0b600170e43cd22bc984df5e8c75e52307f9a6f4ce0f498ac7849d346f0da47c",
        "substitution": "67abb5a5a9dae7cc06209ea61b40597a8b29ad05d23c30ebfa8dda6efd70f083",
        "report": "ff430973b0957bb1e425c29b48ee0e27b5689ea538b704cd4e4ac73a06a5a2cf",
    },
}

#: Each stage pinned; "decrypted" is the ciphertext decrypted, pinned to the
#: plaintext's own digest.
STAGES = ("cascade", "ibt", "substitution", "report", "decrypted")


def libm_free_context(m: int, n: int) -> CipherContext:
    """The reference key's context for m x n, with hashed bytes as the
    extraction arrays."""
    key = reference_key()
    rea1, rea2 = hashed_pixels(2, (m // 2) * (n // 2) * 8)
    return CipherContext(keys=build_extraction_keys(rea1, rea2),
                         opmatrix=build_operation_matrix(key, m, n),
                         suite=SubstitutionSuite(sboxes=build_sboxes(key)))


def stage_digests(name: str) -> dict[str, str]:
    """The SHA-256 of each stage's bytes for one plaintext."""
    plain = PLAINTEXTS[name]()
    ctx = libm_free_context(*plain.shape)
    cascade = permute_image(split_quadrants(plain))
    cipher = encrypt_with_context(plain, ctx)
    outputs = {
        "cascade": merge_quadrants(cascade).tobytes(),
        "ibt": merge_quadrants(ibt_stage(cascade, ctx.keys)).tobytes(),
        "substitution": cipher.tobytes(),
        "report": report_csv(analyze(cipher)).encode("ascii"),
        "decrypted": decrypt_with_context(cipher, ctx).tobytes(),
    }
    return {stage: sha256(data) for stage, data in outputs.items()}


@cache
def compiled_digests(name: str) -> dict[str, str]:
    return stage_digests(name)


@cache
def definitions_digests(name: str) -> dict[str, str]:
    with python_loops():
        return stage_digests(name)


def expected(name: str, stage: str) -> str:
    return sha256(PLAINTEXTS[name]().tobytes()) if stage == "decrypted" else DIGESTS[name][stage]


CASES = [(name, stage) for name in DIGESTS for stage in STAGES]
IDS = [f"{name}-{stage}" for name, stage in CASES]


@pytest.mark.parametrize(("name", "stage"), CASES, ids=IDS)
def test_compiled_stage_digest(compiled_library, name, stage):
    assert compiled_digests(name)[stage] == expected(name, stage)


@pytest.mark.parametrize(("name", "stage"), CASES, ids=IDS)
def test_definitions_stage_digest(name, stage):
    assert definitions_digests(name)[stage] == expected(name, stage)
