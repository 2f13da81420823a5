"""Command-line front end: keygen | encrypt | decrypt | analyze.

Exit codes are fixed so scripts can branch on the failure class:

    0  success
    1  usage error (bad flags, missing subcommand)
    2  I/O error (missing file, unwritable output)
    3  format error (malformed PGM or key file)
    4  domain error (out-of-range parameter, bad dimensions)

Output files are written to a temp name and renamed into place, so a
failing command never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

import numpy as np

from .analysis import analyze, report_csv, report_text
from .errors import (
    DimensionError,
    KeyFormatError,
    ParameterError,
    PgmError,
    XCrossError,
)
from .image_io import original_size_note, parse_pgm, write_pgm
from .key_schedule import (
    PARAM_RANGES,
    KeyMaterial,
    key_from_values,
    key_values,
    parse_key,
    random_key_material,
    serialize_key,
)
from .pipeline import decrypt, encrypt

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_FORMAT = 3
EXIT_DOMAIN = 4

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; the documented
    # contract reserves 2 for I/O, so route usage failures through our own
    # exception and report them as exit 1
    def error(self, message):
        raise _UsageError(message)


def _want_color() -> bool:
    if os.environ.get("XCROSS_NO_COLOR"):
        return False
    return hasattr(sys.stderr, "isatty") and sys.stderr.isatty()


def _diag(message: str) -> None:
    line = f"xcross: error: {message}"
    if _want_color():
        line = f"\x1b[31m{line}\x1b[0m"
    print(line, file=sys.stderr)


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load_key(path: str) -> KeyMaterial:
    with open(path, "r", encoding="ascii") as fh:
        return parse_key(fh.read())


def _load_image(path: str):
    with open(path, "rb") as fh:
        return parse_pgm(fh.read())


def _pad_to_block(img: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    h, w = img.shape
    th = max(4, ((h + 3) // 4) * 4)
    tw = max(4, ((w + 3) // 4) * 4)
    return np.pad(img, ((0, th - h), (0, tw - w))), (w, h)


def cmd_keygen(args) -> int:
    # one --lshm-x0 style flag per key-file field; argparse stores it as lshm_x0
    given: dict[str, float] = {}
    for field, (lo, hi) in PARAM_RANGES.items():
        value = getattr(args, field.replace(".", "_"))
        if value is None:
            continue
        if not (lo <= value <= hi):
            raise ParameterError(
                f"{field} = {value!r} outside the valid range [{lo}, {hi}]"
            )
        given[field] = value
    missing = [f for f in PARAM_RANGES if f not in given]
    if missing and not args.random:
        raise _UsageError(f"missing {', '.join(missing)}; pass values or use --random")
    drawn = key_values(random_key_material(random.SystemRandom())) if missing else {}
    key = key_from_values({**drawn, **given})
    _atomic_write(args.out, serialize_key(key).encode("ascii"))
    return EXIT_OK


def cmd_encrypt(args) -> int:
    key = _load_key(args.key)
    _, img = _load_image(getattr(args, "in"))
    pad_note = None
    if img.shape[0] % 4 or img.shape[1] % 4:
        if not getattr(args, "pad", False):
            raise DimensionError(
                f"image is {img.shape[1]}x{img.shape[0]}; dimensions must be "
                "multiples of 4 (re-run with --pad to zero-pad)"
            )
        img, pad_note = _pad_to_block(img)
    cipher = encrypt(img, key)
    _atomic_write(args.out, write_pgm(cipher, pad_note=pad_note))
    return EXIT_OK


def cmd_decrypt(args) -> int:
    key = _load_key(args.key)
    header, img = _load_image(getattr(args, "in"))
    plain = decrypt(img, key)
    note = original_size_note(header.comments)
    if note is not None:
        ow, oh = note
        if ow > plain.shape[1] or oh > plain.shape[0]:
            raise DimensionError(
                f"orig-size note {ow}x{oh} larger than the image itself"
            )
        plain = plain[:oh, :ow]
    _atomic_write(args.out, write_pgm(plain))
    return EXIT_OK


def cmd_analyze(args) -> int:
    _, img = _load_image(getattr(args, "in"))
    report = analyze(img)
    rendered = report_csv(report) if args.format == "csv" else report_text(report)
    if args.out:
        _atomic_write(args.out, rendered.encode("ascii"))
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="xcross", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_key = sub.add_parser("keygen", help="create a key file", prog="xcross keygen")
    p_key.add_argument("--out", required=True, help="key file to write")
    p_key.add_argument(
        "--random",
        action="store_true",
        help="draw unspecified parameters from OS entropy",
    )
    for field, (lo, hi) in PARAM_RANGES.items():
        p_key.add_argument(
            f"--{field.replace('.', '-')}",
            type=float,
            default=None,
            metavar="X",
            help=f"{field} in [{lo}, {hi}]",
        )
    p_key.set_defaults(handler=cmd_keygen)

    for name, handler in (("encrypt", cmd_encrypt), ("decrypt", cmd_decrypt)):
        p = sub.add_parser(name, help=f"{name} a PGM image", prog=f"xcross {name}")
        p.add_argument("--in", required=True, help="input PGM", metavar="PGM")
        p.add_argument("--out", required=True, help="output PGM", metavar="PGM")
        p.add_argument("--key", required=True, help="key file", metavar="KEY")
        if name == "encrypt":
            p.add_argument(
                "--pad",
                action="store_true",
                help="zero-pad to the next multiple-of-4 size, recording the "
                "original size in a header comment",
            )
        p.set_defaults(handler=handler)

    p_an = sub.add_parser(
        "analyze", help="statistical report for a PGM image", prog="xcross analyze"
    )
    p_an.add_argument("--in", required=True, help="input PGM", metavar="PGM")
    p_an.add_argument(
        "--format", choices=("csv", "text"), default="text", help="report format"
    )
    p_an.add_argument("--out", default=None, help="write report here instead of stdout")
    p_an.set_defaults(handler=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _diag(str(exc))
        return EXIT_USAGE
    if getattr(args, "handler", None) is None:
        _diag("a subcommand is required: keygen | encrypt | decrypt | analyze")
        return EXIT_USAGE
    try:
        return args.handler(args)
    except _UsageError as exc:
        _diag(str(exc))
        return EXIT_USAGE
    except (PgmError, KeyFormatError) as exc:
        _diag(str(exc))
        return EXIT_FORMAT
    except XCrossError as exc:  # ParameterError, DimensionError and the rest
        _diag(str(exc))
        return EXIT_DOMAIN
    except OSError as exc:
        _diag(str(exc))
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
