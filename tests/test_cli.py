"""End-to-end command tests: exit codes, file contracts, diagnostics."""

import os
import subprocess
import sys

import numpy as np
import pytest

from xcross.analysis import analyze, report_text
from xcross.cli import main
from xcross.image_io import parse_pgm, write_pgm
from xcross.key_schedule import (
    KEY_FIELDS,
    parse_key,
    reference_key,
    serialize_key,
)

FULL_KEYGEN_ARGS = [
    "--lshm-x0", "0.3", "--lshm-y0", "0.5",
    "--lshm-k1", "3.9", "--lshm-k2", "3.6",
    "--lshm-alpha", "2.1", "--lshm-beta", "2.0",
    "--clt-z0", "0.37", "--clt-lambda", "3.77", "--clt-alpha", "3.1",
    "--sbox-seed1", "0.21", "--sbox-seed2", "0.52", "--sbox-seed3", "0.83",
]


@pytest.fixture()
def key_file(tmp_path):
    path = tmp_path / "ref.key"
    path.write_text(serialize_key(reference_key()), encoding="ascii")
    return str(path)


@pytest.fixture()
def image_file(tmp_path):
    rng = np.random.default_rng(31)
    img = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
    path = tmp_path / "plain.pgm"
    path.write_bytes(write_pgm(img))
    return str(path), img


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["rot13"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["keygen"]) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "keygen" in capsys.readouterr().out


class TestKeygen:
    def test_random_key_parses_back(self, tmp_path):
        out = tmp_path / "k.key"
        assert main(["keygen", "--out", str(out), "--random"]) == 0
        key = parse_key(out.read_text(encoding="ascii"))
        assert key.version == "1"

    def test_explicit_values_round_trip(self, tmp_path):
        out = tmp_path / "k.key"
        assert main(["keygen", "--out", str(out), *FULL_KEYGEN_ARGS]) == 0
        key = parse_key(out.read_text(encoding="ascii"))
        assert key == reference_key()

    def test_file_field_order(self, tmp_path):
        out = tmp_path / "k.key"
        main(["keygen", "--out", str(out), "--random"])
        names = [
            line.split("=")[0].strip()
            for line in out.read_text(encoding="ascii").splitlines()
            if line.strip()
        ]
        assert tuple(names) == KEY_FIELDS

    def test_out_of_range_value_names_the_field(self, tmp_path, capsys):
        out = tmp_path / "k.key"
        code = main(["keygen", "--out", str(out), "--random", "--lshm-k1", "99"])
        assert code == 4
        assert "lshm.k1" in capsys.readouterr().err
        assert not out.exists()

    def test_range_check_runs_before_missing_field_check(self, tmp_path, capsys):
        # even without --random, a bad explicit value is the reported error
        out = tmp_path / "k.key"
        code = main(["keygen", "--out", str(out), "--lshm-k1", "99"])
        assert code == 4
        assert "lshm.k1" in capsys.readouterr().err

    def test_partial_values_without_random(self, tmp_path, capsys):
        out = tmp_path / "k.key"
        code = main(["keygen", "--out", str(out), "--lshm-k1", "3.9"])
        assert code == 1
        assert "--random" in capsys.readouterr().err

    def test_random_fills_only_missing(self, tmp_path):
        out = tmp_path / "k.key"
        assert (
            main(["keygen", "--out", str(out), "--random", "--lshm-k1", "3.9"]) == 0
        )
        key = parse_key(out.read_text(encoding="ascii"))
        assert key.lshm.k1 == 3.9

    def test_equal_explicit_seeds_with_random(self, tmp_path, capsys):
        out = tmp_path / "k.key"
        code = main(["keygen", "--out", str(out), "--random",
                     "--sbox-seed1", "0.5", "--sbox-seed2", "0.5"])
        assert code == 4
        assert "distinct" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output(self, tmp_path):
        out = tmp_path / "nodir" / "k.key"
        assert main(["keygen", "--out", str(out), "--random"]) == 2


class TestEncryptDecrypt:
    def test_round_trip_is_byte_identical(self, tmp_path, key_file, image_file):
        plain_path, img = image_file
        cipher_path = str(tmp_path / "c.pgm")
        back_path = str(tmp_path / "p.pgm")
        assert main(["encrypt", "--in", plain_path, "--out", cipher_path,
                     "--key", key_file]) == 0
        cipher = parse_pgm((tmp_path / "c.pgm").read_bytes())[1]
        assert cipher.shape == img.shape
        assert not np.array_equal(cipher, img)
        assert main(["decrypt", "--in", cipher_path, "--out", back_path,
                     "--key", key_file]) == 0
        assert (tmp_path / "p.pgm").read_bytes() == (
            tmp_path / "plain.pgm"
        ).read_bytes()

    def test_missing_input_file(self, tmp_path, key_file, capsys):
        code = main(["encrypt", "--in", str(tmp_path / "nope.pgm"),
                     "--out", str(tmp_path / "c.pgm"), "--key", key_file])
        assert code == 2
        assert "xcross: error:" in capsys.readouterr().err

    def test_missing_key_file(self, tmp_path, image_file):
        plain_path, _ = image_file
        assert main(["encrypt", "--in", plain_path,
                     "--out", str(tmp_path / "c.pgm"),
                     "--key", str(tmp_path / "nope.key")]) == 2

    def test_corrupt_key_file(self, tmp_path, image_file):
        plain_path, _ = image_file
        bad = tmp_path / "bad.key"
        bad.write_text("lshm.x0 = what\n", encoding="ascii")
        out = tmp_path / "c.pgm"
        assert main(["encrypt", "--in", plain_path, "--out", str(out),
                     "--key", str(bad)]) == 3
        assert not out.exists()

    def test_non_ascii_key_file(self, tmp_path, image_file, capsys):
        plain_path, _ = image_file
        bad = tmp_path / "bad.key"
        bad.write_bytes(b"lshm.x0 = 0.3\xff\n")
        out = tmp_path / "c.pgm"
        assert main(["encrypt", "--in", plain_path, "--out", str(out),
                     "--key", str(bad)]) == 3
        assert "byte 13 is 0xff, not ASCII" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_orig_size_note_is_a_dimension_error(self, tmp_path, key_file, image_file,
                                                      capsys):
        # int() refuses the note's 4400 digits; the side fits no image
        plain_path, _ = image_file
        cipher = tmp_path / "c.pgm"
        assert main(["encrypt", "--in", plain_path, "--out", str(cipher), "--key", key_file]) == 0
        raw = cipher.read_bytes()
        cipher.write_bytes(raw[:3] + b"# orig-size %s 4\n" % (b"7" * 4400) + raw[3:])
        out = tmp_path / "p.pgm"
        code = main(["decrypt", "--in", str(cipher), "--out", str(out), "--key", key_file])
        assert code == 4
        assert "larger than the image itself" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_nan_or_inf_key_value_is_a_format_error(self, tmp_path, image_file, value):
        plain_path, _ = image_file
        bad = tmp_path / "bad.key"
        bad.write_text(serialize_key(reference_key()).replace("lshm.y0 = 0.5", f"lshm.y0 = {value}"),
                       encoding="ascii")
        assert f"lshm.y0 = {value}" in bad.read_text()
        assert main(["encrypt", "--in", plain_path, "--out", str(tmp_path / "c.pgm"),
                     "--key", str(bad)]) == 3

    def test_corrupt_image(self, tmp_path, key_file):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        assert main(["encrypt", "--in", str(bad),
                     "--out", str(tmp_path / "c.pgm"), "--key", key_file]) == 3

    def test_unpadded_dimensions_rejected(self, tmp_path, key_file, capsys):
        odd = tmp_path / "odd.pgm"
        odd.write_bytes(write_pgm(np.zeros((250, 250), dtype=np.uint8)))
        code = main(["encrypt", "--in", str(odd),
                     "--out", str(tmp_path / "c.pgm"), "--key", key_file])
        assert code == 4
        assert "--pad" in capsys.readouterr().err

    def test_pad_and_crop_trace(self, tmp_path, key_file):
        rng = np.random.default_rng(32)
        img = rng.integers(0, 256, size=(250, 250), dtype=np.uint8)
        plain = tmp_path / "plain.pgm"
        plain.write_bytes(write_pgm(img))
        cipher_path = str(tmp_path / "c.pgm")
        assert main(["encrypt", "--in", str(plain), "--out", cipher_path,
                     "--key", key_file, "--pad"]) == 0
        comments, cipher = parse_pgm((tmp_path / "c.pgm").read_bytes())
        assert cipher.shape == (252, 252)
        assert "orig-size 250 250" in comments
        back_path = str(tmp_path / "p.pgm")
        assert main(["decrypt", "--in", cipher_path, "--out", back_path,
                     "--key", key_file]) == 0
        assert (tmp_path / "p.pgm").read_bytes() == plain.read_bytes()

    def test_pad_flag_without_need_changes_nothing(self, tmp_path, key_file,
                                                   image_file):
        plain_path, _ = image_file
        a, b = str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")
        main(["encrypt", "--in", plain_path, "--out", a, "--key", key_file])
        main(["encrypt", "--in", plain_path, "--out", b, "--key", key_file,
              "--pad"])
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


class TestAnalyze:
    def test_constant_image_text_report(self, tmp_path, capsys):
        flat = tmp_path / "flat.pgm"
        flat.write_bytes(write_pgm(np.zeros((16, 16), dtype=np.uint8)))
        assert main(["analyze", "--in", str(flat)]) == 0
        out = capsys.readouterr().out
        assert "entropy" in out
        assert "0.000000 bits/pixel" in out

    def test_csv_format_contract(self, tmp_path, capsys):
        flat = tmp_path / "flat.pgm"
        flat.write_bytes(write_pgm(np.zeros((16, 16), dtype=np.uint8)))
        assert main(["analyze", "--in", str(flat), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "metric,value"
        rows = dict(ln.split(",", 1) for ln in lines[1:])
        assert float(rows["entropy"]) == 0.0

    def test_report_to_file_is_deterministic(self, tmp_path, image_file):
        plain_path, _ = image_file
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for target in (r1, r2):
            assert main(["analyze", "--in", plain_path, "--format", "csv",
                         "--out", str(target)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    @pytest.mark.parametrize("header", [
        pytest.param(b"P5\n%s 4\n255\n" % (b"9" * 5000), id="width"),
        pytest.param(b"P5\n4 4\n%s\n" % (b"9" * 5000), id="maxval"),
    ])
    def test_huge_header_number_is_a_format_error(self, tmp_path, capsys, header):
        # int() refuses more than 4300 digits: no traceback, exit 3
        bad = tmp_path / "huge.pgm"
        bad.write_bytes(header + bytes(16))
        assert main(["analyze", "--in", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("xcross: error:") and err.count("\n") == 1

    def test_bad_format_value(self, tmp_path, image_file):
        plain_path, _ = image_file
        assert main(["analyze", "--in", plain_path, "--format", "json"]) == 1


class TestDiagnostics:
    def test_one_line_prefixed_stderr(self, tmp_path, capsys):
        main(["analyze", "--in", str(tmp_path / "nope.pgm")])
        err = capsys.readouterr().err
        assert err.startswith("xcross: error:")
        assert err.count("\n") == 1
        assert "\x1b" not in err


class TestModuleEntryPoint:
    """``python -m xcross``, the way a shell runs the commands."""

    @pytest.mark.parametrize("name, code", [("plain.pgm", 0), ("nope.pgm", 2)],
                             ids=["report", "missing_input"])
    def test_analyze(self, image_file, name, code):
        path, img = image_file
        path = os.path.join(os.path.dirname(path), name)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-m", "xcross", "analyze", "--in", path], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code
        if code:
            assert proc.stdout == ""
            assert proc.stderr.startswith("xcross: error:") and proc.stderr.count("\n") == 1
        else:
            assert (proc.stdout, proc.stderr) == (report_text(analyze(img)), "")
