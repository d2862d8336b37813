"""Command-line interface: formats, round trips and exit codes."""

import gzip
import json
import os
import pathlib
import re
import struct
import subprocess
import sys

import pytest

from singbgg import CartanType, cli, weyl
from singbgg.cli import main
from singbgg.errors import BudgetError

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_nonkostant_text(capsys):
    code, out, _ = run(capsys, "nonkostant", "--type", "A", "--rank", "3",
                       "--singular", "2")
    assert code == 0
    assert out == "(2)\n"


def test_nonkostant_empty(capsys):
    code, out, _ = run(capsys, "nonkostant", "--type", "A", "--rank", "2",
                       "--singular", "1")
    assert code == 0
    assert out == ""


def test_nonkostant_json_round_trip(capsys):
    code, out, _ = run(capsys, "nonkostant", "-t", "B", "-r", "3",
                       "-s", "1,2", "-f", "json")
    assert code == 0
    data = json.loads(out)
    assert data["cartan"] == "B" and data["rank"] == 3
    assert data["singular"] == [1, 2]
    bad = [r["w"] for r in data["results"] if not r["kostant"]]
    assert sorted(bad) == [[1, 2, 1], [1, 3, 2, 1]]


def test_klpoly(capsys):
    code, out, _ = run(capsys, "klpoly", "-t", "B", "-r", "3",
                       "--y", "3,2,3,2", "--w", "2,3,2,1,2,3,2")
    assert code == 0
    assert out.strip() == "1+q"


def test_klpoly_compact_words(capsys):
    code, out, _ = run(capsys, "klpoly", "-t", "B", "-r", "3",
                       "--y", "3232", "--w", "2321232", "-f", "json")
    assert code == 0
    assert json.loads(out)["coeffs"] == [1, 1]


def test_klv_and_mobius(capsys):
    code, out, _ = run(capsys, "klv", "-t", "B", "-r", "3", "-s", "2,3",
                       "--w", "3232", "--x", "13232")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run(capsys, "mobius", "-t", "B", "-r", "3", "-s", "2,3",
                       "--w", "3232", "--x", "13232")
    assert code == 0
    assert out.strip() == "-1"


def test_kostant_and_scat(capsys):
    code, out, _ = run(capsys, "kostant", "-t", "B", "-r", "3", "-s", "2,3",
                       "--w", "3232")
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, "kostant", "-t", "A", "-r", "3", "-s", "2",
                       "--w", "2")
    assert (code, out.strip()) == (0, "false")
    code, out, _ = run(capsys, "scat", "-t", "A", "-r", "3", "-s", "2",
                       "--w", "2")
    assert (code, out.strip()) == (0, "false")


def test_blocks(capsys):
    code, out, _ = run(capsys, "blocks", "-t", "B", "-r", "3", "-s", "2,3")
    assert code == 0
    assert "|W_lambda| = 8" in out and "cosets = 6" in out


def test_complex_dot(capsys):
    code, out, _ = run(capsys, "complex", "-t", "A", "-r", "3", "-s", "2",
                       "--w", "12", "--stage", "translated", "-f", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.rstrip().endswith("}")
    assert out.count("dir=none") == 3
    assert out.count("peripheries=2") == 6
    assert out.count("style=bold") == 9
    assert len(re.findall(r'(?m)^  "\w+" \[', out)) == 12
    # crude grammar check: every non-brace line is a node or an edge statement
    for line in out.strip().splitlines()[1:-1]:
        assert re.match(r'^  "\w+"( -> "\w+")?( \[[^\]]*\])?;$', line), line


def test_complex_json(capsys):
    code, out, _ = run(capsys, "complex", "-t", "B", "-r", "3", "-s", "2,3",
                       "--w", "3232", "-f", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "singular"
    assert data["vertices"] == [{"word": [2, 3, 2, 3], "degree": 0},
                                {"word": [1, 2, 3, 2, 3], "degree": 1}]
    assert len(data["edges"]) == 1
    assert data["edges"][0]["kind"] == "morphism"
    assert data["edges"][0]["sign"] is None


def test_complex_signs(capsys):
    code, out, _ = run(capsys, "complex", "-t", "A", "-r", "2", "--w", "e",
                       "--stage", "regular", "--signs", "-f", "json")
    assert code == 0
    data = json.loads(out)
    assert all(e["sign"] in (1, -1) for e in data["edges"])


def test_bad_input_exit_2(capsys):
    code, _, err = run(capsys, "nonkostant", "-t", "Q", "-r", "3")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "klpoly", "-t", "A", "-r", "3",
                       "--y", "xyz", "--w", "12")
    assert code == 2
    code, _, err = run(capsys, "nonkostant", "-t", "A", "-r", "3",
                       "-s", "9")
    assert code == 2


def test_budget_exit_3(capsys):
    code, _, err = run(capsys, "nonkostant", "-t", "E", "-r", "6")
    assert code == 3
    assert "budget" in err.lower()


def test_budget_checked_before_building(capsys):
    # 2001! has more digits than int -> str converts by default.
    code, out, err = run(capsys, "blocks", "-t", "A", "-r", "2000")
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "Traceback" not in err
    assert not any(key[:2] == ("A", 2000) for key in weyl._GROUP_CACHE)


def test_budget_decided_without_group_order(capsys, monkeypatch):
    # |W| >= 2^rank, so A10^6 is over any budget below 2^(10^6) without the
    # factorial behind group_order (seconds at this rank)
    def no_order(self):
        raise AssertionError("group_order evaluated")
    monkeypatch.setattr(CartanType, "group_order", property(no_order))
    with pytest.raises(BudgetError, match=r"at least 2\^1000000 elements"):
        weyl.check_budget(CartanType("A", 10**6))
    code, out, err = run(capsys, "blocks", "-t", "A", "-r", str(10**6))
    assert (code, out) == (3, "")
    assert err.startswith("error:") and len(err) < 200


def test_cache_flag(tmp_path, capsys):
    cache = tmp_path / "a3.klv"
    code, out1, _ = run(capsys, "nonkostant", "-t", "A", "-r", "3",
                        "-s", "2", "--cache", str(cache))
    assert code == 0 and cache.exists()
    code, out2, _ = run(capsys, "nonkostant", "-t", "A", "-r", "3",
                        "-s", "2", "--cache", str(cache))
    assert code == 0 and out1 == out2


def test_cache_in_missing_directory_still_answers(tmp_path, capsys):
    cache = tmp_path / "missing" / "a3.klv"
    code, out, err = run(capsys, "nonkostant", "-t", "A", "-r", "3",
                         "-s", "2", "--cache", str(cache))
    assert (code, out) == (0, "(2)\n")
    assert "warning" in err and not cache.exists()


def test_corrupt_cache_exit_2(tmp_path, capsys):
    cache = tmp_path / "a3.klv"
    run(capsys, "nonkostant", "-t", "A", "-r", "3", "-s", "2",
        "--cache", str(cache))
    cache.write_bytes(cache.read_bytes()[:20])
    code, out, err = run(capsys, "nonkostant", "-t", "A", "-r", "3",
                         "-s", "2", "--cache", str(cache))
    assert (code, out) == (2, "")
    assert "error" in err


def test_cache_read_after_earlier_call(tmp_path, capsys):
    # A second call in the same process must still read and check --cache.
    good, cache = tmp_path / "good.klv", tmp_path / "a3.klv"
    code, out1, _ = run(capsys, "nonkostant", "-t", "A", "-r", "3", "-s", "2",
                        "--cache", str(good))
    assert (code, out1) == (0, "(2)\n")
    for bad in (good.read_bytes()[:-1], b"KLV4garbage"):
        cache.write_bytes(bad)
        code, out, err = run(capsys, "nonkostant", "-t", "A", "-r", "3",
                             "-s", "2", "--cache", str(cache))
        assert (code, out) == (2, "")
        assert "error" in err and "Traceback" not in err


def test_old_format_cache_exit_2(tmp_path, capsys):
    cache = tmp_path / "a3.klv"
    # a version-1 header: magic, family, rank, order, entry count
    cache.write_bytes(b"KLV1A" + struct.pack("<BII", 3, 24, 0))
    code, out, err = run(capsys, "nonkostant", "-t", "A", "-r", "3",
                         "-s", "2", "--cache", str(cache))
    assert (code, out) == (2, "")
    assert "older format" in err and "Traceback" not in err


def test_klv3_cache_exit_2(tmp_path, capsys):
    # a KLV3 file kept full columns as bitmasks; its header is refused before
    # anything else is read
    good, cache = tmp_path / "good.klv", tmp_path / "a3.klv"
    argv = ("nonkostant", "-t", "A", "-r", "3", "-s", "2", "--cache")
    assert run(capsys, *argv, str(good)) == (0, "(2)\n", "")
    cache.write_bytes(b"KLV3" + good.read_bytes()[4:])
    code, out, err = run(capsys, *argv, str(cache))
    assert (code, out) == (2, "")
    assert "older format (KLV3); delete it" in err and "Traceback" not in err


def test_klv2_cache_exit_2_then_rebuilt(tmp_path, capsys):
    # b4_klv2.klv.gz is a B4 cache in the older KLV2 format
    cache = tmp_path / "b4.klv"
    cache.write_bytes(gzip.decompress((DATA / "b4_klv2.klv.gz").read_bytes()))
    argv = ("klpoly", "-t", "B", "-r", "4", "--y", "1", "--w", "121324321432434",
            "--cache", str(cache))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "older format (KLV2)" in err and "Traceback" not in err
    cache.unlink()
    assert run(capsys, *argv) == (0, "1+q+q^2\n", "")
    assert cache.read_bytes()[:4] == b"KLV4"
    assert run(capsys, *argv) == (0, "1+q+q^2\n", "")


def test_threads_option_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonkostant", "-t", "A", "-r", "3", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def _bgg(*argv, **kwargs) -> subprocess.Popen:
    """A one-shot bgg process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen([sys.executable, "-m", "singbgg.cli", *argv],
                            env=env, **kwargs)


def _assert_write_failure_reported(code, err):
    assert code == 2
    assert err.startswith("error: cannot write output: ")
    assert "Traceback" not in err and "Exception ignored" not in err


def test_closed_pipe_exit_2():
    # 276 kB of JSON, more than a pipe holds: the writer is still writing
    # when the reader closes its end after the first line.
    proc = _bgg("blocks", "-t", "F", "-r", "4", "-f", "json",
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    _assert_write_failure_reported(proc.wait(timeout=60), err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_device_exit_2():
    with open("/dev/full", "wb") as full:
        proc = _bgg("blocks", "-t", "A", "-r", "3", stdout=full, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=60)
    _assert_write_failure_reported(proc.returncode, err.decode())


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [("--help",), ("blocks", "--help")])
def test_help_to_full_device_exit_2(argv, unbuffered, monkeypatch):
    # argparse writes the help text inside parse_args and drops a failed write
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    with open("/dev/full", "wb") as full:
        proc = _bgg(*argv, stdout=full, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=60)
    _assert_write_failure_reported(proc.returncode, err.decode())


# -- all input is checked before the KL table is built or loaded ------------------

BAD_INPUT = [
    ("nonkostant", "-s", "9"),
    ("klv", "-s", "9", "--w", "2", "--x", "2"),
    ("kostant", "-s", "9", "--w", "2"),
    ("scat", "-s", "9", "--w", "2"),
    ("klpoly", "--y", "xyz", "--w", "12"),
    ("klpoly", "--y", "1", "--w", "9"),
    ("klv", "-s", "2", "--w", "2x", "--x", "2"),
    ("klv", "-s", "2", "--w", "2", "--x", "9"),
]


@pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
def test_bad_input_never_reaches_the_table(argv, tmp_path, capsys, monkeypatch):
    def no_table(*_):
        raise AssertionError("KL table requested before the input was checked")
    monkeypatch.setattr(cli, "kl_table", no_table)
    monkeypatch.setattr(cli, "load_table", no_table)
    cache = tmp_path / "p.klv"
    code, out, err = run(capsys, argv[0], "-t", "A", "-r", "3", *argv[1:],
                         "--cache", str(cache))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not cache.exists()


@pytest.mark.parametrize("argv", BAD_INPUT[:1] + BAD_INPUT[4:5], ids=" ".join)
def test_bad_input_leaves_no_cache_file_in_a_fresh_process(argv, tmp_path):
    cache = tmp_path / "p.klv"
    proc = _bgg(argv[0], "-t", "F", "-r", "4", *argv[1:], "--cache", str(cache),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (2, b"")
    assert err.startswith(b"error: ") and err.count(b"\n") == 1
    assert not cache.exists()


def test_word_error_reported_before_a_bad_cache(tmp_path, capsys):
    cache = tmp_path / "a3.klv"
    cache.write_bytes(b"KLV4garbage")
    code, out, err = run(capsys, "klpoly", "-t", "A", "-r", "3", "--y", "xyz",
                         "--w", "12", "--cache", str(cache))
    assert (code, out, err) == (2, "", "error: cannot parse word 'xyz'\n")


@pytest.mark.parametrize("argv, expected", [
    (("blocks", "-s", "2"), "type A3, singular [2]"),
    (("mobius", "-s", "2", "--w", "2", "--x", "12"), "-1"),
    (("complex", "-s", "2", "--w", "12"), "0: (12)"),
], ids=lambda v: v[0] if isinstance(v, tuple) else None)
def test_commands_without_a_table_ignore_a_corrupt_cache(argv, expected, tmp_path,
                                                         capsys):
    cache = tmp_path / "a3.klv"
    cache.write_bytes(b"KLV4garbage")
    code, out, err = run(capsys, argv[0], "-t", "A", "-r", "3", *argv[1:],
                         "--cache", str(cache))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == expected
    assert cache.read_bytes() == b"KLV4garbage"


@pytest.mark.parametrize("stage", ["translated", "singular"])
def test_signs_outside_the_regular_stage_exit_2(stage, capsys):
    code, out, err = run(capsys, "complex", "-t", "A", "-r", "3", "-s", "2",
                         "--w", "12", "--stage", stage, "--signs")
    assert (code, out) == (2, "")
    assert err == "error: --signs applies to the regular stage only\n"
