"""`bgg` output frozen byte for byte.

Each case of data/cli_transcript.json gives an argv and the exit code,
stdout and stderr it must produce: every subcommand in every format, the
three `complex` stages, `--signs`, the error cases, and `--help` and usage
messages.  A case may name a prepared cache file; "{cache}" in argv and
stderr stands for its path.  Help and usage text comes from argparse, and a
corrupt cache's message quotes `struct`, so those cases carry the Python
version they were recorded with and are checked only on it.
"""

import io
import json
import pathlib
import struct
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from singbgg.cli import main

CASES = json.loads((pathlib.Path(__file__).parent / "data" / "cli_transcript.json")
                   .read_text())

# cache files a case can start from; "new" and "missing" name no file yet
CACHE_FILES = {
    "corrupt": b"KLV4garbage",
    "klv1": b"KLV1A" + struct.pack("<BII", 3, 24, 0),
}


def run_bgg(argv):
    """(exit code, stdout, stderr) of one in-process `bgg` run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help and usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _case_id(case):
    return " ".join(case["argv"])


@pytest.mark.parametrize("case", CASES, ids=map(_case_id, CASES))
def test_transcript(case, tmp_path, monkeypatch):
    if "python" in case and case["python"] != "%d.%d" % sys.version_info[:2]:
        pytest.skip(f"argparse text recorded with Python {case['python']}")
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    kind = case.get("cache")
    cache = tmp_path / ("missing" if kind == "missing" else "") / "t.klv"
    if kind in CACHE_FILES:
        cache.write_bytes(CACHE_FILES[kind])
    argv = [a.replace("{cache}", str(cache)) for a in case["argv"]]
    code, out, err = run_bgg(argv)
    assert (code, out, err.replace(str(cache), "{cache}")) == (
        case["code"], case["stdout"], case["stderr"])
    if kind is not None:
        assert cache.exists() == case["cache_after"]


def test_transcript_covers_every_subcommand_and_format():
    seen = {(c["argv"][0], c["argv"][c["argv"].index("-f") + 1])
            for c in CASES if c["code"] == 0 and "-f" in c["argv"]}
    commands = ("nonkostant", "blocks", "klpoly", "klv", "mobius", "complex",
                "kostant", "scat")
    assert seen == {(cmd, f) for cmd in commands for f in ("text", "json")} | {
        ("complex", "dot")}
    stages = {c["argv"][c["argv"].index("--stage") + 1]
              for c in CASES if "--stage" in c["argv"] and c["code"] == 0}
    assert stages == {"regular", "translated", "singular"}
    helps = {c["argv"][0] for c in CASES if c["argv"][-1:] == ["--help"]}
    assert helps == {"--help", *commands}
