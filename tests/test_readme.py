"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from singbgg.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading):
    """The first fenced code block after the given section heading."""
    section = README[README.index(f"\n## {heading}\n"):]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs():
    code = _block("Library quick start")
    assert "is_kostant(w, b, t)" in code
    exec(compile(code, "README.md", "exec"), {})


def test_command_lines_print_what_they_state(capsys):
    lines = [ln for ln in _block("Command line").splitlines() if ln.startswith("bgg ")]
    stated = 0
    for line in lines:
        command, _, expected = line.partition("# ->")
        assert main(shlex.split(command)[1:]) == 0, line
        out = capsys.readouterr().out
        if expected:
            assert out.split() == expected.split(), line
            stated += 1
    assert (len(lines), stated) == (8, 6)
