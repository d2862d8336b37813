"""The demos run to completion and write nothing into the current directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_leaves_cwd_empty(demo, tmp_path):
    cwd = tmp_path / "cwd"
    tmp = tmp_path / "tmp"
    cwd.mkdir()
    tmp.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
    proc = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert list(cwd.iterdir()) == []


def test_dot_demo_output_directory(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "dot"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "export_complex_dot.py"), str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert str(out) in proc.stdout
    assert sorted(p.name for p in out.iterdir()) == [
        "regular.dot", "singular.dot", "translated.dot"]
    assert all(p.read_text().startswith("digraph") for p in out.iterdir())
