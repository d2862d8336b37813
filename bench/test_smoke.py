"""Smoke test of the benchmark at a tiny size (A3 and B3; about 15 s).

    PYTHONPATH=src python3 -m pytest -q bench/test_smoke.py

Each workload of run.py, ``kltable-d5`` too although BENCHMARK.json leaves
it out, runs once untraced and once traced; the emitted metric names must be
exactly those declared in BENCHMARK.json, and every check must pass.
The frozen golden digests in expected.json are re-derived from
tests/golden_tables.py.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_metric_names_match_spec(workload, trace):
    out = run_bench(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_frozen_digests_match_golden_tables():
    import freeze
    import singbgg

    expected = json.loads((BENCH / "expected.json").read_text())["groups"]
    for name in ["A3", "B3", "A4", "B4", "D4", "F4"]:
        golden = freeze.golden_blocks(singbgg, name)
        frozen = {k: v["digest"] for k, v in expected[name]["blocks"].items()}
        assert golden and all(frozen[k] == d for k, d in golden.items()), name


def test_refuses_without_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "bench" / "expected.json").write_text(
        (BENCH / "expected.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "classify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
