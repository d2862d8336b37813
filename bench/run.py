"""Benchmark of the singbgg package: three workloads, every output checked.

    python3 bench/run.py --workload classify --seed 1 --seconds 50 --trace 0

Workloads (see bench/README.md for why each one exists, and why
BENCHMARK.json names only ``classify`` and ``cli-queries``):

* ``classify``    every block of A4, B4, D4 and F4 decided by nonkostant_block;
* ``kltable-d5``  the D5 Kazhdan-Lusztig table built, read, saved, loaded, re-read;
* ``cli-queries`` one-shot ``bgg`` processes over B4 and F4 with warm caches.

Each pass runs in a fresh child process (``bench/worker.py``), so every
group, block and table cache starts cold.  Passes repeat while the next one
is expected to end within ``--seconds``; ``kltable-d5`` makes at least three
passes and ``cli-queries`` at least three rounds of its queries.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics; with ``--trace 1`` one untraced and one traced pass run and the
per-layer metrics are printed instead.  Spans, counts and the machine
context are written to ``.bench_out/`` in the checkout; cache files live
there only for the run.

``--size tiny`` swaps in rank-3 groups; the smoke test uses it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"

# Distinct queries per run: (subcommand, [count on the first group, count on
# the second]).  Every command gets the same share, 4 on B4 and 1 on F4, so
# the split is 28/7 = 80/20.  Each query runs once per round, and a run makes
# at least 3 rounds, so at least 105 one-shot processes.
MIX_FULL = [(cmd, [4, 1]) for cmd in
            ("kostant", "klv", "mobius", "klpoly", "complex", "blocks", "nonkostant")]
MIX_TINY = [(cmd, [1, 1]) for cmd, _ in MIX_FULL]

SIZES = {
    "full": {"classify": ["A4", "B4", "D4", "F4"], "kltable": "D5",
             "cli": ["B4", "F4"], "mix": MIX_FULL},
    "tiny": {"classify": ["A3", "B3"], "kltable": "B3",
             "cli": ["A3", "B3"], "mix": MIX_TINY},
}
MIN_PASSES = {"classify": 1, "kltable": 3, "cli": 3}
ELEMENT_BUDGET = 1920          # D5 is above the package's default budget
SETUP_REPEATS = 3              # set-up samples per run; setup_s is their median
SYMMETRY_SAMPLE = 2000         # pairs checked for P_{y,w} = P_{y^-1,w^-1}
CHILD_CPU_LIMIT_S = 120
LAYERS = ["weyl", "bruhat", "klpoly", "parabolic", "mobius", "complexes", "cli",
          "bench"]


class BenchError(Exception):
    """The benchmark cannot run here (for example, no package to measure)."""


# -- child processes ------------------------------------------------------------

def child_env(extra=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("BGG_ELEMENT_BUDGET", None)
    env.update(extra or {})
    return env


def cpu_limit() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


def worker(mode: str, args: dict, env=None) -> dict | None:
    """Run one worker pass; returns its result, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), mode, json.dumps(args)],
        capture_output=True, text=True, env=env or child_env(),
        preexec_fn=cpu_limit, timeout=CHILD_CPU_LIMIT_S + 30,
    )
    if proc.returncode != 0:
        sys.stderr.write(f"worker {mode} failed ({proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}\n")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bgg(argv: list[str], out: Path) -> tuple[int, str, float, float]:
    """One one-shot ``bgg`` process; returns (exit code, stdout, seconds, peak RSS MB)."""
    with open(out, "w") as fo, open(out.with_suffix(".err"), "w") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "singbgg.cli", *argv],
                                stdout=fo, stderr=fe, env=child_env(),
                                preexec_fn=cpu_limit)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.read_text(), elapsed, usage.ru_maxrss / 1024.0


def repeat(seconds: float, one_pass, min_passes: int = 1) -> list:
    """Run at least ``min_passes`` passes, then more while the next one is
    expected to end within ``seconds``."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(one_pass(len(results)))
        now = time.perf_counter()
        if len(results) >= min_passes and now - start + (now - t0) > seconds:
            return results


# -- statistics -----------------------------------------------------------------

def median(xs) -> float:
    return statistics.median(xs)


def p90(xs) -> float:
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


def end_to_end(passes: list[dict], setups: list[float],
               query_sets: list[list[float]]) -> dict:
    """Medians over passes and set-ups; the query percentiles are taken
    within each set of samples, then the median over the sets."""
    return {
        "wall_s": (median(p["wall_s"] for p in passes), "s"),
        "setup_s": (median(setups), "s"),
        "solve_s": (median(p["solve_s"] for p in passes), "s"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in passes), "MB"),
        "query_p50_ms": (median(median(q) for q in query_sets), "ms"),
        "query_p90_ms": (median(p90(q) for q in query_sets), "ms"),
    }


def per_layer(traces: list[dict], overhead_s: float, samples: int) -> dict:
    """Per-layer totals, counts and self times from the traced pass(es)."""
    totals, counts, self_s = {}, {}, dict.fromkeys(LAYERS, 0.0)
    imports = [tr["totals"]["cli.import"] for tr in traces if "cli.import" in tr["totals"]]
    n_spans = 0
    for tr in traces:
        for k, v in tr["totals"].items():
            totals[k] = totals.get(k, 0.0) + v
        for k, v in tr["counts"].items():
            counts[k] = counts.get(k, 0) + v
        spans = tr["spans"]
        n_spans += len(spans)
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for (name, t0, t1, _, _), c in zip(spans, child):
            self_s[name.split(".")[0]] += (t1 - t0) - c

    def s(name):
        return (totals.get(name, 0.0), "s")

    def n(name, unit="count"):
        return (counts.get(name, 0), unit)

    m = {
        "weyl.build_s": s("weyl.build"), "weyl.elements": n("weyl.elements"),
        "bruhat.covers_s": s("bruhat.covers"), "bruhat.masks_s": s("bruhat.masks"),
        "bruhat.covers": n("bruhat.covers"),
        "bruhat.comparable_pairs": n("bruhat.comparable_pairs"),
        "klpoly.build_s": s("klpoly.build"), "klpoly.stored": n("klpoly.stored"),
        "klpoly.build_peak_mb": n("klpoly.build_peak_mb", "MB"),
        "klpoly.read_s": s("klpoly.read"), "klpoly.reads": n("klpoly.reads"),
        "klpoly.save_s": s("klpoly.save"), "klpoly.load_s": s("klpoly.load"),
        "klpoly.cache_bytes": n("klpoly.cache_bytes", "B"),
        "parabolic.block_s": s("parabolic.block"), "parabolic.cosets": n("parabolic.cosets"),
        "complexes.scan_s": s("complexes.scan"), "complexes.reps": n("complexes.reps"),
        "complexes.nonkostant": n("complexes.nonkostant"),
        "complexes.skeleton_s": s("complexes.skeleton"),
        "mobius.support_s": s("mobius.support"),
        "cli.import_ms": (median(imports) * 1e3 if imports else 0.0, "ms"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.spans"] = (n_spans, "count")
    m["query.samples"] = (samples, "count")
    return m


# -- workloads ------------------------------------------------------------------

class Run:
    """State of one benchmark run: arguments, scratch directory, tallies."""

    def __init__(self, args, expected: dict):
        self.args = args
        self.size = SIZES[args.size]
        self.expected = expected
        self.tag = f"{args.workload}-s{args.seed}-t{args.trace}"
        self.dir = OUT / f"{self.tag}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.details: dict = {}

    def fail(self, msg: str, n: int = 1) -> None:
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(msg)

    def check_invariants(self, name: str, got: dict) -> None:
        exp = self.expected["groups"][name]
        for k, v in got.items():
            self.attempted += 1
            if exp[k] != v:
                self.fail(f"{name} {k}: {v} != {exp[k]}")
        self.details.setdefault("invariants", {})[name] = got

    # classify ------------------------------------------------------------------

    def classify(self) -> tuple[dict, list[dict]]:
        groups = self.size["classify"]

        def one_pass(i, trace=False, setup_only=False):
            res = worker("classify", {"groups": groups, "seed": self.args.seed,
                                      "run_id": f"pass{i}", "trace": trace,
                                      "setup_only": setup_only})
            if res is None:
                raise BenchError("classify pass failed")
            if not setup_only:
                self.check_classify(res)
            return res

        return self.measure(one_pass, MIN_PASSES["classify"])

    def measure(self, one_pass, min_passes: int) -> tuple[dict, list[dict]]:
        """Untraced plus traced pass for --trace 1; otherwise timed passes,
        topped up with set-up-only passes to SETUP_REPEATS set-up samples."""
        if self.args.trace:
            plain = one_pass(0)
            traced = one_pass(1, trace=True)
            return per_layer([traced["trace"]], traced["wall_s"] - plain["wall_s"],
                             len(traced["query_ms"])), [traced["trace"]]
        passes = repeat(self.args.seconds, one_pass, min_passes)
        self.details["passes"] = len(passes)
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_REPEATS:
            setups.append(one_pass(len(setups), setup_only=True)["setup_s"])
        query_sets = [p["query_ms"] for p in passes]
        self.details["query_ms"] = query_sets
        return end_to_end(passes, setups, query_sets), []

    def check_classify(self, res: dict) -> None:
        reps = bad = 0
        for name, got in res["groups"].items():
            self.check_invariants(name, got["invariants"])
            exp_blocks = self.expected["groups"][name]["blocks"]
            if set(got["blocks"]) != set(exp_blocks):
                self.fail(f"{name}: blocks decided differ from the expected set")
            for key, blk in got["blocks"].items():
                self.attempted += 1
                reps += blk["reps"]
                bad += blk["nonkostant"]
                exp = exp_blocks.get(key)
                if exp is None or (blk["reps"], blk["digest"]) != (exp["reps"], exp["digest"]):
                    self.fail(f"{name} S={{{key}}}: non-Kostant set differs")
        self.details.setdefault("classify", []).append({"reps": reps, "nonkostant": bad})

    # kltable -------------------------------------------------------------------

    def kltable(self) -> tuple[dict, list[dict]]:
        name = self.size["kltable"]
        env = child_env({"BGG_ELEMENT_BUDGET": str(ELEMENT_BUDGET)})

        def one_pass(i, trace=False, setup_only=False):
            res = worker("kltable", {
                "group": name, "seed": self.args.seed + i, "run_id": f"pass{i}",
                "trace": trace, "setup_only": setup_only,
                "cache": str(self.dir / f"pass{i}.klv"),
                "symmetry_sample": SYMMETRY_SAMPLE}, env=env)
            if res is None:
                raise BenchError("kltable pass failed")
            if not setup_only:
                self.check_kltable(name, res)
            return res

        return self.measure(one_pass, MIN_PASSES["kltable"])

    def check_kltable(self, name: str, res: dict) -> None:
        self.check_invariants(name, res["invariants"])
        exp = self.expected["groups"][name]
        reads = res["reads"]
        self.attempted += reads + SYMMETRY_SAMPLE
        if reads != 2 * exp["comparable_pairs"]:
            self.fail(f"{name}: {reads} reads, expected two per comparable pair")
        if res["kl_digest"] != exp["kl_digest"]:
            self.fail(f"{name}: polynomial values differ from the frozen digest", reads // 2)
        if not res["loaded_equal"]:
            self.fail(f"{name}: loaded table reads differently from the built one",
                      reads // 2)
        if res["asymmetric"]:
            self.fail(f"{name}: P_(y,w) != P_(y^-1,w^-1) on {res['asymmetric']} pairs",
                      res["asymmetric"])

    # cli-queries ---------------------------------------------------------------

    def cli(self) -> tuple[dict, list[dict]]:
        groups = self.size["cli"]
        plan = worker("plan", {"groups": groups, "mix": self.size["mix"],
                               "seed": self.args.seed})
        if plan is None:
            raise BenchError("query plan failed")
        specs, expected = plan["specs"], plan["expected"]

        def setup(i):
            d = self.dir / f"setup{i}"
            d.mkdir(parents=True)
            caches = {}
            total = 0.0
            for name in groups:
                caches[name] = str(d / f"{name}.klv")
                code, out, dt, _ = bgg(["klpoly", "-t", name[0], "-r", name[1:],
                                        "--y", "e", "--w", "e", "--cache", caches[name]],
                                       d / f"{name}.out")
                self.attempted += 1
                if code != 0 or out.strip() != "1" or not os.path.exists(caches[name]):
                    self.fail(f"cache set-up for {name} failed (exit {code})")
                total += dt
            return total, caches

        n_setups = 1 if self.args.trace else SETUP_REPEATS
        setups = [setup(i) for i in range(n_setups)]
        caches = setups[-1][1]
        qdir = self.dir / "queries"
        qdir.mkdir()

        def one_round(r):
            """All queries once, in an order drawn from the seed and round."""
            lat, rss = [0.0] * len(specs), []
            order = list(range(len(specs)))
            random.Random(f"{self.args.seed}/{r}").shuffle(order)
            for i in order:
                spec = specs[i]
                code, out, dt, mb = bgg(bgg_argv(spec, caches), qdir / f"q{i}.out")
                lat[i] = dt
                rss.append(mb)
                self.attempted += 1
                if code != 0:
                    self.fail(f"query {i} ({spec['cmd']}) exited {code}")
                elif not output_matches(spec, expected[i], out):
                    self.fail(f"query {i} ({spec['cmd']} {spec['format']}) output differs")
            return {"lat": lat, "wall_s": sum(lat), "peak_rss_mb": max(rss)}

        if self.args.trace:
            plain = one_round(0)
            traces, lat = [], []
            for name in groups:     # the set-up, replayed with spans
                res = worker("setup", {"group": name, "run_id": f"setup-{name}",
                                       "cache": str(self.dir / f"traced-{name}.klv")})
                self.attempted += 1
                if res is None:
                    self.fail(f"replay of the {name} set-up failed")
                    continue
                traces.append(res["trace"])
            for i, spec in enumerate(specs):
                t0 = time.perf_counter()
                res = worker("replay", {"spec": spec, "caches": caches,
                                        "run_id": f"q{i}"})
                lat.append(time.perf_counter() - t0)
                self.attempted += 1
                if res is None or res["answer"] != expected[i]:
                    self.fail(f"replay of query {i} ({spec['cmd']}) differs")
                    continue
                traces.append(res["trace"])
            return per_layer(traces, sum(lat) - plain["wall_s"], len(lat)), traces

        # A round is a pass.  Every query runs once a round, so it meets the
        # machine's speed phases at several moments; the percentiles are
        # taken over all processes of the run (at least 105).
        rounds = repeat(self.args.seconds, one_round, MIN_PASSES["cli"])
        self.details["passes"] = len(rounds)
        setup_s = median(s for s, _ in setups)
        passes = [{"wall_s": setup_s + r["wall_s"], "solve_s": r["wall_s"],
                   "peak_rss_mb": r["peak_rss_mb"]} for r in rounds]
        query_ms = [dt * 1e3 for r in rounds for dt in r["lat"]]
        self.details["setup_samples_s"] = [s for s, _ in setups]
        self.details["query_ms"] = [[dt * 1e3 for dt in r["lat"]] for r in rounds]
        return end_to_end(passes, [s for s, _ in setups], [query_ms]), []


def bgg_argv(spec: dict, caches: dict) -> list[str]:
    name = spec["group"]
    argv = [spec["cmd"], "-t", name[0], "-r", name[1:], "-f", spec["format"]]
    if "S" in spec:
        argv += ["-s", ",".join(map(str, spec["S"])) or "none"]
    for k in ("y", "w", "x"):
        if k in spec:
            argv += [f"--{k}", spec[k]]
    if spec["cmd"] == "complex":
        argv += ["--stage", spec["stage"]] + (["--signs"] if spec["signs"] else [])
    return argv + ["--cache", caches[name]]


def jword(seq) -> str:
    return "".join(map(str, seq)) or "e"


def output_matches(spec: dict, exp: dict, out: str) -> bool:
    """Compare one ``bgg`` stdout with the library's answer, by value."""
    cmd, fmt = spec["cmd"], spec["format"]
    try:
        if fmt == "json":
            d = json.loads(out)
        lines = out.strip().splitlines()
        if cmd == "kostant":
            got = d["kostant"] if fmt == "json" else {"true": True, "false": False}[out.strip()]
            return got == exp["kostant"]
        if cmd in ("klv", "klpoly"):
            return d["coeffs"] == exp["coeffs"] if fmt == "json" else out.strip() == exp["text"]
        if cmd == "mobius":
            return (d["mobius"] if fmt == "json" else int(out)) == exp["mobius"]
        if cmd == "nonkostant":
            if fmt == "json":
                return ([jword(r["w"]) for r in d["results"]] == exp["reps"] and
                        [jword(r["w"]) for r in d["results"] if not r["kostant"]]
                        == exp["nonkostant"])
            return [ln.strip("()") for ln in lines] == exp["nonkostant"]
        if cmd == "blocks":
            if fmt == "json":
                got = {"parabolic_order": d["parabolic_order"], "cosets": d["cosets"],
                       "min_reps": [jword(w) for w in d["min_reps"]],
                       "max_reps": [jword(w) for w in d["max_reps"]]}
                return got == exp
            sizes = lines[1].replace(",", "").split()
            return (int(sizes[5]) == exp["parabolic_order"] and int(sizes[8]) == exp["cosets"]
                    and lines[2].split()[1:] == exp["min_reps"]
                    and lines[3].split()[1:] == exp["max_reps"])
        return complex_matches(fmt, exp, out, lines, d if fmt == "json" else None)
    except (KeyError, ValueError, IndexError, TypeError):
        return False


def complex_matches(fmt: str, exp: dict, out: str, lines: list[str], d) -> bool:
    if fmt == "json":
        verts = [[jword(v["word"]), v["degree"]] for v in d["vertices"]]
        edges = [[jword(e["from"]), jword(e["to"]), e["kind"], e["sign"]] for e in d["edges"]]
        return verts == exp["vertices"] and edges == exp["edges"]
    if fmt == "text":
        verts, edges = [], []
        for ln in lines:
            if ln[0] != "(":
                deg, w = ln.split(": ")
                verts.append([w.strip("()"), int(deg)])
                continue
            parts = ln.split()
            sign = int(parts[3].strip("[]")) if len(parts) > 3 else None
            kind = "equality" if parts[1] == "=" else "morphism"
            edges.append([parts[0].strip("()"), parts[2].strip("()"), kind, sign])
        return verts == exp["vertices"] and edges == exp["edges"]
    # dot: vertex order, bold and support marks, and edges with kind and sign
    verts, bold, support, edges = [], [], [], []
    for ln in lines[1:-1]:
        ln = ln.strip()
        name = ln.split('"')[1]
        if " -> " not in ln:
            verts.append(name)
            if "style=bold" in ln:
                bold.append(name)
            if "peripheries=2" in ln:
                support.append(name)
            continue
        target = ln.split('"')[3]
        kind, sign = "morphism", None
        if "dir=none" in ln:
            kind = "equality"
        elif "label=" in ln:
            sign = int(ln.split('label="')[1].split('"')[0])
        edges.append([name, target, kind, sign])
    return (verts == [v for v, _ in exp["vertices"]] and bold == exp["bold"]
            and sorted(support) == exp["support"] and edges == exp["edges"])


# -- entry point ----------------------------------------------------------------

def context() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor(),
            "loadavg_1m": os.getloadavg()[0]}


WORKLOADS = {"classify": Run.classify, "kltable-d5": Run.kltable,
             "cli-queries": Run.cli}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)

    if not (SRC / "singbgg" / "__init__.py").is_file():
        print(f"error: no package to measure at {SRC / 'singbgg'}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text())
    ctx = context()
    compileall.compile_dir(str(SRC), quiet=1)   # the "build": warm bytecode caches

    run = Run(args, expected)
    run.dir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, traces = WORKLOADS[args.workload](run)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        metrics, traces = None, []
        run.fail(str(exc))
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    correct = run.failed == 0 and metrics is not None
    attempted = max(run.attempted, 1)
    summary = {"workload": args.workload, "seed": args.seed, "size": args.size,
               "trace": args.trace, "context": ctx, "attempted": attempted,
               "failed": run.failed, "failed_frac": run.failed / attempted,
               "errors": run.errors, "details": run.details,
               "metrics": {k: v for k, (v, _) in (metrics or {}).items()},
               "spans": traces}
    (OUT / f"result-{run.tag}.json").write_text(json.dumps(summary))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"failed {run.failed}/{attempted} (failed_frac {summary['failed_frac']:.4g}); "
          f"python {ctx['python']}, nproc {ctx['nproc']}, {ctx['cpu_model']}, "
          f"load {ctx['loadavg_1m']:.2f}", file=sys.stderr)
    print(f"  passes {run.details.get('passes', 1)}; "
          f"query samples {sum(map(len, run.details.get('query_ms', [])))}; invariants "
          f"(elements, covers, comparable pairs): {run.details.get('invariants')}",
          file=sys.stderr)
    for msg in run.errors:
        print(f"  {msg}", file=sys.stderr)
    if metrics is None:
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
