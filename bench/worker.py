"""Child process of the benchmark: one pass of library work, timed from inside.

Usage (started by ``run.py``, never by hand):

    python3 bench/worker.py MODE '<json arguments>'

MODE is ``classify``, ``kltable``, ``plan``, ``setup`` or ``replay``.  The
child prints one JSON object on stdout and exits.  Every call into the
package goes through :meth:`Tracer.call`, which times it under a span name
``<module>.<operation>``; with tracing on the spans are kept in memory and
returned to the parent, which writes them out when the run ends.

Only public (non-underscore) names of the package are used, so the layers
can be rewritten underneath without touching this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import sys
import time
from array import array
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, combinations

T_START = time.perf_counter()


class Tracer:
    """Per-name time totals, always; spans and counts when ``enabled``.

    A span is ``[name, start, end, parent, run_id]`` with times in seconds
    since the process started; ``parent`` indexes the span list (-1 for
    the root).  Counts are recorded at the same boundaries as the spans.
    """

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.totals: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self.parent = -1

    def open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter() - T_START, None,
                           self.parent, self.run_id])
        self.parent = len(self.spans) - 1
        return self.parent

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter() - T_START
        self.parent = self.spans[sid][3]

    def call(self, name: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        self.totals[name] += t1 - t0
        if self.enabled:
            self.spans.append([name, t0 - T_START, t1 - T_START, self.parent,
                               self.run_id])
        return out

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def report(self) -> dict:
        return {"totals": dict(self.totals), "counts": dict(self.counts),
                "spans": self.spans}


def word(e) -> str:
    return "".join(str(i) for i in e.reduced_word()) or "e"


def words(elements) -> list[str]:
    return [word(e) for e in elements]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tracemalloc_peak_mb(fn, *args) -> float:
    """Peak traced allocation of one call; only used in traced passes."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def subsets(rank: int):
    idx = range(1, rank + 1)
    return [S for k in range(rank + 1) for S in combinations(idx, k)]


def group_setup(lib, tr: Tracer, name: str):
    """Group, cover graph, order bitmasks and the invariant counts of a group."""
    from singbgg.bruhat import down_masks, up_masks

    g = tr.call("weyl.build", lib.build_group, lib.CartanType(name[0], int(name[1:])))
    cg = tr.call("bruhat.covers", lib.cover_graph, g)
    down = tr.call("bruhat.masks", lambda: (down_masks(g), up_masks(g)))[0]
    inv = {"elements": g.order,
           "covers": sum(len(row) for row in cg.upper),
           "comparable_pairs": sum(bin(m).count("1") for m in down)}
    for k, v in inv.items():
        tr.count(("weyl." if k == "elements" else "bruhat.") + k, v)
    return g, down, inv


# -- classify: every block of every group, decided by nonkostant_block ----------

def classify(a: dict) -> dict:
    tr = Tracer(a["run_id"], a["trace"])
    root = tr.open("bench.pass")
    import singbgg as lib

    groups, tables, out = {}, {}, {}
    t0 = time.perf_counter()
    for name in a["groups"]:
        g, _, inv = group_setup(lib, tr, name)
        t = tr.call("klpoly.build", lib.kl_table, g)
        tr.count("klpoly.stored", len(t))  # representation-specific: recorded only
        groups[name], tables[name] = g, t
        out[name] = {"invariants": inv, "blocks": {}}
    setup_s = time.perf_counter() - t0
    if a["setup_only"]:
        tr.close(root)
        return {"setup_s": setup_s}

    jobs = [(name, S) for name in a["groups"] for S in subsets(groups[name].rank)]
    random.Random(a["seed"]).shuffle(jobs)
    results, query_ms = [], []
    t1 = time.perf_counter()
    for name, S in jobs:
        g = groups[name]
        q0 = time.perf_counter()
        b = tr.call("parabolic.block", lib.make_block, g, S)
        bad = tr.call("complexes.scan", lib.nonkostant_block, g, S, tables[name])
        query_ms.append((time.perf_counter() - q0) * 1e3)
        results.append((name, S, b, bad))
    solve_s = time.perf_counter() - t1
    wall_s = time.perf_counter() - T_START
    rss = peak_rss_mb()

    for name, S, b, bad in results:
        reps = len(b.max_reps)
        tr.count("parabolic.cosets", reps)
        tr.count("complexes.reps", reps)
        tr.count("complexes.nonkostant", len(bad))
        out[name]["blocks"][",".join(map(str, S))] = {
            "reps": reps, "nonkostant": len(bad), "digest": digest(sorted(words(bad)))}
    if a["trace"]:
        big = max(groups.values(), key=lambda g: g.order)
        tr.counts["klpoly.build_peak_mb"] = tr.call(
            "bench.tracemalloc", tracemalloc_peak_mb, lib.kl_table, big)
    tr.close(root)
    return {"wall_s": wall_s, "setup_s": setup_s, "solve_s": solve_s,
            "peak_rss_mb": rss, "query_ms": query_ms, "groups": out,
            "trace": tr.report()}


# -- kltable: build, read every comparable pair, save, load, read again ---------

def bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, in increasing order."""
    return [i for i, c in enumerate(reversed(bin(mask)[2:])) if c == "1"]


def read_all(tr: Tracer, t, els, down, codes_of: dict,
             query_ms: list) -> tuple[bytes, int, float]:
    """Read P_{y,w} for every y <= w, in index order.

    Only the reads are timed, one row P_{.,w} at a time.  Between rows, off
    the clock, the row is turned into codes of distinct values (``codes_of``)
    and hashed, so no row outlives its turn.  Returns the hash of all codes,
    the number of reads and the seconds spent reading.
    """
    h = hashlib.sha256()
    n = 0
    spent = 0.0
    for wi, mask in enumerate(down):
        w = els[wi]
        ys = [els[yi] for yi in bits(mask)]
        q0 = time.perf_counter()
        row = [t.polynomial(y, w) for y in ys]
        q1 = time.perf_counter()
        spent += q1 - q0
        if tr.enabled:
            tr.spans.append(["klpoly.read", q0 - T_START, q1 - T_START,
                             tr.parent, tr.run_id])
        query_ms.append((q1 - q0) * 1e3)
        h.update(array("I", [codes_of.setdefault(p, len(codes_of)) for p in row]))
        n += len(row)
    tr.totals["klpoly.read"] += spent
    tr.count("klpoly.reads", n)
    return h.digest(), n, spent


def kl_digest(codes_of: dict, codes_hash: bytes) -> str:
    """Digest of the distinct values (in first-read order) and their codes."""
    distinct = sorted(codes_of, key=codes_of.get)
    return hashlib.sha256(json.dumps([list(p) for p in distinct]).encode()
                          + codes_hash).hexdigest()


def sample_pairs(down, n: int, rng: random.Random) -> list[tuple[int, int]]:
    """``n`` distinct comparable pairs (y, w) by index, drawn uniformly."""
    cum = list(accumulate(bin(m).count("1") for m in down))
    out = []
    for k in rng.sample(range(cum[-1]), min(n, cum[-1])):
        wi = bisect_right(cum, k)
        out.append((bits(down[wi])[k - (cum[wi - 1] if wi else 0)], wi))
    return out


def kltable(a: dict) -> dict:
    tr = Tracer(a["run_id"], a["trace"])
    root = tr.open("bench.pass")
    import singbgg as lib

    t0 = time.perf_counter()
    g, down, inv = group_setup(lib, tr, a["group"])
    t = tr.call("klpoly.build", lib.kl_table, g)
    setup_s = time.perf_counter() - t0
    if a["setup_only"]:
        tr.close(root)
        return {"setup_s": setup_s}
    tr.count("klpoly.stored", len(t))  # representation-specific: recorded only

    # solve_s is the sum of the timed reads, save and load; the benchmark's
    # own hashing between rows is left out of it and of wall_s.
    els = tr.call("weyl.list", g.elements)
    codes_of: dict = {}
    query_ms: list = []
    first, reads, read1_s = read_all(tr, t, els, down, codes_of, query_ms)
    path = a["cache"]
    s0 = time.perf_counter()
    tr.call("klpoly.save", lib.save_table, t, path)
    loaded = tr.call("klpoly.load", lib.load_table, g, path)
    s2 = time.perf_counter()
    second, rereads, read2_s = read_all(tr, loaded, els, down, codes_of, query_ms)
    solve_s = read1_s + (s2 - s0) + read2_s
    wall_s = (t0 - T_START) + setup_s + solve_s
    rss = peak_rss_mb()
    tr.count("klpoly.cache_bytes", os.path.getsize(path))

    asym = 0
    for yi, wi in sample_pairs(down, a["symmetry_sample"], random.Random(a["seed"])):
        y, w = els[yi], els[wi]
        if t.polynomial(y, w) != t.polynomial(y.inverse(), w.inverse()):
            asym += 1
    if a["trace"]:
        tr.counts["klpoly.build_peak_mb"] = tr.call(
            "bench.tracemalloc", tracemalloc_peak_mb, lib.kl_table, g)
    tr.close(root)
    return {"wall_s": wall_s, "setup_s": setup_s, "solve_s": solve_s,
            "peak_rss_mb": rss, "query_ms": query_ms, "invariants": inv,
            "reads": reads + rereads, "kl_digest": kl_digest(codes_of, first),
            "loaded_equal": first == second, "asymmetric": asym,
            "trace": tr.report()}


# -- cli-queries: the query plan, its expected answers, and traced replay -------

NEEDS_TABLE = {"kostant", "klv", "klpoly", "nonkostant"}


def answer(lib, tr: Tracer, spec: dict, table_for) -> dict:
    """What the library answers to one query, in a form every output format
    of the corresponding ``bgg`` subcommand can be compared with.  The calls
    are those the subcommand makes.  Except for ``blocks``, which never
    touches the order, the cover graph and order masks are built first
    (``group_setup``) so the order layer is timed on its own."""
    name, cmd = spec["group"], spec["cmd"]
    if cmd == "blocks":
        g = tr.call("weyl.build", lib.build_group, lib.CartanType(name[0], int(name[1:])))
        tr.count("weyl.elements", g.order)
    else:
        g = group_setup(lib, tr, name)[0]
    t = table_for(g) if cmd in NEEDS_TABLE else None
    b = None if cmd == "klpoly" else tr.call(
        "parabolic.block", lib.make_block, g, frozenset(spec["S"]))
    el = {k: g.from_word([int(c) for c in spec[k].replace("e", "")])
          for k in ("w", "x", "y") if k in spec}

    if cmd == "kostant":
        return {"kostant": tr.call("complexes.scan", lib.is_kostant, el["w"], b, t)}
    if cmd in ("klv", "klpoly"):
        if cmd == "klv":
            p = tr.call("klpoly.read", lib.klv_dominant, t, b, el["w"], el["x"])
        else:
            p = tr.call("klpoly.read", t.polynomial, el["y"], el["w"])
        return {"coeffs": list(p), "text": str(p)}
    if cmd == "mobius":
        return {"mobius": tr.call("mobius.support", lib.mobius_lambda,
                                  el["w"], el["x"], b)}
    if cmd == "blocks":
        return {"parabolic_order": len(b.W_lambda), "cosets": len(b.min_reps),
                "min_reps": words(b.min_reps), "max_reps": words(b.max_reps)}
    if cmd == "nonkostant":
        bad = tr.call("complexes.scan", lib.nonkostant_block, g, b.S, t)
        return {"nonkostant": words(bad), "reps": words(b.max_reps)}
    # complex
    w = el["w"]
    stage = spec["stage"]
    if stage == "singular":
        sk = tr.call("complexes.skeleton", lib.singular_skeleton, w, b)
    else:
        sk = tr.call("complexes.skeleton", lib.regular_skeleton, g, w)
        if stage == "translated":
            sk = tr.call("complexes.skeleton", lib.translate_skeleton, sk, b)
        elif spec["signs"]:
            sk = tr.call("complexes.skeleton", lib.assign_signs, sk)
    out = {"vertices": [[word(v), i] for v, i in sk.vertices],
           "edges": [[word(e.source), word(e.target), e.kind, e.sign]
                     for e in sk.edges]}
    if spec["format"] == "dot":
        sb = sk.block
        support = []
        if sb.contains_max_rep(sk.base):
            support = words(tr.call("mobius.support", lib.support_X,
                                    sk.base, sb).flatten())
        out["bold"] = [word(v) for v, _ in sk.vertices if sb.contains_max_rep(v)]
        out["support"] = sorted(support)
    return out


# Stage variants of ``complex`` queries, taken in turn with the formats.
COMPLEX_VARIANTS = [("regular", False), ("regular", True), ("translated", False),
                    ("singular", False)]
COMPLEX_FORMATS = ["text", "json", "dot"]


def plan(a: dict) -> dict:
    """Lay out the queries and compute their expected answers.

    The layout is stratified and the same for every seed: per group, the
    k-th query takes |S| = 1 + k mod (rank - 1) and the k-th format in turn,
    and the j-th ``complex`` query the j-th stage variant and format.  The
    seed draws the singular set of that size, the elements (uniformly from
    all longest representatives of the block) and the order.
    """
    import singbgg as lib

    rng = random.Random(a["seed"])
    tr = Tracer("plan", False)
    tables = {}

    def table_for(g):
        if g not in tables:
            tables[g] = lib.kl_table(g)
        return tables[g]

    specs = []
    turn = Counter()
    for cmd, counts in a["mix"]:
        for name, n in zip(a["groups"], counts):
            g = lib.build_group(lib.CartanType(name[0], int(name[1:])))
            for _ in range(n):
                k = turn[name]
                turn[name] += 1
                size = 1 + k % (g.rank - 1)
                S = rng.choice([S for S in subsets(g.rank) if len(S) == size])
                reps = lib.make_block(g, S).max_reps
                spec = {"group": name, "cmd": cmd, "S": list(S),
                        "format": ["text", "json"][k % 2]}
                if cmd in ("kostant", "complex"):
                    spec["w"] = word(rng.choice(reps))
                if cmd in ("klv", "mobius", "klpoly"):
                    w = rng.choice(reps)
                    x = rng.choice([x for x in reps if lib.leq(w, x)])
                    if cmd == "klpoly":
                        spec.update(y=word(w), w=word(x))
                        del spec["S"]
                    else:
                        spec.update(w=word(w), x=word(x))
                if cmd == "complex":
                    j = turn[name, cmd]
                    turn[name, cmd] += 1
                    spec["stage"], spec["signs"] = COMPLEX_VARIANTS[j % 4]
                    spec["format"] = COMPLEX_FORMATS[j % 3]
                specs.append(spec)
    rng.shuffle(specs)
    expected = [answer(lib, tr, spec, table_for) for spec in specs]
    return {"specs": specs, "expected": expected}


def setup(a: dict) -> dict:
    """A cold-cache set-up of one group, as ``bgg --cache`` makes it: group,
    order, KL table and ``save_table``, with spans around every call."""
    tr = Tracer(a["run_id"], True)
    root = tr.open("bench.setup")
    import singbgg as lib

    g = group_setup(lib, tr, a["group"])[0]
    t = tr.call("klpoly.build", lib.kl_table, g)
    tr.count("klpoly.stored", len(t))  # representation-specific: recorded only
    tr.call("klpoly.save", lib.save_table, t, a["cache"])
    tr.count("klpoly.cache_bytes", os.path.getsize(a["cache"]))
    tr.close(root)
    return {"trace": tr.report()}


def replay(a: dict) -> dict:
    """One query in a fresh process, with spans around every library call."""
    tr = Tracer(a["run_id"], True)
    root = tr.open("cli.query")
    t0 = time.perf_counter()
    import singbgg as lib
    import singbgg.cli  # noqa: F401  (the import a bgg process pays)

    tr.totals["cli.import"] += time.perf_counter() - t0
    tr.spans.append(["cli.import", t0 - T_START, time.perf_counter() - T_START,
                     root, tr.run_id])
    spec = a["spec"]

    def table_for(g):
        t = tr.call("klpoly.load", lib.load_table, g, a["caches"][spec["group"]])
        tr.count("klpoly.stored", len(t))
        return t

    ans = answer(lib, tr, spec, table_for)
    if "reps" in ans:
        tr.count("parabolic.cosets", len(ans["reps"]))
        tr.count("complexes.reps", len(ans["reps"]))
        tr.count("complexes.nonkostant", len(ans["nonkostant"]))
    if spec["cmd"] == "klpoly" or spec["cmd"] == "klv":
        tr.count("klpoly.reads", 1)
    tr.close(root)
    return {"answer": ans, "trace": tr.report()}


MODES = {"classify": classify, "kltable": kltable, "plan": plan, "setup": setup,
         "replay": replay}

if __name__ == "__main__":
    result = MODES[sys.argv[1]](json.loads(sys.argv[2]))
    sys.stdout.write(json.dumps(result) + "\n")
