"""Regenerate ``bench/expected.json``, the frozen answers the benchmark checks.

    PYTHONPATH=src python3 bench/freeze.py

Non-Kostant sets come from ``tests/golden_tables.py`` wherever it has them
(A3, B3, A4, B4, D4 up to diagram automorphisms, and F4 {2,3,4}); the other
F4 blocks, the group invariants and the KL-table digests come from the
package as it stands.  The script refuses to write if the package disagrees
with a golden row.  Run it only on a commit whose tables are trusted: the
file it writes is the reference every later commit is measured against.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from pathlib import Path

import worker

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH.parent / "tests" / "golden_tables.py"

CLASSIFY_GROUPS = ["A3", "B3", "A4", "B4", "D4", "F4"]
KLTABLE_GROUPS = ["B3", "D5"]
CLI_GROUPS = ["B4", "F4"]

# Diagram automorphisms the golden tables are listed up to.
AUTOS = {
    "A3": [{1: 3, 2: 2, 3: 1}],
    "A4": [{1: 4, 2: 3, 3: 2, 4: 1}],
    "D4": [{1: a, 2: 2, 3: b, 4: c} for a, b, c in
           [(1, 3, 4), (1, 4, 3), (3, 1, 4), (3, 4, 1), (4, 1, 3), (4, 3, 1)]],
}


def golden_blocks(lib, name: str) -> dict[str, str]:
    """Digest of the golden non-Kostant set of every block the tables fix.

    For A3, B3, A4, B4 and D4 every block is fixed (unlisted blocks are
    empty); for F4 only {2,3,4} is.
    """
    spec = importlib.util.spec_from_file_location("golden_tables", GOLDEN)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    table = mod.TABLES[(name[0], int(name[1:]))]
    g = lib.build_group(lib.CartanType(name[0], int(name[1:])))

    def digest_of(rows) -> str:
        return worker.digest(sorted(worker.word(g.from_word(w)) for w in rows))

    if name == "F4":
        return {"2,3,4": digest_of(table[(2, 3, 4)])}
    out = {}
    for S in worker.subsets(g.rank):
        rows = table.get(S)
        for p in AUTOS.get(name, []):
            if rows is not None:
                break
            mapped = tuple(sorted(p[i] for i in S))
            if mapped in table:
                inv = {v: k for k, v in p.items()}
                rows = [[inv[c] for c in w] for w in table[mapped]]
        out[",".join(map(str, S))] = digest_of(rows or [])
    return out


def main() -> int:
    os.environ["BGG_ELEMENT_BUDGET"] = "1920"
    import singbgg as lib

    tr = worker.Tracer("freeze", False)
    groups = {}
    for name in sorted(set(CLASSIFY_GROUPS + KLTABLE_GROUPS + CLI_GROUPS)):
        g, down, inv = worker.group_setup(lib, tr, name)
        entry = dict(inv)
        t = lib.kl_table(g)
        if name in CLASSIFY_GROUPS:
            golden = golden_blocks(lib, name)
            blocks = {}
            for S in worker.subsets(g.rank):
                key = ",".join(map(str, S))
                bad = lib.nonkostant_block(g, S, t)
                d = worker.digest(sorted(worker.words(bad)))
                if key in golden and golden[key] != d:
                    print(f"{name} S={{{key}}}: package disagrees with the golden "
                          f"table; nothing written", file=sys.stderr)
                    return 1
                blocks[key] = {"reps": len(lib.make_block(g, S).max_reps),
                               "nonkostant": len(bad), "digest": d}
            entry["blocks"] = blocks
        if name in KLTABLE_GROUPS:
            codes_of: dict = {}
            codes_hash = worker.read_all(tr, t, g.elements(), down, codes_of, [])[0]
            entry["kl_digest"] = worker.kl_digest(codes_of, codes_hash)
        groups[name] = entry
        print(name, {k: v for k, v in entry.items() if k != "blocks"}, file=sys.stderr)
    (BENCH / "expected.json").write_text(json.dumps({"groups": groups}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
