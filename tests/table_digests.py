"""Digests of KL tables and block classifications, to compare two commits by hand.

    PYTHONPATH=src python3 tests/table_digests.py A4 B4 D4 F4 A5 D5 B5 A6
    PYTHONPATH=src python3 tests/table_digests.py --json A5 D5

For each named group the first form prints a SHA-256 of the table's
values: the coefficient tuple of every comparable pair (y, w), read through
``polynomial_by_index`` in index order of w, then of y.  It does not depend
on how the table stores its entries or on the cache format, so two commits
compare across a format change.  Then it prints one line per block: the
singular set, the number of longest representatives, the number of
non-Kostant modules and the SHA-256 of their sorted ShortLex words (the
digest form of ``bench/expected.json``).  Run it on both commits and compare
the lines.

The second form prints the block data alone as JSON.
``tests/data/rank5_blocks.json`` was written by it, and the acceptance test
that reads that file recomputes the blocks through ``block_digests`` below.

The script raises the element budget to 10,000, or to ``BGG_ELEMENT_BUDGET``
where that is higher; A6 (5,040 elements) takes about 10 s and 150 MB, and
D6 (23,040 elements, with ``BGG_ELEMENT_BUDGET=23040``) takes minutes and
a few hundred MB.  The file is not collected by pytest.
"""

from __future__ import annotations

import hashlib
import json
import sys

from helpers import all_singularities
from singbgg import CartanType, build_group, kl_table, make_block, nonkostant_block
from singbgg.bruhat import down_masks, iter_indices
from singbgg.weyl import _element_budget


def word(e) -> str:
    return "".join(map(str, e.reduced_word())) or "e"


def digest(words: list[str]) -> str:
    """SHA-256 of the sorted words as compact JSON."""
    return hashlib.sha256(json.dumps(sorted(words), separators=(",", ":")).encode()).hexdigest()


def classify(g, t) -> dict[tuple[int, ...], list]:
    """The non-Kostant set of every block of g, keyed by the sorted singular set."""
    return {tuple(sorted(S)): nonkostant_block(g, S, t) for S in all_singularities(g.rank)}


def block_digests(g, sets: dict[tuple[int, ...], list]) -> dict[str, dict]:
    """{"1,3": {"reps", "nonkostant", "digest"}} for every block of g, from
    the non-Kostant sets that classify returns."""
    return {",".join(map(str, S)): {"reps": len(make_block(g, S).max_reps),
                                     "nonkostant": len(bad),
                                     "digest": digest([word(e) for e in bad])}
            for S, bad in sets.items()}


def table_sha256(t) -> str:
    """SHA-256 of the reprs of P_{y,w} for every y <= w, w then y in index order."""
    h = hashlib.sha256()
    for wi, down in enumerate(down_masks(t.group)):
        for yi in iter_indices(down):
            h.update(repr(t.polynomial_by_index(yi, wi)).encode())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    as_json = argv[:1] == ["--json"]
    names = argv[1:] if as_json else argv
    if not names:
        print(__doc__, file=sys.stderr)
        return 2
    budget = max(10_000, _element_budget())
    out = {}
    for name in names:
        g = build_group(CartanType(name[0], int(name[1:])), budget=budget)
        t = kl_table(g)
        blocks = block_digests(g, classify(g, t))
        if as_json:
            out[name] = blocks
            continue
        print(f"{name} table {table_sha256(t)}")
        for key, b in blocks.items():
            print(f"{name} {{{key}}} {b['reps']} {b['nonkostant']} {b['digest']}")
    if as_json:
        print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
