"""Export the three stages of a singular BGG complex as DOT graphs.

Writes regular/translated/singular skeletons for w = s1 s2 in A3 with the
middle root singular.  Usage: `python demos/export_complex_dot.py [DIR]`;
without DIR the files go to a fresh temporary directory, whose path is
printed.  Render with e.g. `dot -Tpdf DIR/translated.dot`.
Longest coset representatives come out bold, support members get a double
ring, and equality edges are drawn as undirected double lines.
"""

import os
import sys
import tempfile

from singbgg import CartanType, build_group, make_block, regular_skeleton, \
    singular_skeleton, translate_skeleton, assign_signs
from singbgg.cli import emit_dot

out_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="singbgg-dot-")
os.makedirs(out_dir, exist_ok=True)
print(f"writing to {out_dir}")

g = build_group(CartanType("A", 3))
b = make_block(g, {2})
w = g.from_word([1, 2])

stages = {
    "regular.dot": assign_signs(regular_skeleton(g, w)),
    "translated.dot": translate_skeleton(regular_skeleton(g, w), b),
    "singular.dot": singular_skeleton(g.from_word([1, 2, 1]), b),
}
for name, sk in stages.items():
    text = emit_dot(sk)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text + "\n")
    print(f"wrote {name}: {len(sk.vertices)} vertices, {len(sk.edges)} edges")
