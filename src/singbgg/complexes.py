"""Skeletons of BGG complexes and the exactness decision.

A skeleton is a graded vertex set with arrows from higher to lower degree.
The regular skeleton of w is the full upper Bruhat interval [w, w0] with its
cover arrows; translating to a singular block turns same-coset arrows into
equality edges; cutting those out leaves the singular skeleton supported on
X_w.  Exactness of the singular complex is decided purely combinatorially:
for every x above w in the block poset the dominant-side singular polynomial
must equal the absolute value of the block Möbius number.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bruhat import iter_indices, leq, up_masks, upper_covers
from .errors import DomainError
from .klpoly import KLTable, _dominant_sum
from .mobius import _mobius_row, support_X
from .parabolic import (
    SingularBlock,
    _intersection_pairs,
    complementary_singularity,
    make_block,
)
from .weyl import Element, WeylGroup


@dataclass(frozen=True)
class SkeletonEdge:
    source: Element  # higher degree
    target: Element  # lower degree
    kind: str  # "morphism" or "equality"
    sign: int | None = None


@dataclass
class ComplexSkeleton:
    base: Element
    block: SingularBlock
    vertices: list[tuple[Element, int]]  # (element, degree), sorted
    edges: list[SkeletonEdge]
    kind: str  # "regular", "translated" or "singular"

    def degree_of(self, x: Element) -> int:
        for v, i in self.vertices:
            if v == x:
                return i
        raise DomainError(f"{x!r} is not a vertex")

    def elements(self) -> list[Element]:
        return [v for v, _ in self.vertices]


def _edge_key(e: SkeletonEdge):
    return (e.target.length, e.target.reduced_word(), e.source.reduced_word())


def regular_skeleton(g: WeylGroup, w: Element) -> ComplexSkeleton:
    """Full interval [w, w0] with cover arrows, graded by l(x) - l(w)."""
    b = make_block(g, frozenset())
    lw = w.length
    verts = []
    edges = []
    for xi in iter_indices(up_masks(g)[w.index]):
        x = g.element_by_index(xi)
        verts.append((x, x.length - lw))
        for xp in upper_covers(x):
            edges.append(SkeletonEdge(source=xp, target=x, kind="morphism"))
    verts.sort(key=lambda p: (p[1], p[0].reduced_word()))
    edges.sort(key=_edge_key)
    return ComplexSkeleton(base=w, block=b, vertices=verts, edges=edges, kind="regular")


def translate_skeleton(sk: ComplexSkeleton, b: SingularBlock) -> ComplexSkeleton:
    """Mark same-coset arrows as equality edges; vertices unchanged."""
    if sk.kind != "regular":
        raise DomainError(f"translation applies to regular skeletons, got {sk.kind}")
    coset_of = b._coset_of
    edges = []
    for e in sk.edges:
        if coset_of[e.source.index] == coset_of[e.target.index]:
            edges.append(replace(e, kind="equality", sign=None))
        else:
            edges.append(e)
    return ComplexSkeleton(
        base=sk.base, block=b, vertices=list(sk.vertices), edges=edges,
        kind="translated",
    )


def cut_equalities(sk: ComplexSkeleton) -> ComplexSkeleton:
    """Remove matched equality pairs coset by coset; survivors are exactly the
    cosets meeting the interval in a single element."""
    if sk.kind != "translated":
        raise DomainError(f"cut applies to translated skeletons, got {sk.kind}")
    b = sk.block
    w = sk.base
    cosets: dict[int, list[Element]] = {}
    for v in sk.elements():
        cosets.setdefault(b._coset_of[v.index], []).append(v)
    survivors = []
    for members in cosets.values():
        if len(members) == 1:
            x = members[0]
            if not b.contains_max_rep(x):
                raise AssertionError(
                    f"lone coset element {x!r} is not the longest representative"
                )
            survivors.append(x)
        else:
            # validates the matching; every paired vertex is removed
            pairs = _intersection_pairs(members, b)
            if 2 * len(pairs) != len(members):
                raise AssertionError("equality matching is not perfect")
    lw = w.length
    verts = sorted(
        ((x, x.length - lw) for x in survivors),
        key=lambda p: (p[1], p[0].reduced_word()),
    )
    edges = _stratum_edges(verts)
    return ComplexSkeleton(base=w, block=b, vertices=verts, edges=edges, kind="singular")


def _stratum_edges(verts: list[tuple[Element, int]]) -> list[SkeletonEdge]:
    by_deg: dict[int, list[Element]] = {}
    for x, i in verts:
        by_deg.setdefault(i, []).append(x)
    edges = []
    for i, lower in sorted(by_deg.items()):
        for xp in by_deg.get(i + 1, ()):
            for x in lower:
                if leq(x, xp):
                    edges.append(SkeletonEdge(source=xp, target=x, kind="morphism"))
    edges.sort(key=lambda e: (e.target.length, e.target.reduced_word(),
                              e.source.reduced_word()))
    return edges


def singular_skeleton(w: Element, b: SingularBlock) -> ComplexSkeleton:
    """Direct construction from the graded support, bypassing translation."""
    if not b.contains_max_rep(w):
        raise DomainError(f"{w!r} is not a longest coset representative")
    gs = support_X(w, b)
    verts = [
        (x, i) for i, stratum in enumerate(gs.strata) for x in stratum
    ]
    return ComplexSkeleton(
        base=w, block=b, vertices=verts, edges=_stratum_edges(verts), kind="singular",
    )


def assign_signs(sk: ComplexSkeleton) -> ComplexSkeleton:
    """Attach +-1 to the arrows of a regular skeleton so that every square
    anticommutes; among valid signings the lexicographically smallest over
    the deterministic edge order is chosen (sign +1 preferred)."""
    if sk.kind != "regular":
        raise DomainError(f"signs are assigned to regular skeletons, got {sk.kind}")
    edges = sk.edges
    var = {(e.source, e.target): i for i, e in enumerate(edges)}
    out_arrows: dict[Element, list[Element]] = {}
    for e in edges:
        out_arrows.setdefault(e.source, []).append(e.target)

    rows: list[tuple[int, int]] = []  # (variable bitmask, rhs bit)
    for top, mids in out_arrows.items():
        bottoms: dict[Element, list[Element]] = {}
        for y in mids:
            for z in out_arrows.get(y, ()):
                bottoms.setdefault(z, []).append(y)
        for z, ys in bottoms.items():
            if len(ys) != 2:
                raise AssertionError(
                    f"length-two interval [{z!r}, {top!r}] has {len(ys)} "
                    f"intermediate elements, expected 2"
                )
            y1, y2 = ys
            mask = (1 << var[(top, y1)]) | (1 << var[(y1, z)])
            mask |= (1 << var[(top, y2)]) | (1 << var[(y2, z)])
            rows.append((mask, 1))

    # GF(2) elimination with pivot = highest variable in each row; free
    # variables read as 0, which yields the lexicographically smallest signing.
    pivots: dict[int, tuple[int, int]] = {}
    for mask, rhs in rows:
        while mask:
            p = mask.bit_length() - 1
            if p not in pivots:
                pivots[p] = (mask, rhs)
                break
            pm, pr = pivots[p]
            mask ^= pm
            rhs ^= pr
        else:
            if rhs:
                raise AssertionError("square sign constraints are inconsistent")
    sol = 0
    for p in sorted(pivots):
        mask, rhs = pivots[p]
        bit = rhs ^ (bin((mask ^ (1 << p)) & sol).count("1") & 1)
        sol |= bit << p
    signed = [
        replace(e, sign=-1 if sol >> i & 1 else 1) for i, e in enumerate(edges)
    ]
    return ComplexSkeleton(
        base=sk.base, block=sk.block, vertices=list(sk.vertices), edges=signed,
        kind="regular",
    )


def is_kostant(w: Element, b: SingularBlock, t: KLTable) -> bool:
    """Exactness test: for every representative x above w, the dominant-side
    singular polynomial must be the constant |Möbius value|."""
    if not b.contains_max_rep(w):
        raise DomainError(f"{w!r} is not a longest coset representative")
    return _is_kostant_index(w.index, b, t)


def _is_kostant_index(wi: int, b: SingularBlock, t: KLTable) -> bool:
    """is_kostant on element indices: |mu(w, x)| is 0 or 1 on the block poset."""
    zi = b.group.rmul_w0_indices()[wi]
    terms = b._dominant_terms
    for xi, nonzero in _mobius_row(b, wi):
        if _dominant_sum(t, terms[xi], zi) != ((1,) if nonzero else ()):
            return False
    return True


def nonkostant_block(g: WeylGroup, S, t: KLTable) -> list[Element]:
    """All longest representatives whose singular complex is not exact,
    sorted by (length, ShortLex word)."""
    b = make_block(g, S)
    return [
        g.element_by_index(wi)
        for wi in b._maxrep_indices
        if not _is_kostant_index(wi, b, t)
    ]


def dominant_support(b: SingularBlock) -> set[Element]:
    """Support of the most singular dominant parameter: the complementary
    parabolic subgroup times the longest singular element."""
    g = b.group
    comp = make_block(g, complementary_singularity(b))
    out = {u * b.w0_lambda for u in comp.W_lambda}
    if out != set(support_X(b.w0_lambda, b).flatten()):
        raise AssertionError("closed-form support disagrees with the Möbius support")
    return out


def s_category_has_bgg(w: Element, b: SingularBlock, t: KLTable) -> bool:
    """Whether the quotient-category image of the simple module of w admits a
    BGG resolution: equivalent to exactness for the inverse element's
    singular parameter."""
    if not b.contains_max_rep(w.inverse()):
        raise DomainError(
            f"{w!r} is not a longest right-coset representative"
        )
    return is_kostant(w.inverse(), b, t)
