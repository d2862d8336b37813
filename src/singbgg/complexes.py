"""Skeletons of BGG complexes and the exactness decision.

A skeleton is a graded vertex set with arrows from higher to lower degree.
The regular skeleton of w is the full upper Bruhat interval [w, w0] with its
cover arrows; translating to a singular block turns same-coset arrows into
equality edges; cutting those out leaves the singular skeleton supported on
X_w.  Exactness of the singular complex is decided purely combinatorially:
for every x above w in the block poset the dominant-side singular polynomial
must equal the absolute value of the block Möbius number.  A block is
scanned top-down, witnesses first: each representative first tries the x
at which a higher one failed.  Results are in index order.

The singular polynomials are the alternating sums of P_{y u, z} over the u
in the block's parabolic subgroup W_S (`klv_polynomial`), summed by
`klpoly._coset_sum` over the block's coset map.  The dominant-side one of a
pair (w, x) of longest representatives is this sum on the block's own
cosets at (w0 x, w0 w) (`klv_dominant`), which is the paper's sum at
(x w0, w w0) for w0 S w0.  `_failing_rep` proves that, and two exact facts
that cut the scan's work.  A KL column of all ones at z = w0 w is a
certificate: every sum then equals |mu(w, x)|, so w is exact without reading
one.  By the Carrell-Peterson criterion (Proc. Sympos. Pure Math. 56,
1994) such a column is one whose Schubert variety is rationally smooth.  And
a sum only depends on the double coset W_{D_L(z)} (w0 x) W_S, so it is
computed once per double coset, keyed by the table's left climb.

Every stage is built on element indices: the up mask of w, the cover graph,
the block's coset map and the index matchings of `parabolic`.  Index order is
(length, ShortLex word) order, so vertices and edges come out sorted with no
sort.  An Element is made once per vertex; edges share their endpoints'.
Skeletons and their edges are immutable named tuples, compared by value.
"""

from __future__ import annotations

from collections import namedtuple

from .bruhat import cover_graph, iter_indices, leq, up_masks
from .errors import DomainError
from .klpoly import IntPolynomial, KLTable, _coset_sum, _unpack
from .mobius import _mobius_row, support_X
from .parabolic import (
    SingularBlock,
    _closure,
    _intersection_pairs,
    complementary_singularity,
    make_block,
)
from .weyl import Element, WeylGroup, check_same_group


class SkeletonEdge(namedtuple("SkeletonEdge", "source target kind sign",
                              defaults=(None,))):
    """An arrow of a skeleton, from source (higher degree) to target (lower
    degree); kind is "morphism" or "equality".  Immutable, equal and hashed
    by value."""

    __slots__ = ()


class ComplexSkeleton(namedtuple("ComplexSkeleton", "base block vertices edges kind")):
    """A graded vertex set with arrows from higher to lower degree.

    vertices are (element, degree) pairs in index order, edges are sorted by
    (target, source), and kind is "regular", "translated" or "singular".
    """

    __slots__ = ()

    def elements(self) -> list[Element]:
        return [v for v, _ in self.vertices]


def regular_skeleton(g: WeylGroup, w: Element) -> ComplexSkeleton:
    """Full interval [w, w0] with cover arrows, graded by l(x) - l(w)."""
    check_same_group(g, w)
    b = make_block(g, frozenset())
    lw = w.length
    upper = cover_graph(g).upper
    verts = {xi: g.element_by_index(xi) for xi in iter_indices(up_masks(g)[w.index])}
    # the upper covers of x >= w lie in [w, w0], each row ascending
    edges = [SkeletonEdge(source=verts[yi], target=x, kind="morphism")
             for xi, x in verts.items() for yi in upper[xi]]
    vertices = [(x, x.length - lw) for x in verts.values()]
    return ComplexSkeleton(base=w, block=b, vertices=vertices, edges=edges, kind="regular")


def translate_skeleton(sk: ComplexSkeleton, b: SingularBlock) -> ComplexSkeleton:
    """Mark same-coset arrows as equality edges; vertices unchanged."""
    check_same_group(b.group, sk.block)
    if sk.kind != "regular":
        raise DomainError(f"translation applies to regular skeletons, got {sk.kind}")
    coset = b._coset
    edges = [
        SkeletonEdge(source=e.source, target=e.target, kind="equality")
        if coset[e.source.index][0] == coset[e.target.index][0] else e
        for e in sk.edges
    ]
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
    g = b.group
    coset = b._coset
    members: dict[int, list[int]] = {}
    for v, _ in sk.vertices:
        members.setdefault(coset[v.index][0], []).append(v.index)
    up_w = up_masks(g)[sk.base.index]
    for zs in members.values():
        if len(zs) == 1:
            if not b._maxrep_mask >> zs[0] & 1:
                raise AssertionError(
                    f"lone coset element {g.element_by_index(zs[0])!r} is not "
                    f"the longest representative"
                )
        # validates the matching; every paired vertex is removed
        elif 2 * len(_intersection_pairs(zs[0], up_w, b)) != len(zs):
            raise AssertionError("equality matching is not perfect")
    verts = [(v, i) for v, i in sk.vertices if len(members[coset[v.index][0]]) == 1]
    return ComplexSkeleton(base=sk.base, block=b, vertices=verts,
                           edges=_stratum_edges(verts, g), kind="singular")


def _stratum_edges(verts: list[tuple[Element, int]], g: WeylGroup) -> list[SkeletonEdge]:
    """Arrows x' -> x between vertices one degree apart with x <= x'; the
    vertices are in index order, so the arrows come out sorted by target."""
    by_deg: dict[int, list[Element]] = {}
    for x, i in verts:
        by_deg.setdefault(i, []).append(x)
    up = up_masks(g)
    return [SkeletonEdge(source=xp, target=x, kind="morphism")
            for x, i in verts for xp in by_deg.get(i + 1, ())
            if up[x.index] >> xp.index & 1]


def singular_skeleton(w: Element, b: SingularBlock) -> ComplexSkeleton:
    """Direct construction from the graded support, bypassing translation."""
    gs = support_X(w, b)  # checks w's group and that w is a longest representative
    verts = [
        (x, i) for i, stratum in enumerate(gs.strata) for x in stratum
    ]
    return ComplexSkeleton(
        base=w, block=b, vertices=verts, edges=_stratum_edges(verts, b.group),
        kind="singular",
    )


def assign_signs(sk: ComplexSkeleton) -> ComplexSkeleton:
    """Attach +-1 to the arrows of a regular skeleton so that every square
    anticommutes; among valid signings the lexicographically smallest over
    the deterministic edge order is chosen (sign +1 preferred)."""
    if sk.kind != "regular":
        raise DomainError(f"signs are assigned to regular skeletons, got {sk.kind}")
    edges = sk.edges
    # arrows as (source, target) index pairs -> variable
    var = {(e.source.index, e.target.index): i for i, e in enumerate(edges)}
    out_arrows: dict[int, list[int]] = {}
    for src, dst in var:
        out_arrows.setdefault(src, []).append(dst)

    rows: list[tuple[int, int]] = []  # (variable bitmask, rhs bit)
    for top, mids in out_arrows.items():
        bottoms: dict[int, list[int]] = {}
        for y in mids:
            for z in out_arrows.get(y, ()):
                bottoms.setdefault(z, []).append(y)
        for z, ys in bottoms.items():
            if len(ys) != 2:
                el = sk.block.group.element_by_index
                raise AssertionError(
                    f"length-two interval [{el(z)!r}, {el(top)!r}] has {len(ys)} "
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
        SkeletonEdge(source=e.source, target=e.target, kind=e.kind,
                     sign=-1 if sol >> i & 1 else 1)
        for i, e in enumerate(edges)
    ]
    return ComplexSkeleton(
        base=sk.base, block=sk.block, vertices=list(sk.vertices), edges=signed,
        kind="regular",
    )


def klv_polynomial(
    t: KLTable, b_mu: SingularBlock, y: Element, z: Element
) -> IntPolynomial:
    """Alternating sum of P_{y u, z} over u in the parabolic subgroup of b_mu.

    Both arguments must be minimal coset representatives for b_mu.
    """
    check_same_group(t.group, b_mu, y, z)
    for e in (y, z):
        if not b_mu.contains_min_rep(e):
            raise DomainError(f"{e!r} is not a minimal coset representative")
    return IntPolynomial(_unpack(_coset_sum(t, b_mu._coset[y.index], b_mu._signs, z.index)))


def klv_dominant(
    t: KLTable, b: SingularBlock, w: Element, x: Element
) -> IntPolynomial:
    """The exactness-test polynomial for the pair (w, x) of longest
    representatives: b's singular polynomial at (w0 x, w0 w), the paper's
    at (x w0, w w0) for w0 S w0 (proof at `_failing_rep`)."""
    check_same_group(t.group, b, w, x)
    for e in (w, x):
        if not b.contains_max_rep(e):
            raise DomainError(f"{e!r} is not a longest coset representative")
    if not leq(w, x):
        raise DomainError(f"requires w <= x; got w={w!r}, x={x!r}")
    lw0 = b.group.lmul_w0_indices()
    return IntPolynomial(_unpack(_coset_sum(t, b._coset[lw0[x.index]], b._signs,
                                            lw0[w.index])))


def is_kostant(w: Element, b: SingularBlock, t: KLTable) -> bool:
    """Exactness test: for every representative x above w, the dominant-side
    singular polynomial (`klv_dominant`, b's own coset sum at (w0 x, w0 w))
    must be the constant |Möbius value|."""
    check_same_group(b.group, w, t)
    if not b.contains_max_rep(w):
        raise DomainError(f"{w!r} is not a longest coset representative")
    return _failing_rep(w.index, b, t, 0) < 0


def _failing_rep(wi: int, b: SingularBlock, t: KLTable, first: int) -> int:
    """Index of a longest representative x >= w_wi whose dominant-side sum
    is not |mu(w, x)|, or -1; the x in mask `first` are tried first.

    The paper's sum is the coset sum for sigma(S) = w0 S w0 at (x w0, w w0).
    Conjugation by w0 is an automorphism of (W, S), so it keeps lengths, the
    Bruhat order and every P_{y,v} (Kazhdan and Lusztig, Invent. Math. 53,
    1979), and maps w w0 onto w0 w and x w0 u onto (w0 x)(w0 u w0) with
    w0 u w0 in W_S.  So with z = w0 w, J = S and x' = w0 x, a minimal
    representative, the sum is that of (-1)^l(u) P_{x'u, z} over the u in
    W_J with x'u <= z.

    Certificate.  If column z is empty, P_{y,z} = 1 for every y <= z and w
    is exact.  The u with x'u <= z form the interval [e, u_max] of W_J,
    x'u_max being the unique maximum of [e, z] in x'W_J (`coset_extremum`),
    and Bruhat intervals are Eulerian, so the sum is 1 if u_max = e and 0
    otherwise.  u_max = e iff x's <= z for no s in J, iff [x', z] lies in
    W^J by the lifting property (Björner and Brenti, "Combinatorics of
    Coxeter Groups", GTM 231: Prop. 2.2.7 and section 2.7).  Left
    multiplication by w0 reverses the order and turns minimal
    representatives into longest ones, so that is [w, x] lying in the
    block, which is mu(w, x) != 0.

    Shared sums.  For s in D_L(z), P_{sy,z} = P_{y,z}, and y <= z iff
    sy <= z.  Left multiplication by s maps x'W_J onto s x'W_J with the
    same u, or fixes it and pairs its terms with opposite signs, which
    sums to 0.  So the sum depends only on the double coset
    W_{D_L(z)} x' W_J, and is computed once per double coset, keyed by its
    maximum: the left climb of z's table key applied to the top of x'W_J.
    """
    lw0 = b.group.lmul_w0_indices()
    zi = lw0[wi]
    if not t._cols[zi]:
        return -1
    coset, signs = b._coset, b._signs
    cl = t._keys[zi][0]
    sums: dict[int, int] = {}
    for xi, nonzero in _mobius_row(b, wi, first):
        c = coset[lw0[xi]]
        m = cl[c[-1]]
        p = sums.get(m)
        if p is None:
            p = sums[m] = _coset_sum(t, c, signs, zi)
        if p != nonzero:  # |mu(w, x)| is 1 or 0
            return xi
    return -1


def nonkostant_block(g: WeylGroup, S, t: KLTable) -> list[Element]:
    """All longest representatives whose singular complex is not exact, in
    index order.  The scan runs top-down; each w first tries the witnesses,
    the x at which a higher representative failed.  A w whose KL column at
    w0 w is all ones is exact at once, and the others compute one sum per
    double coset (see `_failing_rep`)."""
    check_same_group(g, t)
    b = make_block(g, S)
    witnesses = 0
    bad = []
    for wi in reversed(b._maxrep_indices):
        xi = _failing_rep(wi, b, t, witnesses)
        if xi >= 0:
            witnesses |= 1 << xi
            bad.append(wi)
    return [g.element_by_index(wi) for wi in reversed(bad)]


def dominant_support(b: SingularBlock) -> set[Element]:
    """Support of the most singular dominant parameter: the complementary
    parabolic subgroup times the longest singular element."""
    g = b.group
    w0i = b._wlambda_indices[-1]
    # the coset W_{S^c} w0_lambda
    out = _closure(w0i, [g._lmul[s - 1] for s in complementary_singularity(b)])
    if out != [xi for xi, nonzero in _mobius_row(b, w0i) if nonzero]:
        raise AssertionError("closed-form support disagrees with the Möbius support")
    return {g.element_by_index(i) for i in out}


def s_category_has_bgg(w: Element, b: SingularBlock, t: KLTable) -> bool:
    """Whether the quotient-category image of the simple module of w admits a
    BGG resolution: equivalent to exactness for the inverse element's
    singular parameter."""
    check_same_group(b.group, w, t)
    wi = b.group._inv[w.index]
    if not b._maxrep_mask >> wi & 1:
        raise DomainError(
            f"{w!r} is not a longest right-coset representative"
        )
    return _failing_rep(wi, b, t, 0) < 0
