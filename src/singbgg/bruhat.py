"""Bruhat order: cover relations, comparisons and intervals.

The cover graph is built once per group from the left multiplication table
by the lifting property (Bjorner-Brenti, Combinatorics of Coxeter Groups,
2.2).  Order queries use transitive-closure bitmasks over the element
indexing, so `leq` and interval extraction are O(1)-ish big-integer
operations; only `leq` above the element budget recurses on permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .errors import DomainError, InputError
from .weyl import Element, WeylGroup, _compose, _invert, _num_inversions


@dataclass
class CoverGraph:
    """Upper and lower covers per element index."""

    group: WeylGroup
    upper: list[list[int]]
    lower: list[list[int]]


def cover_graph(g: WeylGroup) -> CoverGraph:
    """Covers by the lifting property, in index order.

    For w != e let s be the first letter of its ShortLex word and v = s*w.
    The lower covers of w are v and the s*c > c over the lower covers c of v.
    """
    g.require_enumerated()
    if g._covers_upper is None:
        lmul, words = g._lmul, g._words
        upper: list[list[int]] = [[] for _ in range(g.order)]
        lower: list[list[int]] = [[] for _ in range(g.order)]
        for w in range(1, g.order):
            row = lmul[words[w][0] - 1]
            v = row[w]
            low = [v] + [row[c] for c in lower[v] if row[c] > c]
            low.sort()
            lower[w] = low
            for c in low:
                upper[c].append(w)
        g._covers_upper, g._covers_lower = upper, lower
    return CoverGraph(g, g._covers_upper, g._covers_lower)


def down_masks(g: WeylGroup) -> list[int]:
    """down_masks(g)[i] has bit j set iff w_j <= w_i in Bruhat order."""
    if g._down_masks is None:
        g._down_masks = _closure(cover_graph(g).lower, range(g.order))
    return g._down_masks


def up_masks(g: WeylGroup) -> list[int]:
    """up_masks(g)[i] has bit j set iff w_i <= w_j in Bruhat order."""
    if g._up_masks is None:
        g._up_masks = _closure(cover_graph(g).upper, range(g.order - 1, -1, -1))
    return g._up_masks


def _closure(covers: list[list[int]], order) -> list[int]:
    """Reflexive-transitive closure of covers; order lists each row after its covers."""
    masks = [0] * len(covers)
    for i in order:
        m = 1 << i
        for j in covers[i]:
            m |= masks[j]
        masks[i] = m
    return masks


def _check_same_group(u: Element, v: Element) -> WeylGroup:
    if u.group is not v.group:
        raise InputError("elements belong to different groups")
    return u.group


def leq(u: Element, v: Element) -> bool:
    """True iff u <= v in Bruhat order."""
    g = _check_same_group(u, v)
    if g.enumerated:
        return bool(down_masks(g)[v.index] >> u.index & 1)
    return _leq_recursive(g, u.perm, v.perm)


def _leq_recursive(g: WeylGroup, pu, pv) -> bool:
    """Descent recursion: leq(u, v) = leq(min(u, su), sv) for a descent s of v."""
    lv = _num_inversions(pv)
    lu = _num_inversions(pu)
    while True:
        if lu > lv:
            return False
        if lv == 0:
            return lu == 0
        if pu == pv:
            return True
        inv_v = _invert(pv)
        s = next(i for i in range(g.rank) if inv_v[i] < 0)
        gp = g.generator_perms[s]
        pv = _compose(gp, pv)
        lv -= 1
        su = _compose(gp, pu)
        lsu = _num_inversions(su)
        if lsu < lu:
            pu, lu = su, lsu


def upper_covers(w: Element) -> list[Element]:
    g = w.group
    cg = cover_graph(g)
    return [g.element_by_index(j) for j in cg.upper[w.index]]


def lower_covers(w: Element) -> list[Element]:
    g = w.group
    cg = cover_graph(g)
    return [g.element_by_index(j) for j in cg.lower[w.index]]


def interval(u: Element, v: Element) -> list[Element]:
    """All z with u <= z <= v, sorted by (length, ShortLex word)."""
    g = _check_same_group(u, v)
    if not leq(u, v):
        raise DomainError(f"empty interval: {u!r} is not below {v!r}")
    mask = up_masks(g)[u.index] & down_masks(g)[v.index]
    return [g.element_by_index(i) for i in iter_indices(mask)]


_BITS = bytes.maketrans(b"01", b"\0\1")


def iter_indices(mask: int):
    """Indices of the set bits of mask, in increasing order.

    The mask is read in one pass over its binary digits.
    """
    bits = bin(mask)[:1:-1].encode("ascii").translate(_BITS)
    return compress(range(len(bits)), bits)
