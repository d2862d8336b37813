"""Bruhat order: cover relations, comparisons and intervals.

The cover graph is built once per group (covers are t*u for reflections t
with a length jump of one).  Order queries use transitive-closure bitmasks
over the canonical element indexing, so `leq` and interval extraction are
O(1)-ish big-integer operations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InputError
from .weyl import Element, WeylGroup, _compose, _invert, _num_inversions


@dataclass
class CoverGraph:
    """Upper and lower covers per element index."""

    group: WeylGroup
    upper: list[list[int]]
    lower: list[list[int]]


def cover_graph(g: WeylGroup) -> CoverGraph:
    g.require_enumerated()
    if g._covers_upper is None:
        reflections = [g._root_action_perm(alpha) for alpha in g.positive_roots]
        upper: list[list[int]] = [[] for _ in range(g.order)]
        lower: list[list[int]] = [[] for _ in range(g.order)]
        for i, p in enumerate(g._perms):
            li = g._lengths[i]
            for t in reflections:
                q = _compose(t, p)
                if _num_inversions(q) == li + 1:
                    j = g._index[q]
                    upper[i].append(j)
                    lower[j].append(i)
        for rows in (upper, lower):
            for row in rows:
                row.sort()
        g._covers_upper, g._covers_lower = upper, lower
    return CoverGraph(g, g._covers_upper, g._covers_lower)


def down_masks(g: WeylGroup) -> list[int]:
    """down_masks(g)[i] has bit j set iff w_j <= w_i in Bruhat order."""
    if g._down_masks is None:
        cg = cover_graph(g)
        down = [0] * g.order
        for i in range(g.order):  # indices are sorted by length
            m = 1 << i
            for j in cg.lower[i]:
                m |= down[j]
            down[i] = m
        g._down_masks = down
    return g._down_masks


def up_masks(g: WeylGroup) -> list[int]:
    if g._up_masks is None:
        cg = cover_graph(g)
        up = [0] * g.order
        for i in range(g.order - 1, -1, -1):
            m = 1 << i
            for j in cg.upper[i]:
                m |= up[j]
            up[i] = m
        g._up_masks = up
    return g._up_masks


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


def interval_mask(g: WeylGroup, ui: int, vi: int) -> int:
    return up_masks(g)[ui] & down_masks(g)[vi]


def interval(u: Element, v: Element) -> list[Element]:
    """All z with u <= z <= v, sorted by (length, ShortLex word)."""
    g = _check_same_group(u, v)
    if not leq(u, v):
        raise DomainError(f"empty interval: {u!r} is not below {v!r}")
    return elements_of_mask(g, interval_mask(g, u.index, v.index))


def elements_of_mask(g: WeylGroup, mask: int) -> list[Element]:
    out = []
    while mask:
        low = mask & -mask
        out.append(g.element_by_index(low.bit_length() - 1))
        mask ^= low
    return out


def iter_indices(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
