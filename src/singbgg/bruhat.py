"""Bruhat order: cover relations, comparisons and intervals.

The cover graph is built once per group from the left multiplication table
by the lifting property (Bjorner-Brenti, Combinatorics of Coxeter Groups,
2.2), and kept on the group as one `CoverGraph` record.  Order queries use
transitive-closure bitmasks over the element indexing, so `leq` and interval
extraction are O(1)-ish big-integer operations.  Every query here needs the
enumerated group: above the element budget they raise BudgetError.  A set of
element indices is a bitmask; `index_mask` and `iter_indices` convert between
the two.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress

from .errors import DomainError
from .weyl import Element, WeylGroup, check_same_group


class CoverGraph(namedtuple("CoverGraph", "group upper lower")):
    """Upper and lower covers per element index."""

    __slots__ = ()


def cover_graph(g: WeylGroup) -> CoverGraph:
    """Covers by the lifting property, in index order; built once per group.

    For w != e let s be the first letter of its ShortLex word and v = s*w.
    The lower covers of w are v and the s*c > c over the lower covers c of v.
    """
    g.require_enumerated()
    if g._covers is None:
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
        g._covers = CoverGraph(g, upper, lower)
    return g._covers


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


def leq(u: Element, v: Element) -> bool:
    """True iff u <= v in Bruhat order."""
    g = u.group
    check_same_group(g, v)
    return bool(down_masks(g)[v.index] >> u.index & 1)


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
    g = u.group
    if not leq(u, v):  # raises InputError when u and v are of different groups
        raise DomainError(f"empty interval: {u!r} is not below {v!r}")
    mask = up_masks(g)[u.index] & down_masks(g)[v.index]
    return [g.element_by_index(i) for i in iter_indices(mask)]


def index_mask(indices) -> int:
    """The bitmask with the given index bits set; inverse of iter_indices."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


_BITS = bytes.maketrans(b"01", b"\0\1")


def iter_indices(mask: int):
    """Indices of the set bits of mask, in increasing order.

    A mask with at least one set bit in 32 is read in one pass over its
    binary digits, a sparser one by stripping its lowest set bit in turn.
    """
    if mask.bit_count() << 5 < mask.bit_length():
        return _iter_sparse(mask)
    bits = bin(mask)[:1:-1].encode("ascii").translate(_BITS)
    return compress(range(len(bits)), bits)


def _iter_sparse(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
