"""Bruhat order: cover relations, comparisons and intervals.

`_cover_lists` is the one cover loop.  It runs on any orbit's (lmul, words)
from `weyl._orbit`, by the lifting property: for w != e with first letter s
and v = s*w, the lower covers of w are v and the s*c > c over the lower
covers c of v.  On the orbit of rho this gives W (Bjorner-Brenti,
Combinatorics of Coxeter Groups, 2.2), and on the orbit of lambda_S the
Bruhat order of W^S (ibid. 2.5; Deodhar, Invent. Math. 39, 1977), tested
against W's order on every block of rank <= 4, F4, A5 and D5, and against
an independent lifting rule on E6-E8 quotients of up to 2,160 cosets.
`cover_graph` keeps W's covers on the group as one `CoverGraph`, and
`_closure` turns cover lists into the bitmasks behind `leq` and `interval`.
Queries on a group need it enumerated: above the element budget they raise
BudgetError.  A set of element indices is a bitmask; `index_mask` and
`iter_indices` convert between the two.
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
    """W's covers, in index order; built once per group."""
    g.require_enumerated()
    if g._covers is None:
        g._covers = CoverGraph(g, *_cover_lists(g._lmul, g._words))
    return g._covers


def _cover_lists(lmul: list[list[int]], words: list[tuple[int, ...]]):
    """(upper, lower) covers, in index order, of any orbit's points from its
    `weyl._orbit` rows and words, by the lifting property (module docstring).
    A c with s*c not in W^S holds the self-entry lmul[s][c] == c, which the
    row[c] > c test skips."""
    n = len(words)
    upper: list[list[int]] = [[] for _ in range(n)]
    lower: list[list[int]] = [[] for _ in range(n)]
    for w in range(1, n):
        row = lmul[words[w][0] - 1]
        v = row[w]
        low = [v] + [row[c] for c in lower[v] if row[c] > c]
        low.sort()
        lower[w] = low
        for c in low:
            upper[c].append(w)
    return upper, lower


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


_BITS = bytes.maketrans(b"01", b"\0\1")
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def index_mask(indices) -> int:
    """The bitmask with the given index bits set; inverse of iter_indices.

    On iter_indices' line, a set with at least one index in 32 up to its
    largest is written in one pass, as binary digits read from a bytearray
    of 0/1 flags, and a sparser one bit by bit.
    """
    indices = [*indices]
    top = max(indices, default=0)
    if len(indices) << 5 <= top:
        m = 0
        for i in indices:
            m |= 1 << i
        return m
    flags = bytearray(top + 1)
    for i in indices:
        flags[i] = 1
    return int(flags[::-1].translate(_DIGITS), 2)


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
