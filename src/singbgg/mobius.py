"""Möbius functions and graded support sets on the block poset.

The block poset is the set of longest coset representatives with the induced
Bruhat order.  Its Möbius function has a closed form: it vanishes exactly
when the full Bruhat interval between the endpoints leaves the representative
set, and is (-1)^(length difference) otherwise.
"""

from __future__ import annotations

from collections import namedtuple

from .bruhat import down_masks, iter_indices, leq, up_masks
from .errors import DomainError
from .parabolic import SingularBlock
from .weyl import Element, check_same_group


def mobius_lambda(w: Element, x: Element, b: SingularBlock) -> int:
    """Closed-form Möbius value on the block poset.

    Zero if some element strictly between w and x (in the full Bruhat order)
    is not a longest coset representative, otherwise (-1)^(l(x)-l(w)).
    Incomparable pairs give 0.
    """
    check_same_group(b.group, w, x)
    for u in (w, x):
        if not b.contains_max_rep(u):
            raise DomainError(f"{u!r} is not a longest coset representative")
    if not leq(w, x):
        return 0
    g = b.group
    if up_masks(g)[w.index] & ~b._maxrep_mask & down_masks(g)[x.index]:
        return 0
    return -1 if (x.length - w.length) % 2 else 1


def _mobius_row(b: SingularBlock, wi: int, first: int = 0):
    """(xi, mu(w, x) != 0) for the longest representatives x >= w = w_wi:
    those in mask `first` in increasing index order, then the others.

    Both endpoints lie in the block, so mu(w, x) vanishes iff some element
    above w outside the block lies below x.
    """
    g = b.group
    up = up_masks(g)[wi]
    down = down_masks(g)
    outside = up & ~b._maxrep_mask
    reps = up & b._maxrep_mask
    for mask in (reps & first, reps & ~first):
        for xi in iter_indices(mask):
            yield xi, not outside & down[xi]


class GradedSupport(namedtuple("GradedSupport", "base strata block")):
    """The support X_w, graded by length above the base element: strata[i]
    lists the x with l(x) - l(w) = i.  Immutable, compared by value."""

    __slots__ = ()

    def flatten(self) -> list[Element]:
        return [x for stratum in self.strata for x in stratum]

    def __contains__(self, x) -> bool:
        return any(x in stratum for stratum in self.strata)


def support_X(w: Element, b: SingularBlock) -> GradedSupport:
    """X_w = representatives x >= w with nonvanishing block Möbius value,
    graded by i = l(x) - l(w)."""
    check_same_group(b.group, w)
    if not b.contains_max_rep(w):
        raise DomainError(f"{w!r} is not a longest coset representative")
    g = b.group
    lengths = g._lengths
    lw = w.length
    by_level: dict[int, list[Element]] = {}
    for xi, nonzero in _mobius_row(b, w.index):
        if nonzero:  # index order is the Element order, so strata come sorted
            by_level.setdefault(lengths[xi] - lw, []).append(g.element_by_index(xi))
    top = max(by_level)
    strata = []
    for i in range(top + 1):
        if i not in by_level:
            raise AssertionError(f"support of {w!r} has an empty stratum at {i}")
        strata.append(by_level[i])
    return GradedSupport(base=w, strata=strata, block=b)
