"""Finite Weyl groups with exact element arithmetic.

Elements act on the set of positive roots with sign flags: an element is
stored as a tuple ``perm`` with ``perm[i] = +-(j+1)`` meaning that the i-th
positive root is mapped to plus or minus the j-th positive root.  The simple
reflections' permutations come from the integer Cartan matrix, so everything
is integer arithmetic, with O(N) multiplication for all types uniformly.

Groups of order up to the element budget (default 1152, override with the
``BGG_ELEMENT_BUDGET`` environment variable) are fully enumerated at build
time, one length layer at a time, so elements come out indexed by (length,
ShortLex reduced word) with no sort, together with index tables for left and
right multiplication by simple reflections and for inversion, which is all
the heavier modules use.  Larger groups (the big E types) still support
element arithmetic but refuse full-table operations.
"""

from __future__ import annotations

import math
import os
from functools import total_ordering

from .cartan import CartanType, Root, positive_roots, simple_reflection
from .errors import BudgetError, InputError

DEFAULT_ELEMENT_BUDGET = 1152

Perm = tuple[int, ...]


def _compose(pu: Perm, pv: Perm) -> Perm:
    """Permutation of u*v, where (u*v)(beta) = u(v(beta))."""
    out = []
    for a in pv:
        b = pu[a - 1] if a > 0 else -pu[-a - 1]
        out.append(b)
    return tuple(out)


def _invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, a in enumerate(p, start=1):
        if a > 0:
            out[a - 1] = i
        else:
            out[-a - 1] = -i
    return tuple(out)


def _num_inversions(p: Perm) -> int:
    return sum(1 for a in p if a < 0)


def _element_budget() -> int:
    raw = os.environ.get("BGG_ELEMENT_BUDGET")
    if raw is None:
        return DEFAULT_ELEMENT_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"BGG_ELEMENT_BUDGET must be an integer, got {raw!r}") from exc


def check_budget(cartan: CartanType, budget: int | None = None) -> None:
    """Raise BudgetError if the group of `cartan` is above the element budget."""
    budget = _element_budget() if budget is None else budget
    if cartan.rank >= budget.bit_length():
        # |W| >= 2**rank for every type, so this is over the budget without
        # computing |W|, a factorial that takes seconds at rank 10**6.
        size = f"at least 2^{cartan.rank}"
    else:
        order = cartan.group_order
        if order <= budget:
            return
        # str() of an int with more than 4,300 digits raises ValueError.
        size = str(order) if order < 10**100 else f"over 10^{int(math.log10(order))}"
    raise BudgetError(
        f"group {cartan} has {size} elements, above the budget of "
        f"{budget}; raise BGG_ELEMENT_BUDGET to enable full-table operations"
    )


class WeylGroup:
    """Immutable presentation of a finite Weyl group.

    Use :func:`build_group`; do not construct directly.
    """

    def __init__(self, cartan: CartanType, budget: int | None = None):
        self.cartan = cartan
        self.budget = _element_budget() if budget is None else budget
        self.positive_roots: list[Root] = positive_roots(cartan)
        self.rank = cartan.rank
        self.order = cartan.group_order
        n_pos = len(self.positive_roots)

        # s_i sends alpha_i, the i-th root, to -alpha_i and permutes the rest.
        a = cartan.cartan_matrix()
        index = {r: k for k, r in enumerate(self.positive_roots)}
        self.generator_perms: list[Perm] = [
            tuple(-(i + 1) if k == i else index[simple_reflection(a, i, beta)] + 1
                  for k, beta in enumerate(self.positive_roots))
            for i in range(self.rank)
        ]
        self.identity_perm: Perm = tuple(range(1, n_pos + 1))

        self._enumerated = False
        if self.order <= self.budget:
            self._enumerate()
        # lazily built caches
        self._covers_upper: list[list[int]] | None = None
        self._covers_lower: list[list[int]] | None = None
        self._down_masks: list[int] | None = None
        self._up_masks: list[int] | None = None
        self._blocks: dict[frozenset[int], object] = {}
        self._w0_perm: Perm | None = None
        self._rw0: list[int] | None = None

    # -- construction helpers -------------------------------------------------

    def _enumerate(self) -> None:
        """Index the elements one length layer at a time, with no sort.

        A new q = s*w of the next layer is first met with s its smallest left
        descent and w in index order, so layers come out in ShortLex order.
        """
        n_pos = len(self.positive_roots)
        # act[a] is s(a) for a signed root index -n_pos <= a <= n_pos, so that
        # s*w shares its int objects with act instead of negating afresh.
        acts = [(0,) + gp + tuple(-a for a in reversed(gp)) for gp in self.generator_perms]
        perms: list[Perm] = [self.identity_perm]
        words: list[tuple[int, ...]] = [()]
        lengths = [0]
        index: dict[Perm, int] = {self.identity_perm: 0}
        lmul: list[list[int]] = [[-1] for _ in acts]
        start, end = 0, 1
        while start < end:
            for s, act in enumerate(acts):
                row = lmul[s]
                for i in range(start, end):
                    if row[i] < 0:  # s is not a left descent of w_i
                        q = tuple([act[a] for a in perms[i]])
                        j = index.get(q)
                        if j is None:
                            j = index[q] = len(perms)
                            perms.append(q)
                            words.append((s + 1,) + words[i])
                            lengths.append(lengths[i] + 1)
                            for r in lmul:
                                r.append(-1)
                        row[i], row[j] = j, i
            start, end = end, len(perms)
        if len(perms) != self.order:
            raise AssertionError(
                f"closure found {len(perms)} elements, expected {self.order}"
            )
        if _num_inversions(perms[-1]) != n_pos or lengths[-2] == n_pos:
            raise AssertionError("the last index is not the unique longest element")
        inv = [index[_invert(p)] for p in perms]
        self._perms, self._words, self._lengths = perms, words, lengths
        self._index, self._inv, self._lmul = index, inv, lmul
        self._rmul = [[inv[row[k]] for k in inv] for row in lmul]
        self._enumerated = True

    def _shortlex_word(self, p: Perm) -> tuple[int, ...]:
        """ShortLex-minimal reduced word: repeatedly strip the smallest left descent."""
        word = []
        cur = p
        while True:
            inv = _invert(cur)
            for i in range(self.rank):
                if inv[i] < 0:  # l(s_i * cur) < l(cur)
                    break
            else:
                break
            word.append(i + 1)
            cur = _compose(self.generator_perms[i], cur)
        return tuple(word)

    # -- basic API ------------------------------------------------------------

    @property
    def enumerated(self) -> bool:
        return self._enumerated

    def require_enumerated(self) -> None:
        if not self._enumerated:
            check_budget(self.cartan, self.budget)

    @property
    def identity(self) -> "Element":
        return Element(self, self.identity_perm)

    def generator(self, i: int) -> "Element":
        """Simple reflection s_i, 1-based."""
        if not 1 <= i <= self.rank:
            raise InputError(f"generator index {i} out of range 1..{self.rank}")
        return Element(self, self.generator_perms[i - 1])

    def from_word(self, word) -> "Element":
        """Product of the listed simple reflections, left to right."""
        p = self.identity_perm
        for i in word:
            if not isinstance(i, int) or not 1 <= i <= self.rank:
                raise InputError(f"generator index {i!r} out of range 1..{self.rank}")
            p = _compose(p, self.generator_perms[i - 1])
        return Element(self, p)

    def longest_element(self) -> "Element":
        """The unique element of maximal length, computed once per group.

        It is the last index of an enumerated group; otherwise it is found by
        greedy ascent, which needs no table.
        """
        if self._enumerated:
            return self.element_by_index(self.order - 1)
        if self._w0_perm is None:
            p = self.identity_perm
            while True:
                for s, gp in enumerate(self.generator_perms):
                    if p[s] > 0:  # l(w s) > l(w): alpha_s not sent negative
                        p = _compose(p, gp)
                        break
                else:
                    break
            self._w0_perm = p
        return Element(self, self._w0_perm)

    def element_by_index(self, i: int) -> "Element":
        self.require_enumerated()
        e = Element(self, self._perms[i])
        e._index = i
        e._length = self._lengths[i]
        e._word = self._words[i]
        return e

    def elements(self):
        """All elements sorted by (length, ShortLex word)."""
        self.require_enumerated()
        return [self.element_by_index(i) for i in range(self.order)]

    def index_of(self, w: "Element") -> int:
        self.require_enumerated()
        return self._index[w.perm]

    def __repr__(self) -> str:
        return f"WeylGroup({self.cartan.family!r}, {self.rank})"

    # -- index-level tables used by the heavier modules -----------------------

    def rmul_w0_indices(self) -> list[int]:
        """rmul_w0_indices()[i] is the index of w_i * w0 (built on first use),
        reached along w0's word through the right multiplication table."""
        self.require_enumerated()
        if self._rw0 is None:
            rw0 = list(range(self.order))
            for s in self._words[-1]:
                row = self._rmul[s - 1]
                rw0 = [row[i] for i in rw0]
            self._rw0 = rw0
        return self._rw0


@total_ordering
class Element:
    """A Weyl group element: signed-root permutation with cached length."""

    __slots__ = ("group", "perm", "_length", "_word", "_index")

    def __init__(self, group: WeylGroup, perm: Perm):
        self.group = group
        self.perm = perm
        self._length: int | None = None
        self._word: tuple[int, ...] | None = None
        self._index: int | None = None

    @property
    def length(self) -> int:
        if self._length is None:
            self._length = _num_inversions(self.perm)
        return self._length

    @property
    def index(self) -> int:
        if self._index is None:
            self._index = self.group.index_of(self)
        return self._index

    def reduced_word(self) -> tuple[int, ...]:
        """ShortLex-minimal reduced word."""
        if self._word is None:
            g = self.group
            if g._enumerated:
                self._word = g._words[self.index]
            else:
                self._word = g._shortlex_word(self.perm)
        return self._word

    def __mul__(self, other: "Element") -> "Element":
        if other.group is not self.group:
            raise InputError("cannot multiply elements of different groups")
        return Element(self.group, _compose(self.perm, other.perm))

    def inverse(self) -> "Element":
        return Element(self.group, _invert(self.perm))

    def left_descents(self) -> set[int]:
        """{ s : l(s w) < l(w) }, read off from the signs of w^{-1} on simples."""
        inv = _invert(self.perm)
        return {i + 1 for i in range(self.group.rank) if inv[i] < 0}

    def right_descents(self) -> set[int]:
        return {i + 1 for i in range(self.group.rank) if self.perm[i] < 0}

    def is_identity(self) -> bool:
        return self.perm == self.group.identity_perm

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and other.group is self.group
            and other.perm == self.perm
        )

    def __lt__(self, other: "Element") -> bool:
        """Deterministic (length, ShortLex word) order; not the Bruhat order.

        In an enumerated group this is the index order.
        """
        g = self.group
        if other.group is g and g._enumerated:
            return self.index < other.index
        return (self.length, self.reduced_word()) < (other.length, other.reduced_word())

    def __hash__(self) -> int:
        return hash(self.perm)

    def __repr__(self) -> str:
        word = "".join(str(i) for i in self.reduced_word()) or "e"
        return f"<{word}>"


_GROUP_CACHE: dict[tuple[str, int, int], WeylGroup] = {}


def build_group(cartan: CartanType, budget: int | None = None) -> WeylGroup:
    """Construct (and cache) the Weyl group of the given Cartan type."""
    key = (cartan.family, cartan.rank, _element_budget() if budget is None else budget)
    if key not in _GROUP_CACHE:
        _GROUP_CACHE[key] = WeylGroup(cartan, budget=key[2])
    return _GROUP_CACHE[key]
