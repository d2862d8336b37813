"""Finite Weyl groups with exact element arithmetic.

An element w is stored as the integral weight w(rho), in fundamental-weight
coordinates with rho = (1, ..., 1).  W acts freely on the orbit of rho, so
the weight names the element, and s_i is a left descent of w exactly when
the i-th coordinate of w(rho) is negative.  The one action is
s_i(mu) = mu - mu_i alpha_i, with alpha_i the i-th column of the integer
Cartan matrix, so everything is integer arithmetic on ``rank`` coordinates.

Groups of order up to the element budget (default 1152, override with the
``BGG_ELEMENT_BUDGET`` environment variable) are enumerated at build time by
`_orbit`, the one layered loop, as the orbit of rho, so elements come out
indexed by (length, ShortLex reduced word) with no sort.  The same loop from
lambda_S gives the quotient W^S.  The inversion table is read off the left
multiplication table along each reduced word, and the right table off those
two; these index tables are all the heavier modules use.  Larger groups (the
big E types) still support element arithmetic but refuse full-table operations.
"""

from __future__ import annotations

import math
import os
from functools import total_ordering
from itertools import permutations

from .cartan import CartanType
from .errors import BudgetError, InputError

DEFAULT_ELEMENT_BUDGET = 1152

Weight = tuple[int, ...]


def _reflect(cols: list[Weight], mu: Weight, i: int) -> Weight:
    """s_i(mu) = mu - mu_i alpha_i, where cols[i] is alpha_i in
    fundamental-weight coordinates (column i of the Cartan matrix)."""
    c = mu[i]
    return tuple([m - c * a for m, a in zip(mu, cols[i])])


def _orbit(cols: list[Weight], lam: Weight):
    """The orbit of the dominant weight lam, layer by layer with no sort:
    (weights, words, lengths, index, lmul).  A new q = s*mu is first met with
    s its smallest left descent and mu in index order, so points come out in
    (length, ShortLex word) order.  From rho the points are W.  From lambda_S
    (0 on S, 1 elsewhere) they are the minimal representatives m of W^S, as
    m(lambda_S): m's left descents are its negative coordinates and a zero
    coordinate means s*m is not in W^S, so stripping the first negative one
    gives m's ShortLex word.  Where s fixes a point, lmul[s][k] == k.
    """
    weights: list[Weight] = [lam]
    words: list[tuple[int, ...]] = [()]
    lengths = [0]
    index: dict[Weight, int] = {lam: 0}
    lmul: list[list[int]] = [[-1] for _ in cols]
    start, end = 0, 1
    while start < end:
        for s, row in enumerate(lmul):
            for i in range(start, end):
                if row[i] < 0:  # s is not a left descent of w_i
                    q = _reflect(cols, weights[i], s)
                    j = index.get(q)
                    if j is None:
                        j = index[q] = len(weights)
                        weights.append(q)
                        words.append((s + 1,) + words[i])
                        lengths.append(lengths[i] + 1)
                        for r in lmul:
                            r.append(-1)
                    row[i], row[j] = j, i
        start, end = end, len(weights)
    return weights, words, lengths, index, lmul


def _graph_automorphisms(a: list[list[int]]) -> list[tuple[int, ...]]:
    """The automorphisms of the Coxeter graph of the Cartan matrix a, the
    identity first: the permutations pi of the simple reflections with
    a[pi i][pi j] * a[pi j][pi i] == a[i][j] * a[j][i].  That product, 0, 1,
    2 or 3, fixes the order of s_i s_j, so pi extends to an automorphism of
    (W, S); it may swap long and short roots (B2, G2, F4)."""
    n = len(a)
    m = [[a[i][j] * a[j][i] for j in range(n)] for i in range(n)]
    return [p for p in permutations(range(n))
            if all(m[p[i]][p[j]] == m[i][j] for i in range(n) for j in range(i))]


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


def check_same_group(g: "WeylGroup", *objs) -> None:
    """Raise InputError unless every object (element, block, table) is of g."""
    for o in objs:
        if o.group is not g:
            raise InputError("arguments belong to different groups")


class WeylGroup:
    """Immutable presentation of a finite Weyl group.

    Use :func:`build_group`; do not construct directly.
    """

    def __init__(self, cartan: CartanType, budget: int | None = None):
        self.cartan = cartan
        self.budget = _element_budget() if budget is None else budget
        self.rank = cartan.rank
        self.order = cartan.group_order
        a = cartan.cartan_matrix()
        self._cols: list[Weight] = [tuple(row[i] for row in a) for i in range(self.rank)]
        self._rho: Weight = (1,) * self.rank

        self._enumerated = False
        if self.order <= self.budget:
            self._enumerate()
        # lazily built caches
        self._covers: object | None = None  # bruhat.CoverGraph
        self._down_masks: list[int] | None = None
        self._up_masks: list[int] | None = None
        self._blocks: dict[frozenset[int], object] = {}
        self._lw0: list[int] | None = None

    # -- construction helpers -------------------------------------------------

    def _enumerate(self) -> None:
        """Index the elements as the orbit of rho, then check and extend the tables."""
        weights, words, lengths, index, lmul = _orbit(self._cols, self._rho)
        if len(weights) != self.order:
            raise AssertionError(
                f"closure found {len(weights)} elements, expected {self.order}"
            )
        n_pos = self.cartan.num_positive_roots
        if (weights[-1] != (-1,) * self.rank or lengths[-1] != n_pos
                or lengths[-2] == n_pos):
            raise AssertionError("the last index is not the unique longest element")
        # w = s_1...s_k gives w^-1 = s_k...s_1: left-multiply e along the word
        inv = []
        for word in words:
            k = 0
            for s in word:
                k = lmul[s - 1][k]
            inv.append(k)
        self._weights, self._words, self._lengths = weights, words, lengths
        self._index, self._inv, self._lmul = index, inv, lmul
        self._rmul = [[inv[row[k]] for k in inv] for row in lmul]
        self._enumerated = True

    def _act(self, word, mu: Weight) -> Weight:
        """w(mu) for w the product of the simple reflections in `word`."""
        for i in reversed(word):
            mu = _reflect(self._cols, mu, i - 1)
        return mu

    def _shortlex_word(self, mu: Weight) -> tuple[int, ...]:
        """ShortLex-minimal reduced word of the element with weight mu:
        repeatedly strip the smallest left descent, the first negative
        coordinate."""
        word = []
        while True:
            for i, m in enumerate(mu):
                if m < 0:
                    break
            else:
                return tuple(word)
            word.append(i + 1)
            mu = _reflect(self._cols, mu, i)

    # -- basic API ------------------------------------------------------------

    @property
    def enumerated(self) -> bool:
        return self._enumerated

    def require_enumerated(self) -> None:
        if not self._enumerated:
            check_budget(self.cartan, self.budget)

    @property
    def identity(self) -> "Element":
        return Element(self, self._rho)

    def generator(self, i: int) -> "Element":
        """Simple reflection s_i, 1-based."""
        return self.from_word((i,))

    def from_word(self, word) -> "Element":
        """Product of the listed simple reflections, left to right."""
        word = tuple(word)
        for i in word:
            if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= self.rank:
                raise InputError(f"generator index {i!r} out of range 1..{self.rank}")
        return Element(self, self._act(word, self._rho))

    def longest_element(self) -> "Element":
        """The unique element of maximal length, w0(rho) = -rho; the last
        index of an enumerated group."""
        return Element(self, (-1,) * self.rank)

    def element_by_index(self, i: int) -> "Element":
        self.require_enumerated()
        e = Element(self, self._weights[i])
        e._index = i
        e._word = self._words[i]
        return e

    def elements(self):
        """All elements sorted by (length, ShortLex word)."""
        self.require_enumerated()
        return [self.element_by_index(i) for i in range(self.order)]

    def __repr__(self) -> str:
        return f"WeylGroup({self.cartan.family!r}, {self.rank})"

    # -- index-level tables used by the heavier modules -----------------------

    def lmul_w0_indices(self) -> list[int]:
        """lmul_w0_indices()[i] is the index of w0 * w_i (built on first use):
        w0 w = (w^-1 w0)^-1 and (v w0)(rho) = v(-rho) = -v(rho)."""
        self.require_enumerated()
        if self._lw0 is None:
            index, inv, weights = self._index, self._inv, self._weights
            self._lw0 = [inv[index[tuple(-m for m in weights[k])]] for k in inv]
        return self._lw0

    def _symmetries(self) -> list[list[int]]:
        """Index maps of the group generated by inversion and the
        Coxeter-graph automorphisms, the identity left out.  Each pi of
        `_graph_automorphisms` becomes the map phi with
        phi(lmul[s][w]) = lmul[pi s][phi w], filled in index order along each
        element's first letter, and each phi also comes composed with
        inversion, which commutes with it; so the maps with the identity
        are closed under composition."""
        self.require_enumerated()
        inv, words, lmul = self._inv, self._words, self._lmul
        ident = list(range(self.order))
        maps = []
        for pi in _graph_automorphisms(self.cartan.cartan_matrix()):
            phi = [0]
            for w in ident[1:]:
                s = words[w][0] - 1
                phi.append(lmul[pi[s]][phi[lmul[s][w]]])
            maps += (phi, [*map(phi.__getitem__, inv)])
        return [phi for phi in maps if phi != ident]


@total_ordering
class Element:
    """A Weyl group element w, stored as the weight w(rho)."""

    __slots__ = ("group", "weight", "_word", "_index")

    def __init__(self, group: WeylGroup, weight: Weight):
        self.group = group
        self.weight = weight
        self._word: tuple[int, ...] | None = None
        self._index: int | None = None

    @property
    def length(self) -> int:
        return len(self.reduced_word())

    @property
    def index(self) -> int:
        if self._index is None:
            self.group.require_enumerated()
            self._index = self.group._index[self.weight]
        return self._index

    def reduced_word(self) -> tuple[int, ...]:
        """ShortLex-minimal reduced word."""
        if self._word is None:
            self._word = self.group._shortlex_word(self.weight)
        return self._word

    def __mul__(self, other: "Element") -> "Element":
        """(u v)(rho) = u(v(rho)), applied along u's word."""
        if other.group is not self.group:
            raise InputError("cannot multiply elements of different groups")
        return Element(self.group, self.group._act(self.reduced_word(), other.weight))

    def inverse(self) -> "Element":
        g = self.group
        return Element(g, g._act(self.reduced_word()[::-1], g._rho))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and other.group is self.group
            and other.weight == self.weight
        )

    def __lt__(self, other: "Element") -> bool:
        """Deterministic (length, ShortLex word) order; not the Bruhat order.

        In an enumerated group this is the index order.
        """
        if not isinstance(other, Element):
            return NotImplemented
        check_same_group(self.group, other)
        return (self.length, self.reduced_word()) < (other.length, other.reduced_word())

    def __hash__(self) -> int:
        return hash(self.weight)

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
