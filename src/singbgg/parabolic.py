"""Singularity data: parabolic subgroups and coset representatives.

A singularity set S of simple-root indices generates the parabolic subgroup
W_lambda.  The block object carries left cosets only: the minimal
representatives (no reduced expression ends in a singular reflection) and
the longest ones (minimal representatives times the longest element of
W_lambda); right cosets are their inverses, through the inversion table.
It keeps one coset map, built once from the right multiplication table:
_coset[i] is the coset m W_lambda of element i as the indices of the m u,
u in W_lambda in index order, one tuple shared by the coset, and _signs is
the row of (-1)^l(u).  The singular polynomials are the signed sums over a
coset; the exactness test reads them on the block's own cosets.

The coset helpers and matchings work on element indices and Bruhat-order
bitmasks, and make Elements only for the results they return.  They read
the coset map through `SingularBlock._coset_indices`.
"""

from __future__ import annotations

from .bruhat import down_masks, index_mask, leq, up_masks
from .cartan import CartanType
from .errors import DomainError, InputError
from .weyl import Element, WeylGroup, check_same_group


def _closure(i: int, rows: list[list[int]]) -> list[int]:
    """The closure of {i} under the multiplication rows, in index order."""
    out, layer = {i}, {i}
    while layer:
        layer = {row[j] for j in layer for row in rows} - out
        out |= layer
    return sorted(out)


class SingularBlock:
    """Derived data of a parabolic subgroup W_lambda, never changed once built."""

    def __init__(self, g: WeylGroup, S: frozenset[int]):
        g.require_enumerated()
        self.group = g
        self.S = S
        lengths, rmul = g._lengths, g._rmul
        self._wlambda_indices = wl = _closure(0, [rmul[s - 1] for s in S])
        self._signs = tuple(-1 if lengths[u] % 2 else 1 for u in wl)  # (-1)^l(u)

        # _coset[i] lists i's coset m W_lambda as m u = (m u') s, u in wl order:
        # s ends u's ShortLex word and u' = u s is listed before u.  Index order
        # refines length, so the first member reached in index order is m, and
        # the last entry, m w0_lambda, is the longest.  Members share one tuple.
        pos = {u: k for k, u in enumerate(wl)}
        steps = []
        for u in wl[1:]:
            row = rmul[g._words[u][-1] - 1]
            steps.append((pos[row[u]], row))
        coset: list[tuple[int, ...]] = [()] * g.order
        self._minrep_indices = minreps = []
        for m in range(g.order):
            if coset[m]:
                continue
            zs = [m]
            for k, row in steps:
                zs.append(row[zs[k]])
            if lengths[zs[-1]] != lengths[m] + lengths[wl[-1]]:
                raise AssertionError("coset lengths are not additive over W_lambda")
            c = tuple(zs)
            for z in c:
                coset[z] = c
            minreps.append(m)
        if len(minreps) * len(wl) != g.order:
            raise AssertionError("cosets of W_lambda do not partition W")
        self._coset = coset
        self._maxrep_indices = sorted(coset[m][-1] for m in minreps)
        self._maxrep_mask = index_mask(self._maxrep_indices)

    # -- element views (sorted by (length, ShortLex word) = index order) ------

    @property
    def W_lambda(self) -> list[Element]:
        return [self.group.element_by_index(i) for i in self._wlambda_indices]

    @property
    def w0_lambda(self) -> Element:
        return self.group.element_by_index(self._wlambda_indices[-1])

    @property
    def min_reps(self) -> list[Element]:
        """W^lambda: minimal length representatives of W / W_lambda."""
        return [self.group.element_by_index(i) for i in self._minrep_indices]

    @property
    def max_reps(self) -> list[Element]:
        """The longest coset representatives (min_reps times w0_lambda)."""
        return [self.group.element_by_index(i) for i in self._maxrep_indices]

    def contains_max_rep(self, w: Element) -> bool:
        return bool(self._maxrep_mask >> w.index & 1)

    def contains_min_rep(self, w: Element) -> bool:
        return self._coset[w.index][0] == w.index

    def coset(self, x: Element) -> list[Element]:
        """The coset x W_lambda, as elements."""
        check_same_group(self.group, x)
        return [self.group.element_by_index(i)
                for i in sorted(self._coset_indices(x.index))]

    def _coset_indices(self, xi: int) -> tuple[int, ...]:
        """Indices of the coset of element xi, in _wlambda_indices order."""
        return self._coset[xi]

    def __repr__(self) -> str:
        return f"SingularBlock({self.group.cartan}, S={sorted(self.S)})"


def make_block(g: WeylGroup, S) -> SingularBlock:
    """Build (and cache per group) the block data for singularity set S."""
    S = frozenset(S)
    for i in S:
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= g.rank:
            raise InputError(f"singular index {i!r} out of range 1..{g.rank}")
    if S not in g._blocks:
        g._blocks[S] = SingularBlock(g, S)
    return g._blocks[S]  # type: ignore[return-value]


def kostant_decompose(v: Element, b: SingularBlock) -> tuple[Element, Element]:
    """Unique factorization v = v^lambda * v_lambda with additive lengths."""
    check_same_group(b.group, v)
    vi, el = v.index, b.group.element_by_index
    c = b._coset_indices(vi)
    return el(c[0]), el(b._wlambda_indices[c.index(vi)])


def coset_extremum(
    w: Element, x: Element, b: SingularBlock, direction: str
) -> Element:
    """Unique maximum of [e,w] ∩ xW_lambda, or unique minimum of [w,w0] ∩ xW_lambda.

    Uniqueness is asserted against the enumerated intersection, never assumed.
    """
    check_same_group(b.group, w, x)
    if not b.contains_min_rep(x):
        raise DomainError(f"{x!r} is not a minimal coset representative")
    g = b.group
    if direction == "max_below":
        if not leq(x, w):
            raise DomainError(f"max_below requires x <= w; got x={x!r}, w={w!r}")
        cone, beyond = down_masks(g)[w.index], up_masks(g)
    elif direction == "min_above":
        if not leq(w, x):
            raise DomainError(f"min_above requires w <= x; got w={w!r}, x={x!r}")
        cone, beyond = up_masks(g)[w.index], down_masks(g)
    else:
        raise InputError(f"unknown direction {direction!r}")
    members = [z for z in b._coset_indices(x.index) if cone >> z & 1]
    mask = index_mask(members)
    extrema = [z for z in members if beyond[z] & mask == 1 << z]
    if len(extrema) != 1:
        raise AssertionError(
            f"intersection has {len(extrema)} extremal elements, expected 1"
        )
    return g.element_by_index(extrema[0])


def _intersection_pairs(xi: int, up_w: int, b: SingularBlock) -> list[tuple[int, int]]:
    """Perfect matching of [w,w0] ∩ xW_lambda into Bruhat-cover pairs, as
    index pairs (lo, hi) sorted by lo; xi is any element of the coset and
    up_w the up mask of w.

    The intersection is carried to an interval [y, w0^lambda] in W_lambda via
    the Kostant component of its unique minimum; there it is matched by left
    multiplication with the smallest singular generator ascending from y.
    A singleton intersection has y = w0^lambda, where none ascends.
    """
    g = b.group
    lengths = g._lengths
    # W_lambda component t -> element m t of the intersection
    by_component = {t: z for t, z in zip(b._wlambda_indices, b._coset_indices(xi))
                    if up_w >> z & 1}
    mask = index_mask(by_component.values())
    down = down_masks(g)
    minima = [t for t, z in by_component.items() if down[z] & mask == 1 << z]
    if len(minima) != 1:
        raise AssertionError("intersection has no unique minimum")
    y = minima[0]

    choices = [s for s in sorted(b.S) if g._lmul[s - 1][y] > y]
    if not choices:
        raise DomainError("intersection is a singleton")
    lmul_s = g._lmul[choices[0] - 1]

    pairs = []
    done = set()
    for t, z in by_component.items():  # t ascending
        if t in done:
            continue
        st = lmul_s[t]
        partner = by_component.get(st)
        if partner is None:
            raise AssertionError("matching partner left the intersection")
        done.add(st)
        lo, hi = (z, partner) if lengths[z] < lengths[partner] else (partner, z)
        if lengths[hi] != lengths[lo] + 1:
            raise AssertionError("matched pair is not a cover pair")
        pairs.append((lo, hi))
    pairs.sort()
    return pairs


def partition_pairs(
    w: Element, x: Element, b: SingularBlock
) -> list[tuple[Element, Element]]:
    """Matching of [w,w0] ∩ xW_lambda into cover pairs (z, z') with z -> z'."""
    check_same_group(b.group, w, x)
    if not b.contains_min_rep(x):
        raise DomainError(f"{x!r} is not a minimal coset representative")
    if not leq(w, x):
        raise DomainError(f"partition_pairs requires w <= x; got w={w!r}, x={x!r}")
    up_w = up_masks(b.group)[w.index]
    el = b.group.element_by_index
    return [(el(lo), el(hi)) for lo, hi in _intersection_pairs(x.index, up_w, b)]


def singularity_from_weight(cartan: CartanType, coords) -> frozenset[int]:
    """Singular simple roots of a dominant weight given as lambda+rho coordinates.

    The coordinates are rationals in the usual epsilon basis (n+1 of them for
    A_n, n for B_n, C_n, D_n), paired with the simple coroots e_i - e_{i+1}
    and, for the last node, 2e_n (B), e_n (C) or e_{n-1} + e_n (D).

    The weight must be integral: every pairing an integer, as for
    (5/2, 3/2, 1/2) in B3.  The block of a non-integral weight belongs to
    its integral Weyl group, not to W, so such a weight raises InputError.
    """
    from fractions import Fraction  # imported on use: it imports decimal

    fam, n = cartan.family, cartan.rank
    if fam not in ("A", "B", "C", "D"):
        raise InputError(
            "weight coordinates are supported for classical families only; "
            "specify the singularity set directly for exceptional types"
        )
    expected_len = n + 1 if fam == "A" else n
    try:
        v = tuple(Fraction(c) for c in coords)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InputError(
            f"weight coordinates must be finite rational numbers, got {coords!r}"
        ) from None
    if len(v) != expected_len:
        raise InputError(
            f"type {cartan} expects {expected_len} coordinates, got {len(v)}"
        )
    pairings = [v[i] - v[i + 1] for i in range(len(v) - 1)]
    if fam == "B":
        pairings.append(2 * v[-1])
    elif fam == "C":
        pairings.append(v[-1])
    elif fam == "D":
        pairings.append(v[-2] + v[-1])
    S = set()
    for i, pairing in enumerate(pairings, start=1):
        if pairing.denominator != 1:
            raise InputError(
                f"weight is not integral: <lambda+rho, alpha_{i}> = {pairing}; "
                "its block belongs to a smaller integral Weyl group"
            )
        if pairing < 0:
            raise InputError(f"weight is not dominant: <lambda+rho, alpha_{i}> < 0")
        if pairing == 0:
            S.add(i)
    return frozenset(S)


def hat_map(w: Element) -> Element:
    """w |-> w^{-1} w0; restricted to the longest coset representatives this
    is a bijection onto the minimal right-coset representatives."""
    return w.inverse() * w.group.longest_element()


def complementary_singularity(b: SingularBlock) -> frozenset[int]:
    return frozenset(range(1, b.group.rank + 1)) - b.S
