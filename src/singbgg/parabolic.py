"""Singularity data: parabolic subgroups and coset representatives.

A singularity set S of simple-root indices generates the parabolic subgroup
W_lambda.  The block object carries the minimal coset representatives
(no reduced expression ends in a singular reflection), the longest ones
(minimal representatives times the longest element of W_lambda), and the
right-coset analogues obtained by inversion.  It also keeps two O(|W|)
index tables for the exactness scan: the coset of every element and the
dominant-side terms of every longest representative.

The coset helpers and matchings work on element indices and Bruhat-order
bitmasks, and make Elements only for the results they return.  Their one
coset walk is `SingularBlock._coset_indices`: m u for u in W_lambda, from the
minimal representative m along the right multiplication table.
"""

from __future__ import annotations

from fractions import Fraction

from .bruhat import down_masks, leq, up_masks
from .cartan import CartanType
from .errors import DomainError, InputError
from .weyl import Element, WeylGroup


def _mask(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


class SingularBlock:
    """Derived data of a parabolic subgroup W_lambda; immutable after build."""

    def __init__(self, g: WeylGroup, S: frozenset[int]):
        g.require_enumerated()
        self.group = g
        self.S = S
        lengths = g._lengths

        # coset_of[i]: index of the minimal representative of w_i W_lambda.
        # A right descent s in S gives w_i = w_j s with j < i in the same coset.
        rmuls = [g._rmul[s - 1] for s in sorted(S)]
        coset_of = list(range(g.order))
        for i in range(g.order):
            for rmul in rmuls:
                j = rmul[i]
                if j < i:
                    coset_of[i] = coset_of[j]
                    break
        self._coset_of = coset_of
        cosets: dict[int, list[int]] = {}  # in increasing index order
        for i, m in enumerate(coset_of):
            cosets.setdefault(m, []).append(i)

        self._wlambda_indices = cosets[0]
        self._wlambda_mask = _mask(cosets[0])
        self._w0_lambda_idx = cosets[0][-1]
        self._minrep_indices = sorted(cosets)
        self._minrep_mask = _mask(self._minrep_indices)

        # The longest element of a coset has the largest index in it.
        l0 = lengths[self._w0_lambda_idx]
        self._maxrep_indices = sorted(cosets[m][-1] for m in self._minrep_indices)
        self._maxrep_mask = _mask(self._maxrep_indices)

        # Dominant-side terms of each longest representative x: the singular
        # polynomial for (w, x) is the sum over z in x W_lambda of
        # (-1)^(l(x)-l(z)) P_{z w0, w w0}.  Written as z = m u with m minimal,
        # the sign is (-1)^(l(u) + l(w0_lambda)), not (-1)^l(u).
        rw0 = g.rmul_w0_indices()
        self._dominant_terms: dict[int, tuple[tuple[int, int], ...]] = {}
        for m in self._minrep_indices:
            members = cosets[m]
            xi = members[-1]
            lx = lengths[xi]
            if lx != lengths[m] + l0:
                raise AssertionError(
                    "coset lengths are not additive over W_lambda"
                )
            self._dominant_terms[xi] = tuple(
                (rw0[z], -1 if (lx - lengths[z]) % 2 else 1) for z in members
            )

        self._right_min_indices = sorted(g._inv[i] for i in self._minrep_indices)
        self._right_max_indices = sorted(g._inv[i] for i in self._maxrep_indices)

    # -- element views (sorted by (length, ShortLex word) = index order) ------

    @property
    def W_lambda(self) -> list[Element]:
        return [self.group.element_by_index(i) for i in self._wlambda_indices]

    @property
    def w0_lambda(self) -> Element:
        return self.group.element_by_index(self._w0_lambda_idx)

    @property
    def min_reps(self) -> list[Element]:
        """W^lambda: minimal length representatives of W / W_lambda."""
        return [self.group.element_by_index(i) for i in self._minrep_indices]

    @property
    def max_reps(self) -> list[Element]:
        """The longest coset representatives (min_reps times w0_lambda)."""
        return [self.group.element_by_index(i) for i in self._maxrep_indices]

    @property
    def right_min_reps(self) -> list[Element]:
        """Minimal representatives of the right cosets W_lambda \\ W."""
        return [self.group.element_by_index(i) for i in self._right_min_indices]

    @property
    def right_max_reps(self) -> list[Element]:
        """Longest representatives of the right cosets W_lambda \\ W."""
        return [self.group.element_by_index(i) for i in self._right_max_indices]

    def contains_max_rep(self, w: Element) -> bool:
        return bool(self._maxrep_mask >> w.index & 1)

    def contains_min_rep(self, w: Element) -> bool:
        return bool(self._minrep_mask >> w.index & 1)

    def coset(self, x: Element) -> list[Element]:
        """The coset x W_lambda, as elements."""
        return [self.group.element_by_index(i)
                for i in sorted(self._coset_indices(x.index))]

    def _coset_indices(self, xi: int) -> list[int]:
        """Indices of m u for u in W_lambda, in _wlambda_indices order, where
        m is the minimal representative of the coset of element xi."""
        g = self.group
        m = self._coset_of[xi]
        out = []
        for u in self._wlambda_indices:
            z = m
            for s in g._words[u]:
                z = g._rmul[s - 1][z]
            out.append(z)
        return out

    def __repr__(self) -> str:
        return f"SingularBlock({self.group.cartan}, S={sorted(self.S)})"


def make_block(g: WeylGroup, S) -> SingularBlock:
    """Build (and cache per group) the block data for singularity set S."""
    S = frozenset(S)
    for i in S:
        if not isinstance(i, int) or not 1 <= i <= g.rank:
            raise InputError(f"singular index {i!r} out of range 1..{g.rank}")
    if S not in g._blocks:
        g._blocks[S] = SingularBlock(g, S)
    return g._blocks[S]  # type: ignore[return-value]


def kostant_decompose(v: Element, b: SingularBlock) -> tuple[Element, Element]:
    """Unique factorization v = v^lambda * v_lambda with additive lengths."""
    g = b.group
    u = v
    tail = g.identity
    while True:
        rd = u.right_descents() & b.S
        if not rd:
            return u, tail
        s = g.generator(min(rd))
        u = u * s
        tail = s * tail


def coset_extremum(
    w: Element, x: Element, b: SingularBlock, direction: str
) -> Element:
    """Unique maximum of [e,w] ∩ xW_lambda, or unique minimum of [w,w0] ∩ xW_lambda.

    Uniqueness is asserted against the enumerated intersection, never assumed.
    """
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
    mask = _mask(members)
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
    mask = _mask(by_component.values())
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
    """
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
