"""Singularity data: parabolic subgroups and coset representatives.

A singularity set S of simple-root indices generates the parabolic subgroup
W_lambda.  The block object carries the minimal coset representatives
(no reduced expression ends in a singular reflection), the longest ones
(minimal representatives times the longest element of W_lambda), and the
right-coset analogues obtained by inversion.  It also keeps two O(|W|)
index tables for the exactness scan: the coset of every element and the
dominant-side terms of every longest representative.
"""

from __future__ import annotations

from fractions import Fraction

from .bruhat import leq
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
        return sorted(x * t for t in self.W_lambda)

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


def _component(v: Element, b: SingularBlock) -> Element:
    """The W_lambda factor of kostant_decompose(v, b), read off the coset table."""
    return b.group.element_by_index(b._coset_of[v.index]).inverse() * v


def coset_extremum(
    w: Element, x: Element, b: SingularBlock, direction: str
) -> Element:
    """Unique maximum of [e,w] ∩ xW_lambda, or unique minimum of [w,w0] ∩ xW_lambda.

    Uniqueness is asserted against the enumerated intersection, never assumed.
    """
    if not b.contains_min_rep(x):
        raise DomainError(f"{x!r} is not a minimal coset representative")
    if direction == "max_below":
        if not leq(x, w):
            raise DomainError(f"max_below requires x <= w; got x={x!r}, w={w!r}")
        members = [z for z in b.coset(x) if leq(z, w)]
        extrema = [z for z in members if not any(leq(z, t) and z != t for t in members)]
    elif direction == "min_above":
        if not leq(w, x):
            raise DomainError(f"min_above requires w <= x; got w={w!r}, x={x!r}")
        members = [z for z in b.coset(x) if leq(w, z)]
        extrema = [z for z in members if not any(leq(t, z) and z != t for t in members)]
    else:
        raise InputError(f"unknown direction {direction!r}")
    if not members:
        raise DomainError("empty intersection")
    if len(extrema) != 1:
        raise AssertionError(
            f"intersection has {len(extrema)} extremal elements, expected 1"
        )
    return extrema[0]


def _intersection_pairs(
    members: list[Element], b: SingularBlock
) -> list[tuple[Element, Element]]:
    """Perfect matching of [w,w0] ∩ xW_lambda into Bruhat-cover pairs.

    The intersection is carried to an interval [y, w0^lambda] in W_lambda via
    the Kostant component of its unique minimum; there it is matched by left
    multiplication with the smallest singular generator ascending from y.
    """
    g = b.group
    minima = [z for z in members if not any(leq(t, z) and z != t for t in members)]
    if len(minima) != 1:
        raise AssertionError("intersection has no unique minimum")
    y = _component(minima[0], b)

    choices = [s for s in sorted(b.S) if (g.generator(s) * y).length > y.length]
    if not choices:
        raise DomainError("intersection is a singleton; nothing to pair")
    s = g.generator(choices[0])

    by_component = {_component(z, b): z for z in members}
    pairs = []
    done = set()
    for t, z in sorted(by_component.items()):
        if t in done:
            continue
        st = s * t
        partner = by_component.get(st)
        if partner is None:
            raise AssertionError("matching partner left the intersection")
        done.add(t)
        done.add(st)
        lo, hi = (z, partner) if z.length < partner.length else (partner, z)
        if hi.length != lo.length + 1:
            raise AssertionError("matched pair is not a cover pair")
        pairs.append((lo, hi))
    pairs.sort(key=lambda p: (p[0].length, p[0].reduced_word()))
    return pairs


def partition_pairs(
    w: Element, x: Element, b: SingularBlock
) -> list[tuple[Element, Element]]:
    """Matching of [w,w0] ∩ xW_lambda into cover pairs (z, z') with z -> z'."""
    if not b.contains_min_rep(x):
        raise DomainError(f"{x!r} is not a minimal coset representative")
    if not leq(w, x):
        raise DomainError(f"partition_pairs requires w <= x; got w={w!r}, x={x!r}")
    members = [z for z in b.coset(x) if leq(w, z)]
    if len(members) <= 1:
        raise DomainError("intersection is a singleton")
    return _intersection_pairs(members, b)


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
