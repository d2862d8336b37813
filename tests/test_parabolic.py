"""Parabolic subgroups, coset representatives and coset combinatorics."""

from fractions import Fraction

import pytest

import properties
from helpers import all_singularities, get_group, lambda_S, quotient_down_masks
from singbgg import (
    CartanType,
    build_group,
    complementary_singularity,
    coset_extremum,
    hat_map,
    kostant_decompose,
    leq,
    make_block,
    partition_pairs,
    positive_roots,
    singularity_from_weight,
)
from singbgg import parabolic
from singbgg.bruhat import (
    _closure,
    _cover_lists,
    cover_graph,
    down_masks,
    index_mask,
    iter_indices,
    up_masks,
)
from singbgg.errors import DomainError, InputError
from singbgg.parabolic import SingularBlock
from singbgg.weyl import _orbit


def test_block_sizes():
    g = get_group("A", 3)
    b = make_block(g, {2})
    assert len(b.W_lambda) == 2
    assert len(b.min_reps) == 12
    assert len(b.max_reps) == 12
    gb = get_group("B", 3)
    bb = make_block(gb, {2, 3})
    assert len(bb.W_lambda) == 8
    assert len(bb.min_reps) == 6


def test_block_structure_invariants():
    for fam, rank in [("A", 3), ("B", 3), ("G", 2), ("A", 4), ("B", 4), ("D", 4), ("F", 4)]:
        g = get_group(fam, rank)
        lengths = g._lengths
        for S in all_singularities(rank):
            b = make_block(g, S)
            # the coset map: every element lies in its coset, whose members share
            # one tuple, from the minimal representative (no right descent in S)
            # to the longest (all of S), with the signs (-1)^l(u) of W_lambda
            # relative to the minimal one
            for i, c in enumerate(b._coset):
                assert c.count(i) == 1 and all(b._coset[z] is c for z in c)
                assert {s for s in S if g._rmul[s - 1][c[0]] < c[0]} == set()
                assert {s for s in S if g._rmul[s - 1][c[-1]] < c[-1]} == set(S)
                assert list(b._signs) == [(-1) ** (lengths[z] - lengths[c[0]]) for z in c]
                assert b.contains_min_rep(g.element_by_index(i)) == all(
                    g._rmul[s - 1][i] > i for s in S)
            assert len(b._signs) == len(b.W_lambda)
            assert len(b.min_reps) * len(b.W_lambda) == g.order
            assert sorted(x * b.w0_lambda for x in b.min_reps) == sorted(b.max_reps)
            # minimal left-coset representatives have no right descent in S,
            # longest ones have all of S; their inverses are the right-coset
            # representatives, with the same property on the left
            for reps, descends in ((b.min_reps, set()), (b.max_reps, set(S))):
                for x in reps:
                    assert {s for s in S if g._rmul[s - 1][x.index] < x.index} == descends
                inverses = {x.inverse() for x in reps}
                assert inverses == {w for w in g.elements()
                                    if {s for s in S if g._lmul[s - 1][w.index] < w.index}
                                    == descends}


def test_coset_walk_gates_fire(monkeypatch):
    """The block build rejects a W_lambda whose cosets do not tile W: a walk
    that loses length, and one that lists an element twice."""
    g = get_group("A", 2)
    monkeypatch.setattr(parabolic, "_closure", lambda i, rows: [0, 1, 2])  # e, s1, s2
    with pytest.raises(AssertionError, match="coset lengths are not additive"):
        SingularBlock(g, frozenset({1, 2}))
    monkeypatch.setattr(parabolic, "_closure", lambda i, rows: [0, 1, 1])
    with pytest.raises(AssertionError, match="cosets of W_lambda do not partition W"):
        SingularBlock(g, frozenset({1}))


def test_bad_singular_index():
    g = get_group("A", 3)
    with pytest.raises(InputError):
        make_block(g, {0})
    with pytest.raises(InputError):
        make_block(g, {4})


def test_kostant_decompose_example():
    g = get_group("A", 3)
    b = make_block(g, {2})
    head, tail = kostant_decompose(g.from_word([1, 2]), b)
    assert head == g.generator(1)
    assert tail == g.generator(2)


def test_kostant_roundtrip_exhaustive():
    for fam, rank in [("A", 3), ("B", 3), ("G", 2)]:
        g = get_group(fam, rank)
        for S in all_singularities(rank):
            properties.check_kostant_roundtrip(g, S)


def test_coset_dichotomy():
    for fam, rank in [("A", 3), ("B", 2)]:
        g = get_group(fam, rank)
        for S in all_singularities(rank):
            properties.check_coset_dichotomy(g, S)


def test_extrema_unique_and_interval_isomorphism():
    for fam, rank in [("A", 3), ("B", 3)]:
        g = get_group(fam, rank)
        for S in all_singularities(rank):
            properties.check_extrema(g, S)


def test_extremum_trivial_cases():
    g = get_group("A", 3)
    b = make_block(g, {2})
    s1, w = g.generator(1), g.from_word([1, 2])
    assert coset_extremum(w, s1, b, "max_below") == w
    for x in b.min_reps:
        assert coset_extremum(g.identity, x, b, "min_above") == x


def test_extremum_errors():
    g = get_group("A", 3)
    b = make_block(g, {2})
    with pytest.raises(DomainError):
        coset_extremum(g.identity, g.generator(2), b, "max_below")  # not a min rep
    with pytest.raises(InputError):
        coset_extremum(g.identity, g.generator(1), b, "sideways")


def test_partition_pairs_example():
    g = get_group("A", 3)
    b = make_block(g, {2})
    pairs = partition_pairs(g.identity, g.generator(1), b)
    assert pairs == [(g.generator(1), g.from_word([1, 2]))]


def test_partition_pairs_singleton_rejected():
    g = get_group("B", 3)
    b = make_block(g, {2, 3})
    w = g.from_word([3, 2, 3, 2])
    # the coset of e meets [w, w0] in exactly {w}
    with pytest.raises(DomainError):
        partition_pairs(w, g.identity, b)


def test_partition_pairs_properties():
    for fam, rank in [("A", 3), ("B", 3)]:
        g = get_group(fam, rank)
        for S in all_singularities(rank):
            properties.check_matching(g, S)


def test_pairs_and_coset_order_match_word_sorts():
    """partition_pairs lists pairs by the (length, word) of their lower
    element and coset lists its members by (length, word).  A4 with S =
    {1, 2, 4} has pairs that come out of the matching in another order."""
    def key(x):
        return (x.length, x.reduced_word())

    cases = [(get_group(fam, 3), all_singularities(3)) for fam in ("A", "B")]
    cases.append((get_group("A", 4), [{1, 2, 4}]))
    for g, singularities in cases:
        for S in singularities:
            b = make_block(g, S)
            for x in g.elements():
                coset = b.coset(x)
                assert coset == sorted(coset, key=key)
            for w in g.elements():
                for x in b.min_reps:
                    if leq(w, x) and sum(leq(w, z) for z in b.coset(x)) > 1:
                        pairs = partition_pairs(w, x, b)
                        assert pairs == sorted(pairs, key=lambda p: key(p[0]))


def test_singularity_from_weight():
    a3 = CartanType("A", 3)
    b3 = CartanType("B", 3)
    assert singularity_from_weight(a3, (2, 1, 1, 0)) == {2}
    assert singularity_from_weight(b3, (1, 0, 0)) == {2, 3}
    assert singularity_from_weight(a3, (1, 1, 0, 0)) == {1, 3}
    assert singularity_from_weight(a3, (3, 2, 1, 0)) == frozenset()
    c3 = CartanType("C", 3)
    d4 = CartanType("D", 4)
    assert singularity_from_weight(c3, (2, 1, 0)) == {3}
    assert singularity_from_weight(c3, (1, 1, 0)) == {1, 3}
    assert singularity_from_weight(d4, (3, 2, 1, -1)) == {4}
    assert singularity_from_weight(d4, (1, 1, 0, 0)) == {1, 3, 4}
    # half-integer coordinates with integer pairings are integral
    h = Fraction(1, 2)
    assert singularity_from_weight(b3, (5 * h, 3 * h, h)) == frozenset()
    assert singularity_from_weight(b3, (3 * h, h, h)) == {2}
    assert singularity_from_weight(d4, (3 * h, h, h, -h)) == {2, 4}
    assert singularity_from_weight(a3, (3 * h, h, h, -h)) == {2}


def test_singularity_from_weight_rejects_non_integral_weights():
    # their blocks belong to the integral Weyl groups A1xA1 and B2xA1, not
    # to A3 and B3
    h = Fraction(1, 2)
    with pytest.raises(InputError, match="not integral"):
        singularity_from_weight(CartanType("A", 3), (3 * h, 1, h, 0))
    with pytest.raises(InputError, match="not integral"):
        singularity_from_weight(CartanType("B", 3), (h, h, 0))
    with pytest.raises(InputError, match="not integral"):
        singularity_from_weight(CartanType("C", 3), (h, h, h))


def test_singularity_from_weight_errors():
    a3 = CartanType("A", 3)
    with pytest.raises(InputError):
        singularity_from_weight(a3, (0, 1, 2, 3))  # not dominant
    with pytest.raises(InputError):
        singularity_from_weight(a3, (1, 0, 0))  # wrong length
    with pytest.raises(InputError):
        singularity_from_weight(CartanType("F", 4), (1, 2, 3, 4))
    for bad in [("x", 1, 1, 0), (None, 1, 1, 0), (float("nan"), 1, 1, 0),
                (float("inf"), 1, 1, 0), ("1/0", 1, 1, 0), 5]:
        with pytest.raises(InputError):
            singularity_from_weight(a3, bad)


def test_hat_map():
    g = get_group("A", 3)
    w0 = g.longest_element()
    assert hat_map(w0) == g.identity
    assert hat_map(g.identity) == w0
    for w in g.elements():
        assert hat_map(hat_map(w)) == w0 * w * w0
    for S in all_singularities(3):
        b = make_block(g, S)
        image = sorted(hat_map(w) for w in b.max_reps)
        assert image == sorted(x.inverse() for x in b.min_reps)


def test_hat_map_above_the_budget():
    # A group above the element budget has no index tables; hat_map still answers.
    small = build_group(CartanType("B", 3), budget=10)
    assert not small.enumerated
    for w in get_group("B", 3).elements():
        assert hat_map(small.from_word(w.reduced_word())).weight == hat_map(w).weight


def test_complementary_singularity():
    g = get_group("A", 3)
    assert complementary_singularity(make_block(g, {2})) == {1, 3}
    assert complementary_singularity(make_block(g, frozenset())) == {1, 2, 3}
    assert complementary_singularity(make_block(g, {1, 2, 3})) == frozenset()


@pytest.mark.parametrize("fam,rank", [
    ("G", 2), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 3),
    ("C", 4), ("D", 3), ("D", 4), ("F", 4), ("A", 5), ("D", 5),
])
def test_orbit_of_lambda_S_is_the_quotient(fam, rank):
    # The orbit of lambda_S lists W^S: the block's minimal representatives in
    # index order, with their words and lengths, and the action on cosets.
    budget = 1920 if (fam, rank) == ("D", 5) else None  # D5 is above the default
    g = get_group(fam, rank, budget)
    for S in all_singularities(rank):
        b = make_block(g, S)
        reps = b._minrep_indices
        weights, words, lengths, _, lmul = _orbit(g._cols, lambda_S(rank, S))
        assert len(weights) * len(b._wlambda_indices) == g.order
        assert words == [g._words[m] for m in reps], S
        assert lengths == [g._lengths[m] for m in reps], S
        point = {m: k for k, m in enumerate(reps)}
        for s, row in enumerate(lmul):
            for k, m in enumerate(reps):
                sm = g._lmul[s][m]
                first = b._coset[sm][0]
                assert row[k] == point[first]
                # a self-entry exactly where s*m is not a minimal representative
                assert (row[k] == k) == (first != sm)


def _restricted(masks, point):
    """The masks of the elements m in `point`, each read on `point`: bit
    point[r] for each r of `point` in masks[m]."""
    keep = index_mask(point)
    return [index_mask(map(point.__getitem__, iter_indices(masks[m] & keep)))
            for m in point]


@pytest.mark.parametrize("fam,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 3),
    ("C", 4), ("D", 3), ("D", 4), ("G", 2), ("F", 4), ("A", 5), ("D", 5),
])
def test_quotient_order_by_lifting(fam, rank):
    # The lifting rule on the orbit, and the cover loop run on the orbit's
    # tables, give Bruhat order restricted to W^S.  On W the loop is
    # cover_graph's.
    budget = 1920 if (fam, rank) == ("D", 5) else None  # D5 is above the default
    g = get_group(fam, rank, budget)
    cg = cover_graph(g)
    assert _cover_lists(g._lmul, g._words) == (cg.upper, cg.lower)
    down, up = down_masks(g), up_masks(g)
    for S in all_singularities(rank):
        reps = make_block(g, S)._minrep_indices
        point = {m: k for k, m in enumerate(reps)}
        orbit = _orbit(g._cols, lambda_S(rank, S))
        expect = _restricted(down, point)
        assert quotient_down_masks(orbit) == expect, S
        upper, lower = _cover_lists(orbit[4], orbit[1])
        assert lower == [[point[c] for c in cg.lower[m] if c in point]
                         for m in reps], S
        n = len(reps)
        assert _closure(lower, range(n)) == expect, S
        assert _closure(upper, range(n - 1, -1, -1)) == _restricted(up, point), S


def _quotient_length_counts(g, S, roots, checked):
    """Length counts of the orbit of lambda_S, checked for the structure of
    W^S: palindromic, with one point of top length N - N_S, and that point
    w0 lambda_S has no positive coordinate.  Up to 2,160 points the cover
    loop's order is also checked against the lifting rule, and S is added
    to `checked`."""
    orbit = _orbit(g._cols, lambda_S(g.rank, S))
    weights, words, lengths, _, lmul = orbit
    if len(weights) <= 2_160:
        upper, lower = _cover_lists(lmul, words)
        assert all(lengths[c] + 1 == lengths[w]
                   for w, low in enumerate(lower) for c in low), S
        down = _closure(lower, range(len(weights)))
        assert down == quotient_down_masks(orbit), S
        assert down[-1] == (1 << len(weights)) - 1, S
        assert _closure(upper, range(len(weights) - 1, -1, -1))[0] == down[-1], S
        checked.append(S)
    n_s = sum(all(c == 0 or i + 1 in S for i, c in enumerate(r)) for r in roots)
    top = len(roots) - n_s
    counts = [lengths.count(k) for k in range(top + 1)]
    assert lengths[-1] == top and counts[-1] == 1 and len(lengths) == sum(counts)
    assert counts == counts[::-1]
    assert all(c <= 0 for c in weights[-1])
    return counts


def test_orbit_structure_above_the_budget():
    e6 = build_group(CartanType("E", 6))
    assert not e6.enumerated
    roots = positive_roots(e6.cartan)
    sigma = {1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}  # the diagram automorphism
    checked = []
    counts = {S: _quotient_length_counts(e6, S, roots, checked)
              for S in all_singularities(6)}
    assert len(checked) == 27
    for S, c in counts.items():
        sub = sorted(S)
        cols = [tuple(e6._cols[j - 1][i - 1] for i in sub) for j in sub]
        w_s = len(_orbit(cols, (1,) * len(sub))[0])
        assert sum(c) * w_s == e6.order == 51_840, S
        assert counts[frozenset(sigma[i] for i in S)] == c, S
    for n, S, size in [(7, range(1, 7), 56), (7, (1, 2, 3, 4, 5, 7), 756),
                       (8, range(1, 8), 240), (8, range(2, 9), 2_160)]:
        g = build_group(CartanType("E", n))
        assert not g.enumerated
        counts = _quotient_length_counts(g, frozenset(S), positive_roots(g.cartan),
                                         checked)
        assert sum(counts) == size
    assert len(checked) == 31
