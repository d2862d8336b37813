"""Parabolic subgroups, coset representatives and coset combinatorics."""

from fractions import Fraction

import pytest

import properties
from helpers import all_singularities, get_group
from singbgg import (
    CartanType,
    complementary_singularity,
    coset_extremum,
    hat_map,
    kostant_decompose,
    leq,
    make_block,
    partition_pairs,
    singularity_from_weight,
)
from singbgg.errors import DomainError, InputError


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
    for fam, rank in [("A", 3), ("B", 3)]:
        g = get_group(fam, rank)
        for S in all_singularities(rank):
            b = make_block(g, S)
            assert len(b.min_reps) * len(b.W_lambda) == g.order
            assert sorted(x * b.w0_lambda for x in b.min_reps) == sorted(b.max_reps)
            for x in b.min_reps:
                assert not (x.right_descents() & S)
            assert sorted(x.inverse() for x in b.min_reps) == sorted(b.right_min_reps)
            assert sorted(x.inverse() for x in b.max_reps) == sorted(b.right_max_reps)


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
    assert singularity_from_weight(a3, (Fraction(3, 2), 1, Fraction(1, 2), 0)) \
        == frozenset()
    c3 = CartanType("C", 3)
    d4 = CartanType("D", 4)
    assert singularity_from_weight(c3, (2, 1, 0)) == {3}
    assert singularity_from_weight(c3, (1, 1, 0)) == {1, 3}
    assert singularity_from_weight(d4, (3, 2, 1, -1)) == {4}
    assert singularity_from_weight(d4, (1, 1, 0, 0)) == {1, 3, 4}
    assert singularity_from_weight(b3, (Fraction(1, 2), Fraction(1, 2), 0)) \
        == {1, 3}


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
    assert hat_map(w0).is_identity()
    assert hat_map(g.identity) == w0
    for w in g.elements():
        assert hat_map(hat_map(w)) == w0 * w * w0
    for S in all_singularities(3):
        b = make_block(g, S)
        image = sorted(hat_map(w) for w in b.max_reps)
        assert image == sorted(b.right_min_reps)


def test_complementary_singularity():
    g = get_group("A", 3)
    assert complementary_singularity(make_block(g, {2})) == {1, 3}
    assert complementary_singularity(make_block(g, frozenset())) == {1, 2, 3}
    assert complementary_singularity(make_block(g, {1, 2, 3})) == frozenset()
