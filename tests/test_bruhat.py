"""Bruhat order: comparisons, covers and intervals against a subword oracle."""

import random
from itertools import compress

import pytest

from helpers import (
    _compose,
    _invert,
    _num_inversions,
    get_group,
    reflection_covers,
    root_model,
    subword_leq,
)
from singbgg import (
    CartanType,
    build_group,
    hat_map,
    interval,
    leq,
    lower_covers,
    upper_covers,
)
from singbgg.bruhat import cover_graph, index_mask, iter_indices
from singbgg.errors import BudgetError, DomainError


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3)])
def test_leq_matches_subword_oracle(fam, rank):
    g = get_group(fam, rank)
    for u in g.elements():
        for v in g.elements():
            assert leq(u, v) == subword_leq(u, v)


@pytest.mark.parametrize("fam,rank", [("G", 2), ("A", 4), ("B", 4), ("D", 4), ("F", 4)])
def test_cover_graph_matches_reflection_definition(fam, rank):
    g = get_group(fam, rank)
    cg = cover_graph(g)
    assert (cg.upper, cg.lower) == reflection_covers(g)
    assert cover_graph(g) is cg and cg.group is g  # built once, kept on the group


def test_covers_have_length_one_jump():
    g = get_group("B", 3)
    for w in g.elements():
        for c in upper_covers(w):
            assert c.length == w.length + 1
            assert leq(w, c)
            assert w in lower_covers(c)


def test_cover_counts_match_order():
    g = get_group("A", 3)
    for w in g.elements():
        ups = [v for v in g.elements()
               if v.length == w.length + 1 and leq(w, v)]
        assert sorted(ups) == sorted(upper_covers(w))


def test_interval_contents():
    g = get_group("A", 2)
    w0 = g.longest_element()
    assert sorted(interval(g.identity, w0)) == sorted(g.elements())
    assert interval(w0, w0) == [w0]


def test_empty_interval_rejected():
    g = get_group("A", 2)
    with pytest.raises(DomainError):
        interval(g.generator(1), g.generator(2))


def test_order_queries_above_the_budget():
    # Above the element budget there are no index tables: every Bruhat-order
    # query refuses, while element arithmetic still answers.
    small = build_group(CartanType("B", 3), budget=1)
    assert not small.enumerated
    full = get_group("B", 3)
    words = [(), (1,), (2, 3), (3, 2, 3, 2), (1, 2, 3, 2, 1), (2, 3, 2),
             (1, 2, 1), (3,), (2, 3, 2, 1, 2, 3, 2)]
    for wu in words:
        u, fu = small.from_word(wu), full.from_word(wu)
        for query in (lambda: leq(u, u), lambda: interval(small.identity, u),
                      lambda: upper_covers(u), lambda: lower_covers(u)):
            with pytest.raises(BudgetError):
                query()
        assert u.reduced_word() == fu.reduced_word()
        assert u.inverse().weight == fu.inverse().weight
        assert hat_map(u).weight == hat_map(fu).weight
        for wv in words:
            assert (u * small.from_word(wv)).weight == (fu * full.from_word(wv)).weight
    assert small.longest_element().weight == full.longest_element().weight
    # E6, E7 and E8 against the signed-root permutation model, on seeded
    # words that need not be reduced
    rng = random.Random(19)
    for rank in (6, 7, 8):
        g = build_group(CartanType("E", rank))
        assert not g.enumerated
        with pytest.raises(BudgetError):
            leq(g.identity, g.identity)
        m = root_model(g.cartan)
        w0 = g.longest_element()
        w0p = m.of_word(w0.reduced_word())
        assert w0.length == _num_inversions(w0p) == len(m.roots)
        assert w0 * w0 == g.identity
        words = [tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 40)))
                 for _ in range(12)]
        for wu in words:
            u, pu = g.from_word(wu), m.of_word(wu)
            assert u.weight == m.weight(pu)
            assert u.reduced_word() == m.word(pu)
            assert u.length == _num_inversions(pu)
            assert g.from_word(wu + (rank, rank)) == u
            assert u.inverse().weight == m.weight(_invert(pu))
            assert hat_map(u).weight == m.weight(_compose(_invert(pu), w0p))
            for wv in words:
                assert (u * g.from_word(wv)).weight == m.weight(_compose(pu, m.of_word(wv)))


def test_iter_indices_dense_and_sparse():
    rng = random.Random(3)
    masks = [0, 1, 2, 1 << 1000, (1 << 1152) - 1]
    masks += [rng.getrandbits(2000) for _ in range(20)]  # dense
    masks += [sum(1 << rng.randrange(4000) for _ in range(5)) for _ in range(20)]  # sparse
    # one set bit in 32 is the line between the two paths: 100 bits over
    # 3,200 digits is read in one pass, 99 bits bit by bit
    line = sum(1 << (32 * i + 31) for i in range(100))
    dense = [line, line | 1, 0]
    sparse = [line ^ 1 << 1631, 1 << 1151]
    for m in dense:
        assert type(iter_indices(m)) is compress
    for m in sparse:
        assert type(iter_indices(m)) is not compress
    for m in masks + dense + sparse:
        assert list(iter_indices(m)) == [i for i in range(m.bit_length()) if m >> i & 1]
        # index_mask draws the same line, and takes the indices in any order
        assert index_mask(iter_indices(m)) == m
        assert index_mask(reversed([*iter_indices(m)])) == m
