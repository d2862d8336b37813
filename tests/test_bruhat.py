"""Bruhat order: comparisons, covers and intervals against a subword oracle."""

import random

import pytest

from helpers import get_group, reflection_covers, subword_leq
from singbgg import build_group, CartanType, interval, leq, lower_covers, upper_covers
from singbgg.bruhat import cover_graph, iter_indices
from singbgg.errors import DomainError


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


def test_recursive_leq_without_enumeration():
    small = build_group(CartanType("B", 3), budget=1)
    assert not small.enumerated
    full = get_group("B", 3)
    words = [(), (1,), (2, 3), (3, 2, 3, 2), (1, 2, 3, 2, 1), (2, 3, 2),
             (1, 2, 1), (3,), (2, 3, 2, 1, 2, 3, 2)]
    for wu in words:
        for wv in words:
            got = leq(small.from_word(wu), small.from_word(wv))
            ref = leq(full.from_word(wu), full.from_word(wv))
            assert got == ref


def test_iter_indices_dense_and_sparse():
    rng = random.Random(3)
    masks = [0, 1, 2, 1 << 1000, (1 << 1152) - 1]
    masks += [rng.getrandbits(2000) for _ in range(20)]  # dense
    masks += [sum(1 << rng.randrange(4000) for _ in range(5)) for _ in range(20)]  # sparse
    for m in masks:
        assert list(iter_indices(m)) == [i for i in range(m.bit_length()) if m >> i & 1]
