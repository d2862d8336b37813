"""Möbius functions: generic oracle, closed form, graded supports."""

import pytest

import properties
from helpers import all_singularities, get_group, mobius_oracle
from singbgg import (
    GradedSupport,
    leq,
    make_block,
    mobius_lambda,
    support_X,
)
from singbgg.errors import DomainError


def test_oracle_basics():
    chain = [0, 1, 2, 3]
    order = lambda a, b: a <= b
    assert mobius_oracle(chain, order, 1, 1) == 1
    assert mobius_oracle(chain, order, 1, 2) == -1
    assert mobius_oracle(chain, order, 0, 2) == 0
    assert mobius_oracle(chain, order, 2, 1) == 0  # incomparable convention


def test_full_bruhat_mobius_alternates():
    """On the whole group the Möbius function is (-1)^(length difference)."""
    for fam, rank in [("A", 2), ("B", 2), ("A", 3)]:
        g = get_group(fam, rank)
        els = g.elements()
        for w in els:
            for x in els:
                if leq(w, x):
                    expect = -1 if (x.length - w.length) % 2 else 1
                    assert mobius_oracle(els, leq, w, x) == expect


def test_closed_form_matches_oracle():
    for fam, rank in [("A", 3), ("B", 3)]:
        g = get_group(fam, rank)
        for S in all_singularities(rank):
            properties.check_mobius_agreement(g, S)


def test_vanishing_examples():
    gb = get_group("B", 3)
    b = make_block(gb, {2, 3})
    w = gb.from_word([3, 2, 3, 2])
    x = gb.from_word([2, 1, 3, 2, 3, 2])
    assert mobius_lambda(w, x, b) == 0
    # the exit witness of the vanishing
    z = gb.from_word([2, 3, 1, 2, 3])
    assert leq(w, z) and leq(z, x) and not b.contains_max_rep(z)

    ga = get_group("A", 3)
    ba = make_block(ga, {2})
    assert mobius_lambda(ga.from_word([3, 1, 2]), ga.longest_element(), ba) == 0


def test_domain_errors():
    g = get_group("A", 3)
    b = make_block(g, {2})
    with pytest.raises(DomainError):
        mobius_lambda(g.identity, g.longest_element(), b)
    with pytest.raises(DomainError):
        support_X(g.identity, b)


def test_singleton_equivalence():
    for fam, rank in [("A", 3), ("B", 3)]:
        g = get_group(fam, rank)
        for S in all_singularities(rank):
            properties.check_singleton_equivalence(g, S)


def test_support_trivial_top():
    g = get_group("A", 3)
    b = make_block(g, {2})
    gs = support_X(g.longest_element(), b)
    assert gs.strata == [[g.longest_element()]]


def test_support_b3_example():
    g = get_group("B", 3)
    b = make_block(g, {2, 3})
    w = g.from_word([3, 2, 3, 2])
    gs = support_X(w, b)
    assert gs.strata == [[w], [g.generator(1) * w]]


def test_support_compares_by_value():
    g = get_group("B", 3)
    b = make_block(g, {2, 3})
    w = g.from_word([3, 2, 3, 2])
    gs = support_X(w, b)
    again = support_X(g.from_word([3, 2, 3, 2]), b)
    assert gs is not again and gs == again
    assert gs != GradedSupport(gs.base, gs.strata[:1], gs.block)
    assert gs != GradedSupport(gs.base, gs.strata, make_block(g, {2}))
    for field in GradedSupport._fields:
        with pytest.raises(AttributeError):
            setattr(gs, field, None)
    assert gs == again and w in gs


def test_support_a3_non_interval():
    g = get_group("A", 3)
    b = make_block(g, {2})
    w = g.from_word([3, 1, 2])
    gs = support_X(w, b)
    assert [len(s) for s in gs.strata] == [1, 3, 2]
    assert gs.strata[0] == [w]
    assert set(gs.strata[1]) == {g.from_word(t) for t in
                                 [(3, 1, 2, 1), (1, 2, 3, 2), (2, 3, 1, 2)]}
    assert set(gs.strata[2]) == {g.from_word(t) for t in
                                 [(2, 3, 1, 2, 1), (1, 2, 3, 1, 2)]}
    assert g.longest_element() not in gs


def test_support_downward_closed():
    for fam, rank in [("A", 3), ("B", 3)]:
        g = get_group(fam, rank)
        for S in all_singularities(rank):
            properties.check_support_closure(g, S)


def test_mobius_inversion_identity():
    for fam, rank in [("A", 3), ("B", 3)]:
        g = get_group(fam, rank)
        for S in all_singularities(rank):
            properties.check_mobius_inversion(g, S)
