"""Cartan data and Weyl group element arithmetic."""

import pytest

from helpers import get_group, shortlex_tables
from singbgg import CartanType, build_group, positive_roots
from singbgg.errors import BudgetError, ConfigurationError, InputError
from singbgg.weyl import _compose


def test_group_orders():
    assert get_group("A", 3).order == 24
    assert get_group("B", 3).order == 48
    assert get_group("D", 4).order == 192
    assert get_group("G", 2).order == 12
    assert get_group("F", 4).order == 1152


def test_positive_root_counts():
    for fam, rank, count in [("A", 3, 6), ("B", 4, 16), ("C", 3, 9),
                             ("D", 4, 12), ("F", 4, 24), ("G", 2, 6)]:
        assert len(positive_roots(CartanType(fam, rank))) == count


def test_bad_cartan_rejected():
    for fam, rank in [("Z", 2), ("F", 3), ("G", 3), ("E", 5), ("D", 2), ("A", 0)]:
        with pytest.raises(ConfigurationError):
            CartanType(fam, rank)


def test_word_round_trip():
    g = get_group("B", 3)
    for w in g.elements():
        assert g.from_word(w.reduced_word()) == w
        assert w.length == len(w.reduced_word())


def test_non_reduced_words_normalize():
    g = get_group("A", 2)
    assert g.from_word([1, 1]).is_identity()
    assert g.from_word([1, 2, 1]) == g.from_word([2, 1, 2])
    assert g.from_word([1, 2, 2, 1]).is_identity()


def test_descent_sets():
    g = get_group("A", 2)
    w = g.from_word([1, 2])
    assert w.left_descents() == {1}
    assert w.right_descents() == {2}
    w0 = g.longest_element()
    assert w0.left_descents() == {1, 2}
    assert w0.right_descents() == {1, 2}


def test_longest_element():
    for fam, rank in [("A", 3), ("B", 3), ("D", 4), ("G", 2)]:
        g = get_group(fam, rank)
        w0 = g.longest_element()
        assert w0.length == len(g.positive_roots)
        assert (w0 * w0).is_identity()
        assert max(w.length for w in g.elements()) == w0.length


def test_longest_element_is_last_index():
    for fam, rank in [("A", 4), ("B", 4), ("D", 4), ("F", 4)]:
        g = get_group(fam, rank)
        w0 = g.longest_element()
        assert w0.index == g.order - 1
        assert all(a < 0 for a in w0.perm)  # every positive root sent negative
        assert g.longest_element() == w0


def test_longest_element_without_enumeration():
    small = build_group(CartanType("B", 3), budget=10)
    assert not small.enumerated
    assert small.longest_element().perm == get_group("B", 3).longest_element().perm
    e6 = build_group(CartanType("E", 6))
    assert e6.longest_element().length == len(e6.positive_roots) == 36


def test_rmul_w0_indices():
    for fam, rank in [("B", 3), ("A", 4), ("B", 4), ("D", 4), ("F", 4)]:
        g = get_group(fam, rank)
        w0 = g._perms[-1]
        assert g.rmul_w0_indices() == [g._index[_compose(p, w0)] for p in g._perms]


def test_element_order_matches_index_order():
    g = get_group("B", 3)
    els = g.elements()
    rev = list(reversed(els))
    assert sorted(rev) == els
    assert sorted(rev, key=lambda w: (w.length, w.reduced_word())) == els
    small = build_group(CartanType("B", 3), budget=10)  # not enumerated
    ws = [small.from_word(w.reduced_word()) for w in rev]
    assert [w.perm for w in sorted(ws)] == [w.perm for w in els]


def test_inverse_and_multiplication():
    g = get_group("B", 3)
    for w in g.elements()[:20]:
        assert (w * w.inverse()).is_identity()
        assert w.inverse().length == w.length


def test_index_order_is_length_shortlex():
    g = get_group("A", 3)
    els = g.elements()
    keys = [(w.length, w.reduced_word()) for w in els]
    assert keys == sorted(keys)
    for i, w in enumerate(els):
        assert w.index == i


@pytest.mark.parametrize("fam,rank", [("G", 2), ("A", 4), ("B", 4), ("D", 4), ("F", 4)])
def test_layered_tables_match_shortlex_sort(fam, rank):
    g = get_group(fam, rank)
    tables = (g._perms, g._words, g._lengths, g._lmul, g._rmul, g._inv)
    assert tables == shortlex_tables(g)


def test_reduced_word_reads_the_table():
    g = get_group("B", 4)
    small = build_group(CartanType("B", 4), budget=10)
    for w in g.elements()[::7]:
        fresh = g.from_word(w.reduced_word() + (1, 1))  # no cached word
        assert fresh.reduced_word() == w.reduced_word()
        assert small.from_word(w.reduced_word()).reduced_word() == w.reduced_word()


def test_mul_tables_consistent():
    g = get_group("A", 3)
    for i, w in enumerate(g.elements()):
        for s in range(g.rank):
            assert g._rmul[s][i] == (w * g.generator(s + 1)).index
            assert g._lmul[s][i] == (g.generator(s + 1) * w).index


def test_mixed_groups_rejected():
    a = get_group("A", 2).identity
    b = get_group("B", 2).identity
    with pytest.raises(InputError):
        a * b


def test_generator_index_validation():
    g = get_group("A", 2)
    with pytest.raises(InputError):
        g.generator(3)
    with pytest.raises(InputError):
        g.from_word([0])


def test_budget_blocks_enumeration_only():
    g = build_group(CartanType("E", 6))
    s1, s2 = g.generator(1), g.generator(3)
    assert (s1 * s2).length == 2  # arithmetic still works
    with pytest.raises(BudgetError):
        g.elements()


def test_budget_override():
    g = build_group(CartanType("B", 3), budget=10)
    with pytest.raises(BudgetError):
        g.elements()
