"""Cartan data and Weyl group element arithmetic."""

import random

import pytest

from helpers import _compose, _invert, get_group, index_perms, root_model, shortlex_tables
from singbgg import CartanType, build_group, make_block, positive_roots
from singbgg.bruhat import down_masks, iter_indices
from singbgg.errors import BudgetError, ConfigurationError, InputError
from singbgg.weyl import _graph_automorphisms


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


@pytest.mark.parametrize("fam,rank,count,highest", [
    ("B", 3, 9, (1, 2, 2)),
    ("C", 3, 9, (2, 2, 1)),
    ("D", 4, 12, (1, 2, 1, 1)),
    ("G", 2, 6, (3, 2)),
    ("F", 4, 24, (2, 3, 4, 2)),
    ("E", 6, 36, (1, 2, 2, 3, 2, 1)),
    ("E", 7, 63, (2, 2, 3, 4, 3, 2, 1)),
    ("E", 8, 120, (2, 3, 4, 6, 5, 4, 3, 2)),
])
def test_positive_roots_in_simple_root_basis(fam, rank, count, highest):
    # The highest root pins the Bourbaki convention: a transposed Cartan
    # matrix gives the dual root system, with the same Weyl group.
    roots = positive_roots(CartanType(fam, rank))
    assert len(roots) == count
    assert roots[-1] == highest
    assert roots[:rank] == [tuple(int(i == j) for j in range(rank))
                            for i in range(rank)]
    assert all(type(c) is int and c >= 0 for r in roots for c in r)
    heights = [sum(r) for r in roots]
    assert heights == sorted(heights)


def test_bad_cartan_rejected():
    for fam, rank, message in [
        ("Z", 2, "unknown family 'Z'"),
        ("F", 3, "type F requires rank 4"),
        ("G", 3, "type G requires rank 2"),
        ("E", 5, "type E requires rank 6, 7 or 8"),
        ("D", 2, "type D requires rank >= 3"),
        ("A", 0, "rank must be a positive integer, got 0"),
        ("A", "3", "rank must be a positive integer, got '3'"),
        ("A", True, "rank must be a positive integer, got True"),
        ("A", 1.0, "rank must be a positive integer, got 1.0"),
    ]:
        with pytest.raises(ConfigurationError) as exc:
            CartanType(fam, rank)
        assert str(exc.value) == message


def test_cartan_type_is_an_immutable_value():
    b4 = CartanType("B", 4)
    assert b4 == CartanType("B", 4) and hash(b4) == hash(CartanType("B", 4))
    assert b4 != CartanType("C", 4) and b4 != CartanType("B", 3)
    assert b4 != ("B", 4)
    assert len({b4, CartanType("B", 4), CartanType("C", 4)}) == 2
    assert repr(b4) == "CartanType(family='B', rank=4)"
    assert str(b4) == "B4"
    with pytest.raises(AttributeError):
        b4.rank = 5
    with pytest.raises(AttributeError):
        b4.family = "C"
    assert (b4.family, b4.rank) == ("B", 4)
    assert b4._replace(family="C") == CartanType("C", 4)
    with pytest.raises(ConfigurationError):
        b4._replace(rank=0)


def test_word_round_trip():
    g = get_group("B", 3)
    for w in g.elements():
        assert g.from_word(w.reduced_word()) == w
        assert w.length == len(w.reduced_word())


def test_non_reduced_words_normalize():
    g = get_group("A", 2)
    assert g.from_word([1, 1]) == g.identity
    assert g.from_word([1, 2, 1]) == g.from_word([2, 1, 2])
    assert g.from_word([1, 2, 2, 1]) == g.identity


def _descents(mul, i):
    """{s : l(s w_i) < l(w_i)} for mul = g._lmul, {s : l(w_i s) < l(w_i)} for
    g._rmul: indices are sorted by length, so a descent lowers the index."""
    return {s + 1 for s, row in enumerate(mul) if row[i] < i}


def test_descent_sets():
    g = get_group("A", 2)
    w = g.from_word([1, 2])
    assert _descents(g._lmul, w.index) == {1}
    assert _descents(g._rmul, w.index) == {2}
    w0 = g.longest_element()
    assert _descents(g._lmul, w0.index) == {1, 2}
    assert _descents(g._rmul, w0.index) == {1, 2}
    # the tables agree with the root action: s is a right descent of w iff
    # w sends alpha_s negative, a left descent iff w^-1 does, and that holds
    # iff the s-th coordinate of w(rho) is negative
    for fam, rank in [("B", 3), ("G", 2), ("D", 4), ("F", 4)]:
        g = get_group(fam, rank)
        for w, p in zip(g.elements(), index_perms(g)):
            i = w.index
            assert _descents(g._rmul, i) == {s for s in range(1, rank + 1) if p[s - 1] < 0}
            assert _descents(g._lmul, i) == _descents(g._rmul, g._inv[i])
            assert _descents(g._lmul, i) == {
                s for s in range(1, rank + 1) if _invert(p)[s - 1] < 0}
            assert _descents(g._lmul, i) == {
                s for s in range(1, rank + 1) if w.weight[s - 1] < 0}


@pytest.mark.parametrize("fam,rank", [("G", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4)])
def test_weight_is_the_image_of_rho(fam, rank):
    # rho - w(rho) is the sum of the positive roots that w^-1 sends negative
    g = get_group(fam, rank)
    m = root_model(g.cartan)
    for w, p in zip(g.elements(), index_perms(g)):
        assert w.weight == m.weight(p)


def test_longest_element():
    for fam, rank in [("A", 3), ("B", 3), ("D", 4), ("G", 2)]:
        g = get_group(fam, rank)
        w0 = g.longest_element()
        assert w0.length == len(positive_roots(g.cartan))
        assert w0 * w0 == g.identity
        assert max(w.length for w in g.elements()) == w0.length


def test_longest_element_is_last_index():
    for fam, rank in [("A", 4), ("B", 4), ("D", 4), ("F", 4)]:
        g = get_group(fam, rank)
        w0 = g.longest_element()
        assert w0.index == g.order - 1
        assert w0.weight == (-1,) * rank  # w0(rho) = -rho
        # every positive root sent negative
        assert all(a < 0 for a in root_model(g.cartan).of_word(w0.reduced_word()))
        assert g.longest_element() == w0
        assert w0.reduced_word() == g._words[-1]  # the table's word


def test_longest_element_without_enumeration():
    small = build_group(CartanType("B", 3), budget=10)
    assert not small.enumerated
    assert small.longest_element().weight == get_group("B", 3).longest_element().weight
    e6 = build_group(CartanType("E", 6))
    assert e6.longest_element().length == len(positive_roots(e6.cartan)) == 36


def test_lmul_w0_indices():
    for fam, rank in [("B", 3), ("A", 4), ("B", 4), ("D", 4), ("F", 4)]:
        g = get_group(fam, rank)
        perms = index_perms(g)
        index = {p: i for i, p in enumerate(perms)}
        assert g.lmul_w0_indices() == [index[_compose(perms[-1], p)] for p in perms]


def test_element_order_matches_index_order():
    g = get_group("B", 3)
    els = g.elements()
    rev = list(reversed(els))
    assert sorted(rev) == els
    assert sorted(rev, key=lambda w: (w.length, w.reduced_word())) == els
    small = build_group(CartanType("B", 3), budget=10)  # not enumerated
    ws = [small.from_word(w.reduced_word()) for w in rev]
    assert [w.weight for w in sorted(ws)] == [w.weight for w in els]


def test_inverse_and_multiplication():
    g = get_group("B", 3)
    for w in g.elements()[:20]:
        assert w * w.inverse() == g.identity
        assert w.inverse().length == w.length


def test_index_order_is_length_shortlex():
    g = get_group("A", 3)
    els = g.elements()
    keys = [(w.length, w.reduced_word()) for w in els]
    assert keys == sorted(keys)
    for i, w in enumerate(els):
        assert w.index == i
    # elements rebuilt from words carry no cached index or word, and still
    # sort into index order
    rng = random.Random(0)
    for fam, rank in [("B", 4), ("F", 4)]:
        g = get_group(fam, rank)
        fresh = [g.from_word(word) for word in g._words]
        rng.shuffle(fresh)
        assert all(w._index is None and w._word is None for w in fresh)
        assert [w.index for w in sorted(fresh)] == list(range(g.order))


@pytest.mark.parametrize("fam,rank", [
    ("G", 2), ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4),
])
def test_layered_tables_match_shortlex_sort(fam, rank):
    g = get_group(fam, rank)
    tables = (g._weights, g._words, g._lengths, g._lmul, g._rmul, g._inv)
    assert tables == shortlex_tables(g)


def test_reduced_word_is_shortlex_from_the_weight():
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


@pytest.mark.parametrize("fam,rank,count", [
    ("A", 1, 1), ("A", 2, 2), ("A", 3, 2), ("A", 5, 2), ("A", 8, 2),
    ("B", 2, 2), ("C", 2, 2), ("G", 2, 2), ("F", 4, 2), ("E", 6, 2),
    ("D", 4, 6), ("D", 5, 2), ("D", 6, 2), ("D", 7, 2),
    ("B", 3, 1), ("B", 6, 1), ("C", 3, 1), ("C", 7, 1), ("E", 7, 1), ("E", 8, 1),
])
def test_graph_automorphism_counts(fam, rank, count):
    # from the Cartan matrix alone: no group is enumerated
    perms = _graph_automorphisms(CartanType(fam, rank).cartan_matrix())
    assert len(perms) == count
    assert perms[0] == tuple(range(rank))


@pytest.mark.parametrize("fam,rank,budget", [
    ("A", 1, None), ("A", 2, None), ("A", 3, None), ("A", 4, None),
    ("B", 2, None), ("B", 3, None), ("B", 4, None), ("C", 2, None), ("C", 3, None),
    ("C", 4, None), ("D", 3, None), ("D", 4, None), ("F", 4, None), ("G", 2, None),
    ("A", 5, None), ("D", 5, 1920),
])
def test_symmetries_keep_length_and_order(fam, rank, budget):
    # each map is a bijection keeping lengths and the Bruhat order, and is
    # a graph automorphism's map phi(s w) = pi(s) phi(w), or one composed
    # with inversion; with the identity they form a group of 2 |Aut| maps
    g = get_group(fam, rank, budget)
    n, lmul, inv, lengths = g.order, g._lmul, g._inv, g._lengths
    ident = list(range(n))
    perms = _graph_automorphisms(g.cartan.cartan_matrix())
    maps = g._symmetries()
    assert len(maps) == (0 if n == 2 else 2 * len(perms) - 1)
    group = {tuple(ident), *map(tuple, maps)}
    assert len(group) == len(maps) + 1
    assert all(tuple(map(a.__getitem__, b)) in group for a in group for b in group)
    down = down_masks(g)
    for phi in maps:
        assert sorted(phi) == ident
        assert [lengths[k] for k in phi] == lengths
        for w, m in enumerate(down):
            assert sum(1 << phi[y] for y in iter_indices(m)) == down[phi[w]]
        assert any(all(psi[lmul[s][w]] == lmul[pi[s]][psi[w]] for s in range(rank) for w in ident)
                   for pi in perms for psi in (phi, [phi[k] for k in inv]))


def test_mixed_groups_rejected():
    a = get_group("A", 2).identity
    b = get_group("B", 2).identity
    with pytest.raises(InputError):
        a * b


def test_order_across_groups_rejected():
    a3, b3 = get_group("A", 3), get_group("B", 3)
    u, v = a3.from_word([1, 2]), b3.from_word([1])
    for compare in (lambda: u < v, lambda: u <= v, lambda: u > v, lambda: u >= v):
        with pytest.raises(InputError):
            compare()
    assert u != v and not u == v
    for compare in (lambda: u < 5, lambda: u >= 5, lambda: 5 > u):
        with pytest.raises(TypeError):
            compare()
    assert u != 5


def test_generator_index_validation():
    g = get_group("A", 2)
    for i in (3, 0, True, 1.0, "1"):
        with pytest.raises(InputError) as exc:
            g.generator(i)
        assert str(exc.value) == f"generator index {i!r} out of range 1..2"
        with pytest.raises(InputError):
            g.from_word([1, i])
    with pytest.raises(InputError):
        make_block(g, {True})
    # a bool index would take the int's cache entry and print as a bool
    assert repr(make_block(g, {1})) == "SingularBlock(A2, S=[1])"


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
