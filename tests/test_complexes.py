"""Complex skeletons, translation, cut-off, signs and the exactness test."""

from dataclasses import replace

import pytest

import properties
from helpers import all_singularities, get_group, get_table
from singbgg import (
    IntPolynomial,
    assign_signs,
    coset_extremum,
    cut_equalities,
    dominant_support,
    is_kostant,
    klv_dominant,
    klv_polynomial,
    leq,
    make_block,
    mobius_oracle,
    nonkostant_block,
    partition_pairs,
    regular_skeleton,
    s_category_has_bgg,
    singular_skeleton,
    support_X,
    translate_skeleton,
)
from singbgg.errors import DomainError

# Upper interval of s1s2 in A3: vertex words and its 22 cover arrows
# (arrows run from the longer to the shorter element).
A3_NODES = ["123121", "12312", "12321", "23121", "2312", "3121",
            "121", "1232", "312", "1231", "123", "12"]
A3_ARROWS = [(9, 6), (0, 2), (3, 4), (2, 7), (10, 11), (9, 10), (0, 3),
             (8, 11), (5, 8), (3, 5), (5, 6), (4, 6), (1, 9), (2, 9),
             (7, 8), (0, 1), (2, 5), (7, 10), (1, 4), (4, 8), (6, 11), (1, 7)]
A3_EQUALITIES = [(0, 2), (1, 9), (7, 10)]  # for S = {2}
A3_UNTOUCHED = ["12", "312", "121", "3121", "2312", "23121"]


def _from_digits(g, s):
    return g.from_word([int(c) for c in s])


def test_regular_skeleton_golden_a3():
    g = get_group("A", 3)
    w = g.from_word([1, 2])
    sk = regular_skeleton(g, w)
    nodes = [_from_digits(g, s) for s in A3_NODES]
    assert sorted(sk.elements()) == sorted(nodes)
    got = {(e.source, e.target) for e in sk.edges}
    expect = {(nodes[i], nodes[j]) for i, j in A3_ARROWS}
    assert got == expect
    for v, i in sk.vertices:
        assert i == v.length - w.length
    for e in sk.edges:
        assert e.kind == "morphism" and e.sign is None
        assert e.source.length == e.target.length + 1
        assert leq(e.target, e.source)


def test_regular_skeleton_top():
    g = get_group("A", 3)
    sk = regular_skeleton(g, g.longest_element())
    assert len(sk.vertices) == 1 and not sk.edges


def test_translate_skeleton_golden_a3():
    g = get_group("A", 3)
    b = make_block(g, {2})
    sk = translate_skeleton(regular_skeleton(g, g.from_word([1, 2])), b)
    nodes = [_from_digits(g, s) for s in A3_NODES]
    eq = {(e.source, e.target) for e in sk.edges if e.kind == "equality"}
    assert eq == {(nodes[i], nodes[j]) for i, j in A3_EQUALITIES}
    touched = {v for s, t in eq for v in (s, t)}
    untouched = [v for v, _ in sk.vertices if v not in touched]
    assert sorted(untouched) == sorted(_from_digits(g, s) for s in A3_UNTOUCHED)
    # displayed-in-bold set: exactly the longest coset representatives
    bold = {v for v, _ in sk.vertices if b.contains_max_rep(v)}
    assert bold == {_from_digits(g, s) for s in
                    ["123121", "12312", "23121", "2312", "3121", "121",
                     "1232", "312", "12"]}


def test_translate_requires_regular():
    g = get_group("A", 3)
    b = make_block(g, {2})
    sk = translate_skeleton(regular_skeleton(g, g.from_word([1, 2])), b)
    with pytest.raises(DomainError):
        translate_skeleton(sk, b)


def test_translate_no_singularity_no_equalities():
    g = get_group("A", 3)
    b = make_block(g, frozenset())
    sk = translate_skeleton(regular_skeleton(g, g.generator(2)), b)
    assert all(e.kind == "morphism" for e in sk.edges)


def test_cut_golden_a3():
    g = get_group("A", 3)
    b = make_block(g, {2})
    sk = cut_equalities(translate_skeleton(
        regular_skeleton(g, g.from_word([1, 2])), b))
    assert sorted(sk.elements()) == sorted(
        _from_digits(g, s) for s in A3_UNTOUCHED)
    assert sk.kind == "singular"


def test_cut_requires_translated():
    g = get_group("A", 3)
    with pytest.raises(DomainError):
        cut_equalities(regular_skeleton(g, g.identity))


def test_singular_two_term_b3():
    g = get_group("B", 3)
    b = make_block(g, {2, 3})
    w = g.from_word([3, 2, 3, 2])
    sk = singular_skeleton(w, b)
    s1w = g.generator(1) * w
    assert sk.vertices == [(w, 0), (s1w, 1)]
    assert len(sk.edges) == 1
    e = sk.edges[0]
    assert (e.source, e.target, e.kind) == (s1w, w, "morphism")


def test_singular_skeleton_domain():
    g = get_group("A", 3)
    b = make_block(g, {2})
    with pytest.raises(DomainError):
        singular_skeleton(g.identity, b)
    w0 = g.longest_element()
    sk = singular_skeleton(w0, b)
    assert sk.vertices == [(w0, 0)] and not sk.edges


def test_pipeline_equality_exhaustive():
    for fam, rank in [("A", 3), ("B", 3)]:
        g = get_group(fam, rank)
        for S in all_singularities(rank):
            properties.check_pipeline(g, S)


def test_equality_edges_avoid_support():
    for fam, rank in [("A", 3), ("B", 3)]:
        g = get_group(fam, rank)
        for S in all_singularities(rank):
            properties.check_equality_edges_avoid_support(g, S)


def _assert_word_sorted(sk):
    assert sk.vertices == sorted(sk.vertices, key=lambda p: (p[1], p[0].reduced_word()))
    assert sk.edges == sorted(sk.edges, key=lambda e: (
        e.target.length, e.target.reduced_word(), e.source.reduced_word()))


def test_stage_order_matches_word_sorts():
    """Every stage lists vertices by (degree, word) and edges by (target
    length, target word, source word), the order the sorts keyed by
    reduced words used to impose."""
    cases = [(g, g.elements(), all_singularities(3))
             for g in (get_group("A", 3), get_group("B", 3))]
    f4 = get_group("F", 4)
    cases.append((f4, [f4.from_word(w) for w in ([2, 3, 2, 3], [1, 2, 3, 2, 1],
                                                  [4, 3, 2, 3, 4, 1, 2])],
                  [{2, 3}, {1}, {3, 4}]))
    for g, ws, singularities in cases:
        for w in ws:
            reg = regular_skeleton(g, w)
            stages = [reg, assign_signs(reg)]
            for S in singularities:
                b = make_block(g, S)
                tr = translate_skeleton(reg, b)
                stages += [tr, cut_equalities(tr)]
                if b.contains_max_rep(w):
                    stages.append(singular_skeleton(w, b))
            for sk in stages:
                _assert_word_sorted(sk)


def test_cut_and_sign_gates_fire():
    """The self-checks fire on skeletons the pipeline never builds."""
    ga = get_group("A", 3)
    ba = make_block(ga, {2})
    tr = translate_skeleton(regular_skeleton(ga, ga.identity), ba)
    # without s2 the identity is alone in its coset but not its longest element
    lone = replace(tr, vertices=[p for p in tr.vertices if p[0] != ga.generator(2)])
    with pytest.raises(AssertionError, match="lone coset element <e>"):
        cut_equalities(lone)
    gb = get_group("B", 3)
    bb = make_block(gb, {2, 3})
    tr = translate_skeleton(regular_skeleton(gb, gb.identity), bb)
    # seven of the eight elements of W_lambda
    odd = replace(tr, vertices=[p for p in tr.vertices if p[0] != gb.generator(2)])
    with pytest.raises(AssertionError, match="matching is not perfect"):
        cut_equalities(odd)
    sk = regular_skeleton(get_group("A", 2), get_group("A", 2).identity)
    with pytest.raises(AssertionError, match="has 1 intermediate elements"):
        assign_signs(replace(sk, edges=sk.edges[1:]))


def test_coset_gates_fire(monkeypatch):
    """The matching and extremum self-checks fire when the coset walk
    returns something other than a coset."""
    g = get_group("A", 3)
    b = make_block(g, {2})
    e = g.identity
    monkeypatch.setattr(b, "_coset_indices", lambda xi: [0, 5])  # e, s1 s3
    with pytest.raises(AssertionError, match="not a cover pair"):
        partition_pairs(e, e, b)
    monkeypatch.setattr(b, "_coset_indices", lambda xi: [1, 3])  # s1, s3
    with pytest.raises(AssertionError, match="no unique minimum"):
        partition_pairs(e, e, b)
    with pytest.raises(AssertionError, match="2 extremal elements"):
        coset_extremum(e, e, b, "min_above")
    gb = get_group("B", 3)
    bb = make_block(gb, {2, 3})
    s1 = gb.generator(1)
    walk = bb._coset_indices(s1.index)
    walk[3] = 0  # the identity is not above s1
    monkeypatch.setattr(bb, "_coset_indices", lambda xi: walk)
    with pytest.raises(AssertionError, match="partner left the intersection"):
        partition_pairs(s1, s1, bb)


def test_signs_single_edge():
    g = get_group("A", 1)
    sk = assign_signs(regular_skeleton(g, g.identity))
    assert [e.sign for e in sk.edges] == [1]


def test_signs_hexagon_and_figure():
    g2 = get_group("A", 2)
    assert properties.check_sign_squares(g2, g2.identity) == 4
    g3 = get_group("A", 3)
    assert properties.check_sign_squares(g3, g3.from_word([1, 2])) > 0
    for w in get_group("B", 3).elements()[::7]:
        properties.check_sign_squares(get_group("B", 3), w)


def test_signs_require_regular():
    g = get_group("A", 3)
    b = make_block(g, {2})
    sk = translate_skeleton(regular_skeleton(g, g.identity), b)
    with pytest.raises(DomainError):
        assign_signs(sk)


def test_is_kostant_examples():
    ga = get_group("A", 3)
    ta = get_table("A", 3)
    ba = make_block(ga, {2})
    assert is_kostant(ga.longest_element(), ba, ta)
    assert not is_kostant(ga.generator(2), ba, ta)
    assert is_kostant(ga.from_word([3, 1, 2]), ba, ta)

    gb = get_group("B", 3)
    tb = get_table("B", 3)
    bb = make_block(gb, {2, 3})
    w = gb.from_word([3, 2, 3, 2])
    assert is_kostant(w, bb, tb)
    assert not is_kostant(w, make_block(gb, frozenset()), tb)


def test_dominant_support_closed_form():
    gb = get_group("B", 3)
    bb = make_block(gb, {2, 3})
    out = dominant_support(bb)
    assert out == {bb.w0_lambda, gb.generator(1) * bb.w0_lambda}

    ga = get_group("A", 3)
    ba = make_block(ga, {2})
    s2 = ga.generator(2)
    comp = make_block(ga, {1, 3})
    assert dominant_support(ba) == {u * s2 for u in comp.W_lambda}
    assert len(dominant_support(ba)) == 4

    b0 = make_block(ga, frozenset())
    assert dominant_support(b0) == set(ga.elements())

    for S in all_singularities(3):
        properties.check_dominant_support(gb, S)


def test_monotone_transfer():
    for fam, rank in [("A", 3), ("B", 3)]:
        g = get_group(fam, rank)
        t = get_table(fam, rank)
        for S in all_singularities(rank):
            properties.check_monotone_transfer(g, S, t)


def test_s_category_reduction():
    g = get_group("A", 3)
    t = get_table("A", 3)
    b = make_block(g, {2})
    assert not s_category_has_bgg(g.generator(2), b, t)
    assert s_category_has_bgg(g.longest_element(), b, t)
    with pytest.raises(DomainError):
        s_category_has_bgg(g.identity, b, t)

    gb = get_group("B", 3)
    tb = get_table("B", 3)
    bb = make_block(gb, {1, 2})
    w = gb.from_word([1, 2, 1])  # self-inverse, listed as non-Kostant
    assert w.inverse() == w
    assert not s_category_has_bgg(w, bb, tb)


def test_nonkostant_sorted_deterministic():
    g = get_group("B", 3)
    t = get_table("B", 3)
    out = nonkostant_block(g, {1, 2}, t)
    assert out == sorted(out)


def _w0_conjugate(g, S):
    """sigma(S): the singularity set conjugated by the longest element."""
    w0 = g.longest_element()
    gens = [g.generator(i) for i in range(1, g.rank + 1)]
    return frozenset(gens.index(w0 * g.generator(i) * w0) + 1 for i in S)


def _nonkostant_oracle(g, S, t):
    """Element-level definition: w is Kostant iff for every longest
    representative x >= w the singular polynomial at (x w0, w w0) for the
    conjugated singularity is the constant |mu(w, x)| of the block poset,
    with mu computed by the generic recursion."""
    b = make_block(g, S)
    b_dom = make_block(g, _w0_conjugate(g, S))
    w0 = g.longest_element()
    reps = b.max_reps
    bad = []
    for w in reps:
        for x in reps:
            if not leq(w, x):
                continue
            m = abs(mobius_oracle(reps, leq, w, x))
            if klv_polynomial(t, b_dom, x * w0, w * w0) != IntPolynomial((m,)):
                bad.append(w)
                break
    return bad


def test_nonkostant_matches_element_oracle():
    for fam in ("A", "B", "C"):
        g = get_group(fam, 3)
        t = get_table(fam, 3)
        for S in all_singularities(3):
            assert nonkostant_block(g, S, t) == _nonkostant_oracle(g, S, t), (fam, S)


def test_klv_dominant_matches_conjugated_block():
    g = get_group("B", 3)
    t = get_table("B", 3)
    S = frozenset({1, 2})
    b = make_block(g, S)
    b_dom = make_block(g, _w0_conjugate(g, S))
    w0 = g.longest_element()
    pairs = [(w, x) for w in b.max_reps for x in b.max_reps if leq(w, x)]
    assert len(pairs) > len(b.max_reps)
    for w, x in pairs:
        assert klv_dominant(t, b, w, x) == klv_polynomial(t, b_dom, x * w0, w * w0)
