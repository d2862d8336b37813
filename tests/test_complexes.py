"""Complex skeletons, translation, cut-off, signs and the exactness test."""

import pytest

import properties
from helpers import (
    RANK_LE_3,
    all_singularities,
    avoids_3412_4231,
    double_coset_maxima,
    get_group,
    get_table,
    mobius_oracle,
    rationally_smooth,
)
from singbgg import (
    CartanType,
    ComplexSkeleton,
    IntPolynomial,
    SkeletonEdge,
    WeylGroup,
    assign_signs,
    coset_extremum,
    cut_equalities,
    dominant_support,
    is_kostant,
    kl_table,
    klv_dominant,
    klv_polynomial,
    kostant_decompose,
    leq,
    load_table,
    make_block,
    mobius_lambda,
    mu_coefficient,
    nonkostant_block,
    partition_pairs,
    regular_skeleton,
    s_category_has_bgg,
    save_table,
    singular_skeleton,
    support_X,
    translate_skeleton,
)
from singbgg import complexes
from singbgg.bruhat import iter_indices, up_masks
from singbgg.errors import DomainError, InputError

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
    lone = ComplexSkeleton(tr.base, tr.block,
                           [p for p in tr.vertices if p[0] != ga.generator(2)],
                           tr.edges, tr.kind)
    with pytest.raises(AssertionError, match="lone coset element <e>"):
        cut_equalities(lone)
    gb = get_group("B", 3)
    bb = make_block(gb, {2, 3})
    tr = translate_skeleton(regular_skeleton(gb, gb.identity), bb)
    # seven of the eight elements of W_lambda
    odd = ComplexSkeleton(tr.base, tr.block,
                          [p for p in tr.vertices if p[0] != gb.generator(2)],
                          tr.edges, tr.kind)
    with pytest.raises(AssertionError, match="matching is not perfect"):
        cut_equalities(odd)
    sk = regular_skeleton(get_group("A", 2), get_group("A", 2).identity)
    with pytest.raises(AssertionError, match="has 1 intermediate elements"):
        assign_signs(ComplexSkeleton(sk.base, sk.block, sk.vertices, sk.edges[1:],
                                     sk.kind))


def test_skeletons_compare_by_value():
    g = get_group("B", 3)
    b = make_block(g, {2})
    w = g.from_word([1, 3, 2])
    direct = singular_skeleton(w, b)
    staged = cut_equalities(translate_skeleton(regular_skeleton(g, w), b))
    # the two paths build their own edges: the pipeline check compares values
    assert len(direct.edges) > 1
    assert all(d is not s for d, s in zip(direct.edges, staged.edges))
    assert direct.edges == staged.edges and direct == staged
    e = direct.edges[0]
    same = SkeletonEdge(source=e.source, target=e.target, kind=e.kind)
    assert same == e and hash(same) == hash(e) and len({same, e}) == 1
    assert SkeletonEdge(e.source, e.target, e.kind, sign=1) != e
    assert SkeletonEdge(e.source, e.target, "equality") != e
    assert SkeletonEdge(e.target, e.source, e.kind) != e
    with pytest.raises(AttributeError):
        e.sign = 1
    assert direct != ComplexSkeleton(direct.base, direct.block, direct.vertices,
                                     direct.edges[1:], direct.kind)
    assert direct != ComplexSkeleton(direct.base, direct.block, direct.vertices,
                                     direct.edges, "translated")
    for field in ComplexSkeleton._fields:
        with pytest.raises(AttributeError):
            setattr(direct, field, None)
    assert direct.kind == "singular" and direct == staged


def test_coset_gates_fire(monkeypatch):
    """The matching and extremum self-checks fire when the coset lookup
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
    walk = list(bb._coset_indices(s1.index))  # the lookup returns a tuple
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


def test_dominant_support_builds_no_complementary_block():
    # The support is a closure in W: no block of the complementary set.
    g = WeylGroup(CartanType("B", 3))  # a group of its own: no cached blocks
    b = make_block(g, {2, 3})
    assert dominant_support(b) == {b.w0_lambda, g.generator(1) * b.w0_lambda}
    assert list(g._blocks) == [frozenset({2, 3})]


def test_dominant_support_self_check_fires(monkeypatch):
    # A Möbius row missing one element of the closed form must be caught.
    g = get_group("B", 3)
    b = make_block(g, {2, 3})
    row = list(complexes._mobius_row(b, b._wlambda_indices[-1]))
    assert (b._wlambda_indices[-1], True) in row
    monkeypatch.setattr(complexes, "_mobius_row",
                        lambda b, wi: [(xi, nz) for xi, nz in row if xi != wi])
    with pytest.raises(AssertionError, match="disagrees with the Möbius support"):
        dominant_support(b)


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


@pytest.mark.parametrize("fam,rank", RANK_LE_3 + [("A", 4), ("B", 4), ("C", 4), ("D", 4),
                                                   ("F", 4), ("A", 5)])
def test_witness_order_keeps_answers(fam, rank):
    # nonkostant_block scans top-down, witnesses first; the answer and its
    # order must be those of testing each representative on its own.
    g = get_group(fam, rank)
    t = get_table(fam, rank)
    for S in all_singularities(rank):
        b = make_block(g, S)
        expect = [w for w in b.max_reps if not is_kostant(w, b, t)]
        assert nonkostant_block(g, S, t) == expect, S


def _kostant_by_pairs(w, b, t):
    """The exactness test pair by pair in index order: the dominant-side
    polynomial is the constant |mu(w, x)| for every representative x >= w."""
    return all(klv_dominant(t, b, w, x) == IntPolynomial((abs(mobius_lambda(w, x, b)),))
               for x in b.max_reps if leq(w, x))


@pytest.mark.parametrize("fam,rank", RANK_LE_3)
def test_exactness_matches_pairwise_definition(fam, rank):
    g = get_group(fam, rank)
    t = get_table(fam, rank)
    for S in all_singularities(rank):
        b = make_block(g, S)
        for w in b.max_reps:
            assert is_kostant(w, b, t) == _kostant_by_pairs(w, b, t), (S, w)
        for x in b.max_reps:  # x^-1 runs over the longest right-coset representatives
            assert s_category_has_bgg(x.inverse(), b, t) == _kostant_by_pairs(x, b, t), (S, x)


def test_witness_scan_work_count(monkeypatch):
    # Pair sums over all 64 blocks of A4, B4, D4 and F4: 253,831 when every
    # representative scans its row in index order, 89,616 witnesses first,
    # and 13,883 once a KL column of all ones decides w on its own and each
    # sum is computed once per double coset W_{D_L(w w0)} (x w0) W_J.
    calls = 0
    coset_sum = complexes._coset_sum

    def counted(*args):
        nonlocal calls
        calls += 1
        return coset_sum(*args)

    monkeypatch.setattr(complexes, "_coset_sum", counted)
    bad = 0
    for fam in "ABDF":
        g = get_group(fam, 4)
        t = get_table(fam, 4)
        for S in all_singularities(4):
            bad += len(nonkostant_block(g, S, t))
    assert bad == 5540
    assert calls <= 100_000
    assert calls == 13_883


@pytest.mark.parametrize("fam,rank", RANK_LE_3 + [("A", 4), ("B", 4), ("D", 4)])
def test_rationally_smooth_representatives_are_kostant(fam, rank):
    # The scan accepts w as soon as the KL column of z = w0 w is all ones.
    # By Carrell-Peterson that column is all ones iff the Schubert variety of
    # z is rationally smooth, which the oracle reads off the Bruhat order
    # alone; the pairwise test reads klv_dominant, which takes no shortcut.
    g = get_group(fam, rank)
    t = get_table(fam, rank)
    lw0 = g.lmul_w0_indices()
    checked = 0
    for S in all_singularities(rank):
        b = make_block(g, S)
        for w in b.max_reps:
            if rationally_smooth(g, lw0[w.index]):
                checked += 1
                assert _kostant_by_pairs(w, b, t), (S, w)
    assert checked


def test_empty_kl_column_is_rational_smoothness():
    g, t = get_group("F", 4), get_table("F", 4)
    assert [not t._cols[zi] for zi in range(g.order)] == [
        rationally_smooth(g, zi) for zi in range(g.order)]


@pytest.mark.parametrize("fam,smallest", [("B", 0), ("F", 2)])
def test_dominant_sums_constant_on_double_cosets(fam, smallest):
    # The scan computes one sum per double coset W_I x' W_J, with
    # I = D_L(w0 w), x' = w0 x and J = S, keyed by the left climb of the top
    # of x' W_J.  The oracle finds the double cosets by closure;
    # klv_dominant must agree on every x in one.  F4 runs the blocks with
    # |S| >= 2 only: the others take about 820,000 reads.
    g, t = get_group(fam, 4), get_table(fam, 4)
    lw0 = g.lmul_w0_indices()
    lmul, up = g._lmul, up_masks(g)
    tops, groups = {}, 0
    for S in all_singularities(4):
        if len(S) < smallest:
            continue
        b = make_block(g, S)
        right = sum(1 << (s - 1) for s in S)
        for w in b.max_reps:
            zi = lw0[w.index]
            left = sum(1 << s for s in range(4) if lmul[s][zi] < zi)
            if (left, right) not in tops:
                tops[left, right] = double_coset_maxima(g, left, right)
            top = tops[left, right]
            cl = t._keys[zi][0]
            by_top = {}
            for xi in iter_indices(up[w.index] & b._maxrep_mask):
                xp = lw0[xi]
                assert cl[b._coset[xp][-1]] == top[xp]
                by_top.setdefault(top[xp], []).append(g.element_by_index(xi))
            for xs in by_top.values():
                if len(xs) > 1:
                    groups += 1
                    p = klv_dominant(t, b, w, xs[0])
                    assert all(klv_dominant(t, b, w, x) == p for x in xs[1:]), (S, w, xs)
    assert groups


@pytest.mark.parametrize("fam", ["B", "F"])
def test_loaded_table_scans_like_the_built_one(tmp_path, fam):
    # A loaded table has the built one's columns and climb keys, so its
    # scans take the same certificates and share the same sums.
    g, t = get_group(fam, 4), get_table(fam, 4)
    path = tmp_path / "t.klv"
    save_table(t, path)
    loaded = load_table(g, path)
    for S in all_singularities(4):
        assert nonkostant_block(g, S, loaded) == nonkostant_block(g, S, t), S


@pytest.mark.parametrize("fam,rank,count", [
    ("A", 1, 0), ("A", 2, 0), ("B", 2, 0), ("G", 2, 0), ("A", 3, 2), ("B", 3, 14),
    ("C", 3, 14), ("D", 3, 2), ("A", 4, 32), ("B", 4, 242), ("C", 4, 242),
    ("D", 4, 84), ("F", 4, 978), ("A", 5, 354), ("D", 5, 1430),
])
def test_regular_block_matches_rational_smoothness(fam, rank, count):
    # For S = {} the block poset is W, Bruhat intervals are Eulerian and
    # |mu| = 1 on every comparable pair, so w is Kostant iff P_{y,v} = 1 for
    # all y <= v = w0 w, iff the Schubert variety of v is rationally smooth
    # (Carrell-Peterson).  The oracle reads no KL polynomial.
    budget = 1920 if (fam, rank) == ("D", 5) else None  # D5 is above the default
    g, t = get_group(fam, rank, budget), get_table(fam, rank, budget)
    lw0 = g.lmul_w0_indices()
    expect = [wi for wi in range(g.order) if not rationally_smooth(g, lw0[wi])]
    assert [w.index for w in nonkostant_block(g, set(), t)] == expect
    assert len(expect) == count


@pytest.mark.parametrize("rank,count", [(3, 2), (4, 32), (5, 354)])
def test_regular_block_matches_pattern_avoidance(rank, count):
    # In type A the rational smoothness of the Schubert variety of w w0 is
    # avoidance of 3412 and 4231 by the permutation w w0 (Lakshmibai-Sandhya);
    # this oracle reads only reduced words.
    g, t = get_group("A", rank), get_table("A", rank)
    expect = [w.index for w in g.elements() if not avoids_3412_4231(w.reduced_word(), rank)]
    assert [w.index for w in nonkostant_block(g, set(), t)] == expect
    assert len(expect) == count


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
    # Every comparable pair of every block: `moved` counts the singularity
    # sets that conjugation by w0 does not fix, `compared` the pairs.
    for fam, rank, moved, compared in [("A", 3, 4, 448), ("D", 3, 4, 448),
                                       ("A", 4, 12, 9862), ("B", 3, 0, 1708),
                                       ("G", 2, 0, 116)]:
        g, t = get_group(fam, rank), get_table(fam, rank)
        w0 = g.longest_element()
        conjugated = pairs = 0
        for S in all_singularities(rank):
            S_dom = _w0_conjugate(g, S)
            conjugated += S_dom != frozenset(S)
            b, b_dom = make_block(g, S), make_block(g, S_dom)
            for w in b.max_reps:
                for x in b.max_reps:
                    if leq(w, x):
                        pairs += 1
                        assert (klv_dominant(t, b, w, x) == klv_polynomial(
                            t, b_dom, x * w0, w * w0)), (fam, rank, S, w, x)
        assert (conjugated, pairs) == (moved, compared), (fam, rank)


def test_exactness_reads_only_the_queried_block():
    # In A4, S = {1} has sigma(S) = {4}; every exactness query on S reads
    # S's own cosets and builds no block of {4}.
    g = WeylGroup(CartanType("A", 4))  # a group of its own: no cached blocks
    t = kl_table(g)
    b = make_block(g, {1})
    w, w0 = b.w0_lambda, g.longest_element()  # w = s1 is its own inverse
    assert is_kostant(w, b, t) == s_category_has_bgg(w, b, t)
    assert klv_dominant(t, b, w, w0) == IntPolynomial((0,))
    assert nonkostant_block(g, {1}, t)
    assert set(g._blocks) == {frozenset({1})}


class _Mixed:
    """B3 and B4 arguments for S = {2}: in each group s2 and s1 s2 are
    longest representatives and e and s1 minimal ones, with the same element
    indices in both groups, so a call that mixes them reads valid-looking
    indices of the wrong group."""

    def __init__(self):
        self.g3, self.g4 = get_group("B", 3), get_group("B", 4)
        self.t3, self.t4 = get_table("B", 3), get_table("B", 4)
        self.b3, self.b4 = make_block(self.g3, {2}), make_block(self.g4, {2})
        self.w3, self.w4 = self.g3.from_word([2]), self.g4.from_word([2])
        self.x4 = self.g4.from_word([1, 2])
        self.e4, self.m4 = self.g4.identity, self.g4.from_word([1])


MIXED_CALLS = {
    "nonkostant_block": lambda a: nonkostant_block(a.g4, {2}, a.t3),
    "is_kostant": lambda a: is_kostant(a.w3, a.b4, a.t4),
    "s_category_has_bgg": lambda a: s_category_has_bgg(a.w3, a.b4, a.t4),
    "klv_dominant": lambda a: klv_dominant(a.t3, a.b4, a.w4, a.x4),
    "klv_polynomial": lambda a: klv_polynomial(a.t3, a.b4, a.e4, a.m4),
    "mu_coefficient": lambda a: mu_coefficient(a.t3, a.e4, a.x4),
    "KLTable.polynomial": lambda a: a.t3.polynomial(a.e4, a.x4),
    "mobius_lambda": lambda a: mobius_lambda(a.w4, a.x4, a.b3),
    "support_X": lambda a: support_X(a.w3, a.b4),
    "singular_skeleton": lambda a: singular_skeleton(a.w3, a.b4),
    "regular_skeleton": lambda a: regular_skeleton(a.g4, a.w3),
    "translate_skeleton": lambda a: translate_skeleton(regular_skeleton(a.g3, a.w3), a.b4),
    "coset_extremum": lambda a: coset_extremum(a.x4, a.m4, a.b3, "max_below"),
    "partition_pairs": lambda a: partition_pairs(a.e4, a.m4, a.b3),
    "kostant_decompose": lambda a: kostant_decompose(a.w3, a.b4),
    "SingularBlock.coset": lambda a: a.b4.coset(a.w3),
}


@pytest.mark.parametrize("name", list(MIXED_CALLS))
def test_arguments_from_different_groups_rejected(name):
    with pytest.raises(InputError, match="belong to different groups"):
        MIXED_CALLS[name](_Mixed())
