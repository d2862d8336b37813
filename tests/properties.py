"""Reusable structural property checks, exhaustive at small rank.

Each function raises AssertionError on the first violation.  They are called
from the module test files and re-run in bulk by the acceptance suite.
"""

from helpers import mobius_oracle
from singbgg import (
    assign_signs,
    complementary_singularity,
    coset_extremum,
    cut_equalities,
    dominant_support,
    interval,
    is_kostant,
    kl_table,
    klv_polynomial,
    kostant_decompose,
    leq,
    lower_covers,
    make_block,
    mobius_lambda,
    nonkostant_block,
    partition_pairs,
    regular_skeleton,
    singular_skeleton,
    support_X,
    translate_skeleton,
    upper_covers,
)
from singbgg.bruhat import down_masks, iter_indices
from singbgg.errors import DomainError


def check_kostant_roundtrip(g, S):
    b = make_block(g, S)
    for v in g.elements():
        head, tail = kostant_decompose(v, b)
        assert head in set(b.min_reps)
        assert tail in set(b.W_lambda)
        assert head * tail == v
        assert head.length + tail.length == v.length


def check_coset_dichotomy(g, S):
    """Left multiplication by a generator either maps a coset to a different
    coset preserving covers, or preserves the coset setwise."""
    b = make_block(g, S)
    minset = set(b.min_reps)
    for x in b.min_reps:
        coset = set(b.coset(x))
        for i in range(1, g.rank + 1):
            s = g.generator(i)
            sx = s * x
            if sx in coset:
                for z in coset:
                    assert s * z in coset
            else:
                head = kostant_decompose(sx, b)[0]
                assert head in minset
                image = {s * z for z in coset}
                assert image == set(b.coset(head))
                for z in coset:
                    for zp in coset:
                        if zp in upper_covers(z):
                            up, down = s * zp, s * z
                            if up.length < down.length:
                                up, down = down, up
                            assert down in lower_covers(up)


def check_extrema(g, S):
    b = make_block(g, S)
    w0 = g.longest_element()
    for w in g.elements():
        for x in b.min_reps:
            coset = b.coset(x)
            below = [z for z in coset if leq(z, w)]
            above = [z for z in coset if leq(w, z)]
            if leq(x, w):
                maxima = [z for z in below
                          if not any(leq(z, t) and z != t for t in below)]
                assert len(maxima) == 1
                assert coset_extremum(w, x, b, "max_below") == maxima[0]
            if leq(w, x):
                minima = [z for z in above
                          if not any(leq(t, z) and z != t for t in above)]
                assert len(minima) == 1
                got = coset_extremum(w, x, b, "min_above")
                assert got == minima[0]
                # interval carry-over: the intersection is cover-isomorphic
                # to an interval [y, w0_lambda] inside the parabolic subgroup
                y = kostant_decompose(minima[0], b)[1]
                target = interval(y, b.w0_lambda)
                tails = sorted(kostant_decompose(z, b)[1] for z in above)
                assert tails == sorted(target)
                pairs = {(kostant_decompose(z, b)[1], kostant_decompose(t, b)[1])
                         for z in above for t in above if t in upper_covers(z)}
                ref = {(z, t) for z in target for t in target
                       if t in upper_covers(z)}
                assert pairs == ref


def check_matching(g, S):
    b = make_block(g, S)
    for w in g.elements():
        for x in b.min_reps:
            if not leq(w, x):
                continue
            members = [z for z in b.coset(x) if leq(w, z)]
            if len(members) <= 1:
                continue
            pairs = partition_pairs(w, x, b)
            flat = [z for p in pairs for z in p]
            assert sorted(flat) == sorted(members)
            for lo, hi in pairs:
                assert hi in upper_covers(lo)
            for lo, hi in pairs:
                for lo2, hi2 in pairs:
                    if lo != lo2 and lo.length == lo2.length:
                        assert not leq(lo, hi2)


def check_mobius_agreement(g, S):
    b = make_block(g, S)
    reps = b.max_reps
    for w in reps:
        for x in reps:
            if not leq(w, x):
                continue
            assert mobius_lambda(w, x, b) == mobius_oracle(reps, leq, w, x)


def check_singleton_equivalence(g, S):
    b = make_block(g, S)
    w0 = g.longest_element()
    for w in b.max_reps:
        for xt in b.max_reps:
            x = kostant_decompose(xt, b)[0]
            members = [z for z in b.coset(x) if leq(w, z)]
            nonzero = leq(w, xt) and mobius_lambda(w, xt, b) != 0
            assert nonzero == (len(members) == 1)


def check_mobius_inversion(g, S):
    b = make_block(g, S)
    reps = b.max_reps
    for w in reps:
        for x in reps:
            if not leq(w, x):
                continue
            total = sum(
                (-1) ** (z.length - w.length) * abs(mobius_lambda(w, z, b))
                for z in reps if leq(w, z) and leq(z, x)
            )
            assert total == (1 if x == w else 0)


def check_support_closure(g, S):
    b = make_block(g, S)
    for w in b.max_reps:
        gs = support_X(w, b)
        for i in range(len(gs.strata) - 1):
            for xp in gs.strata[i + 1]:
                for x in b.max_reps:
                    if x.length == xp.length - 1 and leq(w, x) and leq(x, xp):
                        assert x in gs.strata[i]


def check_pipeline(g, S):
    b = make_block(g, S)
    for w in b.max_reps:
        direct = singular_skeleton(w, b)
        staged = cut_equalities(translate_skeleton(regular_skeleton(g, w), b))
        assert direct.vertices == staged.vertices
        assert direct.edges == staged.edges


def check_equality_edges_avoid_support(g, S):
    b = make_block(g, S)
    for w in b.max_reps:
        sk = translate_skeleton(regular_skeleton(g, w), b)
        supp = set(support_X(w, b).flatten())
        for e in sk.edges:
            if e.kind == "equality":
                assert not (e.source in supp and e.target in supp)


def check_sign_squares(g, w):
    sk = assign_signs(regular_skeleton(g, w))
    sign = {(e.source, e.target): e.sign for e in sk.edges}
    for e in sk.edges:
        assert e.sign in (-1, 1)
    tops = {}
    for (src, dst) in sign:
        tops.setdefault(src, []).append(dst)
    n_squares = 0
    for top, mids in tops.items():
        bottoms = {}
        for y in mids:
            for z in tops.get(y, ()):
                bottoms.setdefault(z, []).append(y)
        for z, ys in bottoms.items():
            assert len(ys) == 2
            y1, y2 = ys
            prod = (sign[(top, y1)] * sign[(y1, z)]
                    * sign[(top, y2)] * sign[(y2, z)])
            assert prod == -1
            n_squares += 1
    return n_squares


def check_dominant_support(g, S):
    """The index walk equals the element products of the closed form and the
    Möbius support of w0_lambda (which it also asserts internally)."""
    b = make_block(g, S)
    comp = make_block(g, complementary_singularity(b))
    out = dominant_support(b)
    assert out == {u * b.w0_lambda for u in comp.W_lambda}
    assert out == set(support_X(b.w0_lambda, b).flatten())


def check_dynkin_symmetry(g, t):
    """P_{y,w} = P_{w0 y w0, w0 w w0} on every comparable pair; returns the
    number of pairs and of elements that conjugation by w0 moves."""
    w0 = g.longest_element()
    conj = [(w0 * y * w0).index for y in g.elements()]
    poly = t.polynomial_by_index
    pairs = 0
    for wi, down in enumerate(down_masks(g)):
        cw = conj[wi]
        for yi in iter_indices(down):
            pairs += 1
            assert poly(yi, wi) == poly(conj[yi], cw), (yi, wi)
    return pairs, sum(c != i for i, c in enumerate(conj))


def check_klv_regular_reduction(g, t, pairs):
    b0 = make_block(g, frozenset())
    for y, z in pairs:
        assert klv_polynomial(t, b0, y, z) == t.polynomial(y, z)


def check_monotone_transfer(g, S, t):
    """Non-Kostant sets of a singular block sit inside the regular one."""
    bad_regular = set(nonkostant_block(g, frozenset(), t))
    bad = set(nonkostant_block(g, S, t))
    assert bad <= bad_regular
