"""Acceptance suite: the headline classification results and property bundles.

Each test covers one acceptance criterion, checks exact values, and asserts
its runtime bound.  A [PASS]/[FAIL] line per criterion is printed (visible
with -v as the test outcome, and in captured output on failure).
"""

import json
import pathlib
import time

import properties
import table_digests
from golden_tables import TABLES
from helpers import (
    RANK_LE_3,
    all_singularities,
    decoded_polys,
    get_group,
    get_table,
    tuple_kl_polys,
)
from singbgg import (
    IntPolynomial,
    interval,
    is_kostant,
    leq,
    make_block,
    nonkostant_block,
    s_category_has_bgg,
    singular_skeleton,
    support_X,
)

DATA = pathlib.Path(__file__).parent / "data"

_A3_AUTOS = [{1: 3, 2: 2, 3: 1}]
_A4_AUTOS = [{1: 4, 2: 3, 3: 2, 4: 1}]
_D4_AUTOS = [
    {1: a, 2: 2, 3: b, 4: c}
    for a, b, c in [(1, 3, 4), (1, 4, 3), (3, 1, 4), (3, 4, 1),
                    (4, 1, 3), (4, 3, 1)]
]


def _expected_set(g, table, S, autos):
    key = tuple(sorted(S))
    if key in table:
        return {g.from_word(w) for w in table[key]}
    for p in autos:
        mapped = tuple(sorted(p[i] for i in S))
        if mapped in table:
            inv = {v: k for k, v in p.items()}
            return {g.from_word([inv[c] for c in w]) for w in table[mapped]}
    return set()


def _check_family(fam, rank, autos):
    g = get_group(fam, rank)
    t = get_table(fam, rank)
    table = TABLES[(fam, rank)]
    for S in all_singularities(rank):
        expected = _expected_set(g, table, S, autos)
        got = set(nonkostant_block(g, S, t))
        assert got == expected, (fam, rank, sorted(S))


class _Criterion:
    def __init__(self, num, desc, limit):
        self.num, self.desc, self.limit = num, desc, limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        if exc_type is None and dt < self.limit:
            print(f"[PASS] criterion {self.num}: {self.desc} "
                  f"({dt:.2f}s < {self.limit}s)")
        else:
            print(f"[FAIL] criterion {self.num}: {self.desc} ({dt:.2f}s)")
            assert dt < self.limit, f"criterion {self.num} exceeded time budget"
        return False


def test_criterion_01_a3_table():
    with _Criterion(1, "A3 classification table with 1<->3 symmetry", 1.0):
        _check_family("A", 3, _A3_AUTOS)


def test_criterion_02_b3_table():
    with _Criterion(2, "B3 classification table, unlisted blocks empty", 5.0):
        _check_family("B", 3, [])


def test_criterion_03_rank_le_2_empty():
    with _Criterion(3, "no non-Kostant modules in ranks 1 and 2", 1.0):
        for fam, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]:
            g = get_group(fam, rank)
            t = get_table(fam, rank)
            for S in all_singularities(rank):
                assert nonkostant_block(g, S, t) == []


def test_criterion_04_rank_4_tables():
    with _Criterion(4, "A4, B4 and D4 classification tables", 600.0):
        _check_family("A", 4, _A4_AUTOS)
        _check_family("B", 4, [])
        _check_family("D", 4, _D4_AUTOS)


def test_criterion_05_f4_block():
    with _Criterion(5, "F4 block with singularity {2,3,4}", 1800.0):
        g = get_group("F", 4)
        t = get_table("F", 4)
        expected = {g.from_word(w) for w in TABLES[("F", 4)][(2, 3, 4)]}
        got = set(nonkostant_block(g, {2, 3, 4}, t))
        assert len(expected) == 13
        assert got == expected


def test_criterion_06_b3_golden_polynomial():
    with _Criterion(6, "B3 golden polynomial 1+q and trivial companions", 30.0):
        g = get_group("B", 3)
        t = get_table("B", 3)
        w = g.from_word([3, 2, 3, 2])
        v = g.from_word([2, 3, 2, 1, 2, 3, 2])
        assert t.polynomial(w, v) == IntPolynomial((1, 1))
        for x in interval(w, g.longest_element()):
            if x != v:
                assert t.polynomial(w, x) == IntPolynomial((1,))


def test_criterion_07_b3_worked_example():
    with _Criterion(7, "B3 singular block walkthrough", 30.0):
        g = get_group("B", 3)
        t = get_table("B", 3)
        b = make_block(g, {2, 3})
        reps = b.max_reps
        assert len(reps) == 6
        for i in range(5):  # a chain: consecutive and hence all comparable
            assert leq(reps[i], reps[i + 1])
        w = b.w0_lambda
        assert w == g.from_word([3, 2, 3, 2])
        s1w = g.generator(1) * w
        assert support_X(w, b).flatten() == [w, s1w]
        sk = singular_skeleton(w, b)
        assert sk.vertices == [(w, 0), (s1w, 1)]
        assert [(e.source, e.target, e.kind) for e in sk.edges] == \
            [(s1w, w, "morphism")]
        assert is_kostant(w, b, t)
        assert not is_kostant(w, make_block(g, frozenset()), t)


def test_criterion_08_a3_non_interval_support():
    with _Criterion(8, "A3 support with strata sizes (1,3,2)", 30.0):
        g = get_group("A", 3)
        t = get_table("A", 3)
        b = make_block(g, {2})
        w = g.from_word([3, 1, 2])
        gs = support_X(w, b)
        assert [len(s) for s in gs.strata] == [1, 3, 2]
        assert g.longest_element() not in gs
        assert is_kostant(w, b, t)
        assert w not in set(nonkostant_block(g, {2}, t))


def test_criterion_09_property_suites():
    with _Criterion(9, "structural property suites, exhaustive at rank <= 3",
                    120.0):
        for fam, rank in RANK_LE_3:
            g = get_group(fam, rank)
            t = get_table(fam, rank)
            properties.check_dynkin_symmetry(g, t)
            els = g.elements()
            properties.check_klv_regular_reduction(
                g, t, [(y, w) for y in els[::5] for w in els[::5]])
            for w in els[:: max(1, g.order // 8)]:
                properties.check_sign_squares(g, w)
            for S in all_singularities(rank):
                properties.check_kostant_roundtrip(g, S)
                properties.check_coset_dichotomy(g, S)
                properties.check_extrema(g, S)
                properties.check_matching(g, S)
                properties.check_mobius_agreement(g, S)
                properties.check_singleton_equivalence(g, S)
                properties.check_mobius_inversion(g, S)
                properties.check_support_closure(g, S)
                properties.check_pipeline(g, S)
                properties.check_equality_edges_avoid_support(g, S)
                properties.check_dominant_support(g, S)


def test_criterion_10_quotient_category_reduction():
    with _Criterion(10, "quotient-category BGG resolution criterion", 30.0):
        g = get_group("A", 3)
        t = get_table("A", 3)
        assert not s_category_has_bgg(g.generator(2), make_block(g, {2}), t)
        for fam, rank in RANK_LE_3:
            gg = get_group(fam, rank)
            tt = get_table(fam, rank)
            w0 = gg.longest_element()
            for S in all_singularities(rank):
                assert s_category_has_bgg(w0, make_block(gg, S), tt)


# Diagram automorphisms: i -> 6 - i on A5, 4 <-> 5 on D5.
_RANK_5_AUTOS = {"A5": {1: 5, 2: 4, 3: 3, 4: 2, 5: 1},
                 "D5": {1: 1, 2: 2, 3: 3, 4: 5, 5: 4}}


def test_criterion_11_rank_5_frozen():
    # tests/data/rank5_blocks.json was written by tests/table_digests.py once
    # these cross-checks and the rational-smoothness gate on S = {} (in
    # test_complexes.py) passed; it is never re-frozen to make a test pass.
    frozen = json.loads((DATA / "rank5_blocks.json").read_text())
    with _Criterion(11, "A5 and D5 classifications, cross-checked and frozen", 60.0):
        for name, sigma in _RANK_5_AUTOS.items():
            # shared with test_complexes.py; D5's 1920 elements are above the default budget
            budget = 1920 if name == "D5" else None
            g, t = get_group(name[0], 5, budget), get_table(name[0], 5, budget)
            assert decoded_polys(t) == tuple_kl_polys(g), name
            bad = table_digests.classify(g, t)
            # the set for sigma(S) is sigma applied to the set for S
            for S, ws in bad.items():
                image = {g.from_word([sigma[c] for c in w.reduced_word()]) for w in ws}
                assert image == set(bad[tuple(sorted(sigma[i] for i in S))]), (name, S)
            # one longest representative per coset of W_S
            for S in bad:
                order_s = sum(1 for w in g.elements() if set(w.reduced_word()) <= set(S))
                assert len(make_block(g, S).max_reps) * order_s == g.order, (name, S)
            assert table_digests.block_digests(g, bad) == frozen[name], name
