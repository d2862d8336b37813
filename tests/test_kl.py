"""Kazhdan-Lusztig tables, singular variants and the binary cache."""

import random

import pytest

import properties
from helpers import get_group, get_table
from singbgg import (
    IntPolynomial,
    interval,
    kl_table,
    klv_dominant,
    klv_polynomial,
    leq,
    load_table,
    lower_covers,
    make_block,
    mu_coefficient,
    save_table,
)
from singbgg.errors import DomainError, InputError

ONE = IntPolynomial((1,))


def test_rank_le_2_trivial():
    for fam, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]:
        assert len(get_table(fam, rank)) == 0


def test_diagonal_and_zero():
    g = get_group("A", 3)
    t = get_table("A", 3)
    for w in g.elements():
        assert t.polynomial(w, w) == ONE
    assert t.polynomial(g.generator(1), g.generator(2)) == IntPolynomial()


def test_b3_golden_polynomial():
    g = get_group("B", 3)
    t = get_table("B", 3)
    w = g.from_word([3, 2, 3, 2])
    v = g.from_word([2, 3, 2, 1, 2, 3, 2])
    assert t.polynomial(w, v) == IntPolynomial((1, 1))
    assert str(t.polynomial(w, v)) == "1+q"
    for x in interval(w, g.longest_element()):
        if x != v:
            assert t.polynomial(w, x) == ONE


def test_positivity_and_degree_bound():
    g = get_group("B", 3)
    t = get_table("B", 3)
    for y in g.elements():
        for w in g.elements():
            p = t.polynomial(y, w)
            if leq(y, w):
                assert p[0] == 1
                assert all(c >= 0 for c in p)
                if y != w:
                    assert 2 * p.degree <= w.length - y.length - 1
            else:
                assert p == IntPolynomial()


def test_determinism():
    g = get_group("A", 3)
    assert kl_table(g)._poly == kl_table(g)._poly


def test_dynkin_symmetry():
    for fam, rank in [("A", 3), ("B", 3)]:
        properties.check_dynkin_symmetry(get_group(fam, rank),
                                         get_table(fam, rank))


def test_mu_coefficients():
    g = get_group("B", 3)
    t = get_table("B", 3)
    for w in g.elements():
        assert mu_coefficient(t, w, w) == 0
        for y in lower_covers(w):
            assert mu_coefficient(t, y, w) == 1
    w = g.from_word([3, 2, 3, 2])
    v = g.from_word([2, 3, 2, 1, 2, 3, 2])
    assert mu_coefficient(t, w, v) == 1


def test_klv_regular_reduces_to_kl():
    rng = random.Random(7)
    for fam, rank in [("A", 3), ("B", 3)]:
        g = get_group(fam, rank)
        t = get_table(fam, rank)
        els = g.elements()
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(300)]
        properties.check_klv_regular_reduction(g, t, pairs)


def test_klv_diagonal_is_one():
    g = get_group("A", 3)
    t = get_table("A", 3)
    b = make_block(g, {2})
    for y in b.min_reps:
        assert klv_polynomial(t, b, y, y) == ONE


def test_klv_two_term_example():
    g = get_group("A", 3)
    t = get_table("A", 3)
    b = make_block(g, {2})
    s2 = g.generator(2)
    for y in b.min_reps:
        for z in b.min_reps:
            expect = IntPolynomial(
                tuple(a - c for a, c in
                      zip(_pad(t.polynomial(y, z)), _pad(t.polynomial(y * s2, z))))
            )
            assert klv_polynomial(t, b, y, z) == expect


def _pad(p, n=8):
    return tuple(p) + (0,) * (n - len(p))


def test_klv_membership_enforced():
    g = get_group("A", 3)
    t = get_table("A", 3)
    b = make_block(g, {2})
    with pytest.raises(DomainError):
        klv_polynomial(t, b, g.generator(2), g.longest_element())


def test_klv_dominant_basics():
    g = get_group("B", 3)
    t = get_table("B", 3)
    b = make_block(g, {2, 3})
    w = g.from_word([3, 2, 3, 2])
    assert klv_dominant(t, b, w, w) == ONE
    assert klv_dominant(t, b, w, g.generator(1) * w) == ONE
    for x in b.max_reps:
        if leq(w, x):
            p = klv_dominant(t, b, w, x)
            if x != w:
                assert 2 * p.degree <= x.length - w.length - 1
    with pytest.raises(DomainError):
        klv_dominant(t, b, g.identity, w)


def test_cache_round_trip(tmp_path):
    g = get_group("B", 3)
    t = get_table("B", 3)
    path = tmp_path / "b3.klv"
    save_table(t, path)
    t2 = load_table(g, path)
    assert t2._poly == t._poly
    for y in g.elements()[:10]:
        for w in g.elements():
            assert t2.polynomial(y, w) == t.polynomial(y, w)


def test_cache_validation(tmp_path):
    g = get_group("B", 3)
    t = get_table("B", 3)
    path = tmp_path / "b3.klv"
    save_table(t, path)
    with pytest.raises(InputError):
        load_table(get_group("A", 3), path)
    bad = tmp_path / "bad.klv"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(InputError):
        load_table(g, bad)


def test_truncated_cache_rejected(tmp_path):
    g = get_group("B", 3)
    path = tmp_path / "b3.klv"
    save_table(get_table("B", 3), path)
    data = path.read_bytes()
    cut = tmp_path / "cut.klv"
    # every prefix, so every header field, entry and bitset boundary
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(InputError):
            load_table(g, cut)


def test_corrupt_family_byte_rejected(tmp_path):
    g = get_group("B", 3)
    path = tmp_path / "b3.klv"
    save_table(get_table("B", 3), path)
    data = bytearray(path.read_bytes())
    data[4] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(InputError):
        load_table(g, path)


def test_unreadable_cache_rejected(tmp_path):
    g = get_group("B", 3)
    with pytest.raises(InputError):
        load_table(g, tmp_path / "missing.klv")
    with pytest.raises(InputError):
        load_table(g, tmp_path)  # a directory
