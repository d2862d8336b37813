"""Kazhdan-Lusztig tables, singular variants and the binary cache."""

import errno
import gzip
import hashlib
import inspect
import pathlib
import random
import stat
import struct
import sys
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import properties
from helpers import decoded_polys, double_coset_maxima, get_group, get_table, tuple_kl_polys
from singbgg import (
    CartanType,
    IntPolynomial,
    WeylGroup,
    interval,
    is_kostant,
    kl_table,
    klv_dominant,
    klv_polynomial,
    leq,
    load_table,
    lower_covers,
    make_block,
    mu_coefficient,
    nonkostant_block,
    save_table,
)
from singbgg import klpoly
from singbgg.bruhat import down_masks, index_mask, iter_indices
from singbgg.errors import DomainError, InputError

ONE = IntPolynomial((1,))

DATA = pathlib.Path(__file__).parent / "data"

_PAYLOAD = klpoly._HEADER.size  # the payload's offset; its CRC32 ends here


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
    assert kl_table(g)._cols == kl_table(g)._cols


@pytest.mark.parametrize("fam,rank,budget", [
    pytest.param(fam, rank, budget, id=f"{fam}-{rank}") for fam, rank, budget in [
        ("G", 2, None), ("A", 4, None), ("B", 4, None), ("D", 4, None), ("F", 4, None),
        ("A", 5, None), ("D", 5, 1920)]])
def test_packed_table_equals_tuple_recursion(fam, rank, budget):
    # the oracle runs the recursion on every column; the table copies most
    # columns from their orbit's smallest member
    t = get_table(fam, rank, budget)
    expect = tuple_kl_polys(get_group(fam, rank, budget))
    assert decoded_polys(t) == expect
    assert t._pool == {p: klpoly._unpack(p) for p in t._pool}
    assert len(t._pool) == len(set(expect.values()))
    assert t._cmax == max((abs(c) for p in expect.values() for c in p), default=1)


@pytest.mark.parametrize("fam,rank", [("F", 4), ("D", 4)])
def test_oracle_keeps_the_symmetries(fam, rank):
    # P_{y,w} = P_{phi y, phi w} for inversion and the graph automorphisms,
    # checked on the symmetry-free oracle, which copies no column
    g = get_group(fam, rank)
    expect = tuple_kl_polys(g)
    for phi in g._symmetries():
        assert {(phi[y], phi[w]): p for (y, w), p in expect.items()} == expect


def test_distinct_counts():
    # a table stores P_{m,w} at the double-coset maxima m only; read through
    # the keys, 231,036 comparable pairs have a polynomial other than 1
    t = get_table("F", 4)
    assert (len(t), len(t._pool), t._cmax) == (15622, 312, 12)
    assert len(decoded_polys(t)) == 231036


def _descent_masks(rows):
    """d[y] has bit s set iff s is a descent of y on the side rows multiply on."""
    return [sum(1 << s for s, row in enumerate(rows) if row[y] < y) for y in range(len(rows[0]))]


@pytest.mark.parametrize("fam,rank", [("B", 3), ("A", 4), ("F", 4)])
def test_climbs_reach_the_coset_maximum(fam, rank):
    # cl_I[y] lies in W_I y and has every s in I as a left descent, so it is
    # the longest element of W_I y; the same for y W_J on the right
    g = get_group(fam, rank)
    elems = list(g.elements())
    ident = list(range(g.order))
    for rows, on_left in ((g._lmul, True), (g._rmul, False)):
        desc = _descent_masks(rows)
        for gens in range(1 << rank):
            climb = klpoly._climb(rows, gens, ident)
            for y, top in zip(elems, map(elems.__getitem__, climb)):
                assert desc[top.index] & gens == gens
                u = top * y.inverse() if on_left else y.inverse() * top
                assert {s - 1 for s in u.reduced_word()} <= {s for s in range(rank) if gens >> s & 1}


def test_extremal_recursion_work_count(monkeypatch):
    # _build runs the recursion only on the y <= w with y = cl[cr[y]], the
    # maximum of W_I y W_J for I = D_L(w) and J = D_R(w), and stores nothing
    # at the other y.  F4: 23,919 extremal pairs with w > e, 23,920 with
    # (e, e), against 198,404 when every y with s y < y for one left
    # descent s of w went through the recursion.  The recursion runs only
    # on the columns w that are the smallest index of their orbit under
    # inversion and the graph automorphism: 7,477 of those entries, in 344
    # of the 1,151 columns w > e.  The runs are counted at the recursion's
    # first line.
    g = get_group("F", 4)
    build = klpoly.KLTable._build
    lines, first = inspect.getsourcelines(build)
    line = first + next(i for i, text in enumerate(lines) if "p = col_v.get(clv[crv[sl[yi]]], 1)" in text)
    runs = 0

    def count_line(frame, event, arg):
        nonlocal runs
        if event == "line" and frame.f_lineno == line:
            runs += 1
        return count_line

    def trace_build(frame, event, arg):
        return count_line if frame.f_code is build.__code__ else None

    climbs = {}
    climb = klpoly._climb

    def recorded(rows, gens, ident):
        assert rows is g._lmul  # right climbs are left ones conjugated by inversion
        climbs[gens] = c = climb(rows, gens, ident)
        return c

    monkeypatch.setattr(klpoly, "_climb", recorded)
    outer = sys.gettrace()
    sys.settrace(trace_build)
    try:
        t = kl_table(g)
    finally:
        sys.settrace(outer)
    down = down_masks(g)
    left, right = _descent_masks(g._lmul), _descent_masks(g._rmul)
    ws = range(1, g.order)
    # one left climb per left descent set of some w > e, and each key's
    # right climb equal to the one walked directly on the right
    assert set(climbs) == {left[wi] for wi in ws}
    ident = list(range(g.order))
    direct = {J: climb(g._rmul, J, ident) for J in set(right)}
    assert all(t._keys[wi] == (climbs[left[wi]], direct[right[wi]]) for wi in ws)
    symmetries = g._symmetries()
    reps = {wi for wi in ws if all(phi[wi] >= wi for phi in symmetries)}
    extremal = single = in_reps = 0
    for wi in ws:
        cl, cr = t._keys[wi]
        ys = list(iter_indices(down[wi]))
        ext = {yi for yi in ys if cl[cr[yi]] == yi}
        assert ext == {yi for yi in ys if left[wi] & ~left[yi] == 0 and right[wi] & ~right[yi] == 0}
        extremal += len(ext)
        in_reps += len(ext) if wi in reps else 0
        s = g._words[wi][0] - 1
        single += sum(left[yi] >> s & 1 for yi in ys)
    assert extremal == 23_919
    assert single == 198_404
    assert len(reps) == 344
    assert runs == in_reps == 7_477


@pytest.mark.parametrize("fam,rank,budget", [
    ("G", 2, None), ("A", 4, None), ("B", 4, None), ("D", 4, None), ("F", 4, None),
    ("A", 5, None), ("D", 5, 1920)])
def test_extremal_masks_are_the_descent_rule(fam, rank, budget):
    # the extremal y <= w, read off the climbs' fixed points as
    # down[w] & lf & rf, are the y <= w with every s in D_L(w) as a left and
    # every t in D_R(w) as a right descent, here ANDed descent by descent
    g = get_group(fam, rank, budget)
    _, fixed = klpoly._climb_keys(g)
    lmul, rmul = g._lmul, g._rmul
    n = g.order
    gens = range(g.rank)
    # masks of the y with s y < y (y s < y)
    left_desc = [index_mask(y for y in range(n) if row[y] < y) for row in lmul]
    right_desc = [index_mask(y for y in range(n) if row[y] < y) for row in rmul]
    for wi, (down, (lf, rf)) in enumerate(zip(down_masks(g), fixed)):
        ext = down
        for t in gens:
            if lmul[t][wi] < wi:
                ext &= left_desc[t]
            if rmul[t][wi] < wi:
                ext &= right_desc[t]
        assert down & lf & rf == ext, wi


class _LeftOnly(WeylGroup):
    """A group whose right multiplication table cannot be read."""

    @property
    def _rmul(self):
        raise AssertionError("read g._rmul")

    @_rmul.setter
    def _rmul(self, rows):
        pass


@pytest.mark.parametrize("fam,rank", [("B", 4), ("F", 4)])
def test_kl_layer_reads_no_right_multiplication(tmp_path, fam, rank):
    # the climbs and their fixed points come from left multiplication and
    # inversion alone, so a build and a load need no right multiplication
    t = get_table(fam, rank)
    path = tmp_path / "t.klv"
    save_table(t, path)
    for make in (kl_table, lambda g: load_table(g, path)):
        g = _LeftOnly(CartanType(fam, rank))
        with pytest.raises(AssertionError, match="read g._rmul"):
            g._rmul
        t2 = make(g)
        assert (t2._cols, t2._keys, t2._pool, t2._cmax, len(t2)) == (
            t._cols, t._keys, t._pool, t._cmax, len(t))


@pytest.mark.parametrize("fam,rank", [("B", 4), ("F", 4)])
def test_read_key_is_the_double_coset_maximum(fam, rank):
    # column w is read at cl[cr[y]], which must be the maximum of
    # W_I y W_J for I = D_L(w) and J = D_R(w); a built column stores only
    # such maxima
    g = get_group(fam, rank)
    t = get_table(fam, rank)
    lengths = g._lengths
    tops = {}
    for wi, down in enumerate(down_masks(g)):
        left, right = (sum(1 << s for s in range(rank) if lengths[row[s][wi]] < lengths[wi])
                       for row in (g._lmul, g._rmul))
        if (left, right) not in tops:
            tops[left, right] = double_coset_maxima(g, left, right)
        top = tops[left, right]
        cl, cr = t._keys[wi]
        ys = list(iter_indices(down))
        assert [cl[cr[yi]] for yi in ys] == [top[yi] for yi in ys]
        assert all(cl[cr[yi]] == yi for yi in t._cols[wi])


def test_climb_going_down_is_rejected(monkeypatch):
    # the degree bound is checked at cl[cr[y]] only, so it covers y only
    # while a climb never lowers the length
    climb = klpoly._climb

    def lowered(rows, gens, ident):
        c = climb(rows, gens, ident)
        c[-1] = 0
        return c

    monkeypatch.setattr(klpoly, "_climb", lowered)
    with pytest.raises(AssertionError, match="a climb went down in length"):
        kl_table(get_group("A", 3))


@pytest.mark.parametrize("fam,rank", [("G", 2), ("A", 4), ("B", 4), ("D", 4), ("F", 4)])
def test_no_one_below_a_stored_entry(fam, rank):
    # P_{y,w} - P_{z,w} has nonnegative coefficients for y <= z <= w (Braden
    # and MacPherson, Math. Ann. 321, 2001), so every y below a stored entry,
    # one other than 1, reads a polynomial other than 1 too
    t = get_table(fam, rank)
    down = t._down
    below = 0
    for wi, col in enumerate(t._cols):
        mask = 0
        for m in col:
            mask |= down[m]
        ys = list(iter_indices(mask))
        assert all(t.polynomial_by_index(yi, wi) != (1,) for yi in ys), wi
        below += len(ys)
    # and every polynomial other than 1 lies below a stored entry
    assert below == len(decoded_polys(t))


def test_pack_round_trip():
    for coeffs in [(), (1,), (1, 1), (1, 0, 3), (-5, 2), (1, -(2**31)), (2**31 - 1, 7)]:
        assert klpoly._unpack(klpoly._pack(coeffs)) == coeffs


def test_build_width_guard(monkeypatch):
    # B4 has the coefficient 5, outside the 3-bit balanced digits [-4, 4)
    assert get_table("B", 4)._cmax == 5
    expect = decoded_polys(get_table("B", 4))
    monkeypatch.setattr(klpoly, "_WIDTH", 3)
    with pytest.raises(AssertionError, match="do not fit in 3-bit digits"):
        kl_table(get_group("B", 4))
    # at 11 bits every column fits, but a signed sum of one entry per element
    # could reach 5 * 384 = 1920, outside [-1024, 1024)
    monkeypatch.setattr(klpoly, "_WIDTH", 11)
    with pytest.raises(AssertionError, match="up to 1920 .* do not fit in 11-bit"):
        kl_table(get_group("B", 4))
    # at 12 bits both guards hold and the unpacked table is the same
    monkeypatch.setattr(klpoly, "_WIDTH", 12)
    assert decoded_polys(kl_table(get_group("B", 4))) == expect


def test_sum_width_guard_on_loaded_table(tmp_path, monkeypatch):
    g = get_group("F", 4)
    path = tmp_path / "f4.klv"
    save_table(get_table("F", 4), path)
    expect = {S: nonkostant_block(g, S, get_table("F", 4)) for S in [frozenset({1, 2, 3}), frozenset({2, 4})]}
    # a signed sum over F4 could reach 12 * 1152 = 13824, outside the 14-bit
    # digits [-8192, 8192), so the table is refused before anything is summed
    monkeypatch.setattr(klpoly, "_WIDTH", 14)
    with pytest.raises(InputError, match="coefficient out of range"):
        load_table(g, path)
    # at 15 bits it loads and the block scans read the same
    monkeypatch.setattr(klpoly, "_WIDTH", 15)
    t = load_table(g, path)
    assert t._cmax == 12
    assert {S: nonkostant_block(g, S, t) for S in expect} == expect


def test_dynkin_symmetry():
    # Conjugation by w0 keeps every P_{y,w}; the exactness scan rests on it
    # where w0 is not central (A_n, odd D_n), reading sigma(S)'s sums on S.
    # Conjugation by w0 is a graph automorphism, so where it moves w the
    # build copied one of the two columns from the other: those pairs only
    # re-read the copy rule, which test_oracle_keeps_the_symmetries and
    # test_packed_table_equals_tuple_recursion check against the oracle.
    # Each entry: comparable pairs, and elements that conjugation moves.
    for fam, rank, budget, counts in [
        ("A", 3, None, (213, 16)), ("B", 3, None, (847, 0)), ("A", 4, None, (3781, 112)),
        ("A", 5, None, (98_407, 672)), ("D", 5, 1920, (745_377, 1536)),
    ]:
        assert properties.check_dynkin_symmetry(
            get_group(fam, rank, budget), get_table(fam, rank, budget)) == counts, (fam, rank)


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
    assert decoded_polys(t2) == decoded_polys(t)
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


def test_f4_cache_round_trip(tmp_path):
    g = get_group("F", 4)
    t = get_table("F", 4)
    path = tmp_path / "f4.klv"
    save_table(t, path)
    assert decoded_polys(load_table(g, path)) == decoded_polys(t)


@pytest.mark.parametrize("fam,rank,stored", [
    ("G", 2, 0), ("A", 4, 46), ("B", 4, 1060), ("D", 4, 182), ("F", 4, 15622)])
def test_loaded_table_is_the_built_table(tmp_path, fam, rank, stored):
    # the cache holds the columns as built and the loader rebuilds the keys,
    # so a loaded table is the built one, entry for entry and key for key
    g, t = get_group(fam, rank), get_table(fam, rank)
    path = tmp_path / "t.klv"
    save_table(t, path)
    t2 = load_table(g, path)
    assert len(t2) == len(t) == stored
    assert t2._cols == t._cols
    assert t2._keys == t._keys
    assert (t2._pool, t2._cmax) == (t._pool, t._cmax)


@pytest.mark.parametrize("fam,rank", [("B", 4), ("F", 4), ("D", 4)])
def test_loaded_table_saves_identical_bytes(tmp_path, fam, rank):
    g = get_group(fam, rank)
    t = get_table(fam, rank)
    path, again = tmp_path / "t.klv", tmp_path / "again.klv"
    save_table(t, path)
    t2 = load_table(g, path)
    assert len(t2) == len(t)
    assert (decoded_polys(t2), t2._pool, t2._cmax) == (decoded_polys(t), t._pool, t._cmax)
    pairs = [(y, w) for w, m in enumerate(down_masks(g)) for y in iter_indices(m)]
    assert [t.polynomial_by_index(y, w) for y, w in pairs] == [
        t2.polynomial_by_index(y, w) for y, w in pairs]
    save_table(t2, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("fam,rank,digest", [
    ("B", 4, "368a547288dc9121d5801c7a2d73bba67106a256330aabcb2633c8a649b2b0e7"),
    ("F", 4, "12d145c6bc435f075093f9dcc518c08c10f8494cedeee203c7a78656b2d1cda7"),
])
def test_order_digest_pinned(fam, rank, digest):
    # Caches written by earlier versions load only while these stay equal.
    assert klpoly._order_digest(get_group(fam, rank)).hex() == digest


@pytest.mark.parametrize("fam,rank,digest", [
    ("B", 4, "70338897da1e74824574aa37ba3fe0ecbf6fc1415686f23483fde1557c326c0c"),
    ("F", 4, "b266532c726339bf7ae2f3b4086b9aebc2247e7498bf2f8d9c1b14a4c728604a"),
])
def test_saved_cache_bytes_pinned(tmp_path, fam, rank, digest):
    # the bytes of the KLV4 writer: a change of layout, pool order or
    # column encoding shows here
    path = tmp_path / "t.klv"
    save_table(get_table(fam, rank), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_cache_from_klv2_writer_rejected(tmp_path):
    # b4_klv2.klv.gz is a B4 cache written by the KLV2 writer, which stored
    # y and w arrays; that format is refused, not read as KLV4
    path = tmp_path / "b4.klv"
    path.write_bytes(gzip.decompress((DATA / "b4_klv2.klv.gz").read_bytes()))
    with pytest.raises(InputError, match=r"older format \(KLV2\); delete it"):
        load_table(get_group("B", 4), path)


def test_f4_inverse_symmetry():
    # w and w^-1 share an orbit, whose columns the build copies from its
    # smallest member, so this partly re-reads copied columns against their
    # source; the oracle tests check the values
    g = get_group("F", 4)
    t = get_table("F", 4)
    inv = g._inv
    bad = [(y, w) for w, m in enumerate(down_masks(g)) for y in iter_indices(m)
           if t.polynomial_by_index(y, w) != t.polynomial_by_index(inv[y], inv[w])]
    assert bad == []


def test_saved_cache_has_umask_mode(tmp_path):
    path = tmp_path / "b3.klv"
    save_table(get_table("B", 3), path)
    plain = tmp_path / "plain"
    with open(plain, "wb"):
        pass
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_old_format_cache_rejected(tmp_path):
    g = get_group("B", 3)
    path = tmp_path / "v1.klv"
    # a version-1 header: magic, family, rank, order, entry count
    path.write_bytes(b"KLV1B" + struct.pack("<BII", 3, g.order, 0))
    with pytest.raises(InputError, match="older format.*delete it"):
        load_table(g, path)
    # a KLV3 file, which kept full columns as bitmasks, with the header of
    # the current format
    save_table(get_table("B", 3), path)
    path.write_bytes(b"KLV3" + path.read_bytes()[4:])
    with pytest.raises(InputError, match=r"older format \(KLV3\); delete it"):
        load_table(g, path)


def test_wrong_element_order_rejected(tmp_path):
    g = get_group("B", 3)
    path = tmp_path / "b3.klv"
    save_table(get_table("B", 3), path)
    data = bytearray(path.read_bytes())
    # the order rows of the same group in reversed element indexing; the
    # checksum covers only the payload, so it stays valid
    nbytes = (g.order + 7) // 8
    rows = [int(f"{m:0{g.order}b}"[::-1], 2) for m in reversed(down_masks(g))]
    data[_PAYLOAD - 36:_PAYLOAD - 4] = hashlib.sha256(
        b"".join(m.to_bytes(nbytes, "little") for m in rows)).digest()
    crc, = struct.unpack_from("<I", data, _PAYLOAD - 4)
    assert crc == zlib.crc32(bytes(data[_PAYLOAD:]))
    path.write_bytes(bytes(data))
    with pytest.raises(InputError, match="does not match the group"):
        load_table(g, path)


def test_corrupt_entry_rejected_by_checksum(tmp_path):
    g = get_group("B", 3)
    path = tmp_path / "b3.klv"
    save_table(get_table("B", 3), path)
    data = bytearray(path.read_bytes())
    data[-1] ^= 1  # the pool index of the last entry
    path.write_bytes(bytes(data))
    with pytest.raises(InputError, match="checksum"):
        load_table(g, path)


@pytest.fixture(scope="module")
def b3_cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("b3") / "b3.klv"
    save_table(get_table("B", 3), path)
    return path


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_damaged_cache_loads_equal_or_is_rejected(b3_cache, data):
    g = get_group("B", 3)
    raw = b3_cache.read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        # half the offsets fall in the header and the first pool entries
        offset = st.one_of(st.integers(0, 63), st.integers(0, len(raw) - 1))
        writes = data.draw(st.lists(st.tuples(offset, st.integers(0, 255)),
                                    min_size=1, max_size=8), label="writes")
        damaged = bytearray(raw)
        for off, byte in writes:
            damaged[off] = byte
    path = b3_cache.with_name("damaged.klv")
    path.write_bytes(bytes(damaged))
    try:
        t = load_table(g, path)
    except InputError:
        return
    assert decoded_polys(t) == decoded_polys(get_table("B", 3))


def _resealed(data):
    """data with its payload checksum recomputed."""
    data = bytearray(data)
    data[_PAYLOAD - 4:_PAYLOAD] = struct.pack("<I", zlib.crc32(bytes(data[_PAYLOAD:])))
    return bytes(data)


def _split(data):
    """(pool, offset of the column counts) of a cache file."""
    n_polys = struct.unpack_from("<I", data, _PAYLOAD)[0]
    off = _PAYLOAD + 8
    pool = []
    for _ in range(n_polys):
        deg = data[off]
        pool.append(struct.unpack_from(f"<{deg + 1}i", data, off + 1))
        off += 5 + 4 * deg
    return pool, off


def _with_pool(data, edit):
    """data with its pool of coefficient tuples replaced by edit(pool)."""
    n_entries = struct.unpack_from("<I", data, _PAYLOAD + 4)[0]
    pool, off = _split(data)
    pool = edit(pool)
    out = bytearray(data[:_PAYLOAD]) + struct.pack("<II", len(pool), n_entries)
    for p in pool:
        out += struct.pack(f"<B{len(p)}i", len(p) - 1, *p)
    return bytes(out) + data[off:]


def _with_columns(data, edit):
    """data with its column counts, stored ys and pool indices (lists of
    ints, the last two in (w, y) order) replaced by edit(counts, ys, ks);
    n_entries becomes the new len(ys)."""
    n = klpoly._HEADER.unpack_from(data)[3]
    _, off = _split(data)
    m = (len(data) - off - 4 * n) // 8
    words = list(struct.unpack_from(f"<{n + 2 * m}I", data, off))
    counts, ys, ks = edit(words[:n], words[n:n + m], words[n + m:])
    return (data[:_PAYLOAD + 4] + struct.pack("<I", len(ys)) + data[_PAYLOAD + 8:off]
            + struct.pack(f"<{len(counts) + len(ys) + len(ks)}I", *counts, *ys, *ks))


def _with_entry(wi, yi):
    """An edit that stores one more entry, (yi, wi), with column wi's ys
    kept in increasing order and pool index 0."""
    def edit(counts, ys, ks):
        start = sum(counts[:wi])
        at = start + sum(y < yi for y in ys[start:start + counts[wi]])
        counts = counts[:wi] + [counts[wi] + 1] + counts[wi + 1:]
        return counts, ys[:at] + [yi] + ys[at:], ks[:at] + [0] + ks[at:]
    return edit


def _count_dropped(counts, ys, ks):
    """The first nonzero count lowered by one, ys and ks kept: the counts
    add up to one entry fewer than the file stores."""
    wi = next(i for i, c in enumerate(counts) if c)
    return counts[:wi] + [counts[wi] - 1] + counts[wi + 1:], ys, ks


def _first_pair_swapped(counts, ys, ks):
    """The first two ys of the first column with two entries swapped."""
    wi = next(i for i, c in enumerate(counts) if c >= 2)
    at = sum(counts[:wi])
    ys = ys[:at] + [ys[at + 1], ys[at]] + ys[at + 2:]
    return counts, ys, ks


def test_inconsistent_payload_rejected(tmp_path):
    path = tmp_path / "t.klv"
    t = get_table("B", 3)
    save_table(t, path)
    data = path.read_bytes()
    b3, wn = get_group("B", 3), get_group("B", 3).order - 1
    n_polys = struct.unpack_from("<I", data, _PAYLOAD)[0]
    s1, s2 = b3.generator(1).index, b3.generator(2).index
    down = down_masks(b3)
    # a y below the longest element, not below the column w of index above it
    wi = min(wi for wi in range(wn) if any(down[wi] >> y & 1 == 0 for y in range(wi)))
    lo = next(y for y in range(wi) if not down[wi] >> y & 1)
    # a y below a column's w that is not the maximum of its double coset
    cl, cr = t._keys[wn]
    inner = next(y for y in range(wn) if cl[cr[y]] != y)
    cases = [
        (data[:-4] + struct.pack("<I", n_polys), "pool index"),
        (data + b"\0", "payload length"),
        (data[:-1], "payload length"),
        # w itself stored in column w (the longest element's column)
        (_with_columns(data, _with_entry(wn, wn)), "stored y not below its w"),
        # s2 is not below s1
        (_with_columns(data, _with_entry(s1, s2)), "stored y not below its w"),
        # a y of smaller index than w that is not below it
        (_with_columns(data, _with_entry(wi, lo)), "stored y not below its w"),
        # a y that is not an element index at all
        (_with_columns(data, _with_entry(wn, b3.order)), "stored y not below its w"),
        (_with_columns(data, _with_entry(wn, inner)), "not a double-coset maximum"),
        (_with_columns(data, _first_pair_swapped), "not in increasing order"),
        (_with_columns(data, _count_dropped), "counts do not match the entry count"),
    ]
    # pools the writer never makes: the first three would pack equal to
    # another polynomial or to 1, the last would not fit a sum's digits
    for edit, msg in [
        (lambda p: [p[0] + (0,)] + p[1:], "pool polynomial not canonical"),
        (lambda p: [(2,) + p[0][1:]] + p[1:], "pool polynomial not canonical"),
        (lambda p: [(1,)] + p[1:], "pool polynomial not canonical"),
        (lambda p: [p[0], p[0]] + p[2:], "pool polynomial repeated"),
        (lambda p: [p[0][:-1] + (2**30,)] + p[1:], "coefficient out of range"),
    ]:
        cases.append((_with_pool(data, edit), msg))
    for bad, msg in cases:
        path.write_bytes(_resealed(bad))
        with pytest.raises(InputError, match=msg):
            load_table(b3, path)
    # the parser the edits go through writes an unedited file back as it was
    assert _with_columns(data, lambda *cols: cols) == data


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_resealed_damage_raises_only_input_error(b3_cache, data):
    """Damage behind a valid checksum reaches the structural checks, which
    must reject it as InputError or decode it; nothing else may escape."""
    raw = b3_cache.read_bytes()
    damaged = bytearray(raw)
    if data.draw(st.booleans(), label="truncate"):
        del damaged[data.draw(st.integers(_PAYLOAD, len(raw) - 1), label="length"):]
    if len(damaged) > _PAYLOAD:
        offset = st.integers(_PAYLOAD, len(damaged) - 1)
        for off, byte in data.draw(st.lists(st.tuples(offset, st.integers(0, 255)),
                                            max_size=8), label="writes"):
            damaged[off] = byte
    path = b3_cache.with_name("resealed.klv")
    path.write_bytes(_resealed(damaged))
    try:
        load_table(get_group("B", 3), path)
    except InputError:
        pass


class _FailingWrite:
    """A file whose write stores half of its bytes, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, b):
        self.fh.write(b[:len(b) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("existing", [False, True])
def test_failed_save_leaves_no_partial_file(tmp_path, monkeypatch, existing):
    path = tmp_path / "b3.klv"
    if existing:
        save_table(get_table("B", 3), path)
    before = path.read_bytes() if existing else None
    fdopen = klpoly.os.fdopen
    monkeypatch.setattr(klpoly.os, "fdopen",
                        lambda fd, mode: _FailingWrite(fdopen(fd, mode)))
    with pytest.raises(OSError):
        save_table(get_table("A", 3), path)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == (["b3.klv"] if existing else [])
    if existing:
        assert path.read_bytes() == before
