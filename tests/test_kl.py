"""Kazhdan-Lusztig tables, singular variants and the binary cache."""

import errno
import gzip
import hashlib
import pathlib
import random
import stat
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import properties
from helpers import decoded_polys, get_group, get_table, tuple_kl_polys
from singbgg import (
    IntPolynomial,
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
from singbgg.bruhat import down_masks, iter_indices
from singbgg.errors import DomainError, InputError

ONE = IntPolynomial((1,))

DATA = pathlib.Path(__file__).parent / "data"


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


@pytest.mark.parametrize("fam,rank", [("G", 2), ("A", 4), ("B", 4), ("D", 4), ("F", 4)])
def test_packed_table_equals_tuple_recursion(fam, rank):
    t = get_table(fam, rank)
    expect = tuple_kl_polys(get_group(fam, rank))
    assert decoded_polys(t) == expect
    assert t._pool == {p: klpoly._unpack(p) for p in t._pool}
    assert len(t._pool) == len(set(expect.values()))
    assert t._cmax == max((abs(c) for p in expect.values() for c in p), default=1)


def test_distinct_counts():
    t = get_table("F", 4)
    assert (len(t), len(t._pool), t._cmax) == (231036, 312, 12)


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


def test_loaded_table_decodes_columns_on_first_read(tmp_path):
    g = get_group("F", 4)
    path = tmp_path / "f4.klv"
    save_table(get_table("F", 4), path)
    t = load_table(g, path)
    assert len(t._cols) == 0  # decoded columns so far
    assert len(t) == len(get_table("F", 4)) == 231036
    assert len(t._cols) == 0
    y, w = g.from_word([1]), g.from_word([2, 3, 2, 1, 2, 3, 2])
    assert t.polynomial(y, w) == get_table("F", 4).polynomial(y, w)
    assert list(t._cols) == [w.index]
    # a block scan reads the column w w0 of each longest representative w
    t = load_table(g, path)
    S = frozenset({2})
    assert nonkostant_block(g, S, t) == nonkostant_block(g, S, get_table("F", 4))
    rw0 = g.rmul_w0_indices()
    assert set(t._cols) == {rw0[w.index] for w in make_block(g, S).max_reps}
    assert len(t._cols) == 576


@pytest.mark.parametrize("fam,rank", [("B", 4), ("F", 4)])
def test_loaded_table_saves_identical_bytes(tmp_path, fam, rank):
    path, again = tmp_path / "t.klv", tmp_path / "again.klv"
    save_table(get_table(fam, rank), path)
    save_table(load_table(get_group(fam, rank), path), again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("fam,rank,digest", [
    ("B", 4, "368a547288dc9121d5801c7a2d73bba67106a256330aabcb2633c8a649b2b0e7"),
    ("F", 4, "12d145c6bc435f075093f9dcc518c08c10f8494cedeee203c7a78656b2d1cda7"),
])
def test_order_digest_pinned(fam, rank, digest):
    # Caches written by earlier versions load only while these stay equal.
    assert klpoly._order_digest(get_group(fam, rank)).hex() == digest


@pytest.mark.parametrize("fam,rank,digest", [
    ("B", 4, "b0c9675e33d0854abb1f0f8aff1e34e89aa340fbc0ce0986710498d2e62af95b"),
    ("F", 4, "d88c35363a23f313052d350e6e8c467202bf05b8c1b5d13a0db3aa8cb9889910"),
])
def test_saved_cache_bytes_pinned(tmp_path, fam, rank, digest):
    # the bytes the tuple-based KLV2 writer produced for the same tables
    path = tmp_path / "t.klv"
    save_table(get_table(fam, rank), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_cache_from_tuple_writer_loads(tmp_path):
    # b4_klv2.klv.gz is a B4 cache written by the tuple-based KLV2 writer
    path = tmp_path / "b4.klv"
    path.write_bytes(gzip.decompress((DATA / "b4_klv2.klv.gz").read_bytes()))
    t = load_table(get_group("B", 4), path)
    fresh = kl_table(get_group("B", 4))
    assert (decoded_polys(t), t._pool, t._cmax) == (decoded_polys(fresh), fresh._pool, fresh._cmax)


def test_f4_inverse_symmetry():
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


def test_wrong_element_order_rejected(tmp_path):
    g = get_group("B", 3)
    path = tmp_path / "b3.klv"
    save_table(get_table("B", 3), path)
    data = bytearray(path.read_bytes())
    # the order rows of the same group in reversed element indexing; the
    # checksum covers only the payload, so it stays valid
    nbytes = (g.order + 7) // 8
    rows = [int(f"{m:0{g.order}b}"[::-1], 2) for m in reversed(down_masks(g))]
    data[10:42] = hashlib.sha256(
        b"".join(m.to_bytes(nbytes, "little") for m in rows)).digest()
    crc, = struct.unpack_from("<I", data, 42)
    assert crc == zlib.crc32(bytes(data[46:]))
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
    data[42:46] = struct.pack("<I", zlib.crc32(bytes(data[46:])))
    return bytes(data)


def _with_pool(data, edit):
    """data with its pool of coefficient tuples replaced by edit(pool)."""
    n_polys, n_entries = struct.unpack_from("<II", data, 46)
    off = 54
    pool = []
    for _ in range(n_polys):
        deg = data[off]
        pool.append(struct.unpack_from(f"<{deg + 1}i", data, off + 1))
        off += 5 + 4 * deg
    pool = edit(pool)
    out = bytearray(data[:46]) + struct.pack("<II", len(pool), n_entries)
    for p in pool:
        out += struct.pack(f"<B{len(p)}i", len(p) - 1, *p)
    return bytes(out) + data[off:]


def _with_entries(data, edit):
    """data with its y, w and pool-index arrays replaced by edit(ys, ws, ks)."""
    n_entries = struct.unpack_from("<I", data, 50)[0]
    off = len(data) - 12 * n_entries
    arrays = [list(struct.unpack_from(f"<{n_entries}I", data, off + 4 * n_entries * j))
              for j in range(3)]
    return data[:off] + b"".join(struct.pack(f"<{n_entries}I", *a) for a in edit(*arrays))


def _descent(ys, ws, ks):
    """ws lowered by one in the middle of a run, below its predecessor."""
    i = len(ws) // 2
    while ws[i - 1] != ws[i]:
        i += 1
    return ys, ws[:i] + [ws[i] - 1] + ws[i + 1:], ks


def _runs_swapped(ys, ws, ks):
    """Two neighbouring middle columns' entries swapped as whole runs: each
    entry stays valid, but the w array is out of order."""
    a = len(ws) // 2
    while ws[a - 1] == ws[a]:
        a -= 1
    b = a
    while ws[b] == ws[a]:
        b += 1
    c = b
    while ws[c] == ws[b]:
        c += 1
    return [x[:a] + x[b:c] + x[a:b] + x[c:] for x in (ys, ws, ks)]


def _y_repeated(ys, ws, ks):
    """The second y of a middle column set equal to the first: the column
    would decode one entry fewer than the file counts."""
    i = len(ws) // 2
    while ws[i + 1] != ws[i]:
        i += 1
    return ys[:i + 1] + [ys[i]] + ys[i + 2:], ws, ks


def _y_descending(ys, ws, ks):
    """Two neighbouring ys of a middle column swapped: each entry stays
    valid, but the column's ys decrease once."""
    i = len(ws) // 2
    while ws[i + 1] != ws[i]:
        i += 1
    return ys[:i] + [ys[i + 1], ys[i]] + ys[i + 2:], ws, ks


def test_inconsistent_payload_rejected(tmp_path):
    g = get_group("B", 3)
    path = tmp_path / "b3.klv"
    save_table(get_table("B", 3), path)
    data = path.read_bytes()
    n_polys, n_entries = struct.unpack_from("<II", data, 46)
    bad_index = data[:-4] + struct.pack("<I", n_polys)
    ys = len(data) - 12 * n_entries  # offsets of the y and w arrays
    ws = ys + 4 * n_entries
    bad_y = data[:ys] + struct.pack("<I", g.order) + data[ys + 4:]
    bad_w = data[:ws] + struct.pack("<I", g.order - 1) + data[ws + 4:]  # unsorted
    last_w_n = _with_entries(data, lambda y, w, k: (y, w[:-1] + [g.order], k))
    cases = [(bad_index, "pool index"), (data + b"\0", "entry arrays"),
             (data[:-1], "entry arrays"), (bad_y, "out of order or range"),
             (bad_w, "out of order or range"), (last_w_n, "out of order or range"),
             (_with_entries(data, _descent), "out of order or range"),
             (_with_entries(data, _runs_swapped), "out of order or range"),
             (_with_entries(data, _y_repeated), "out of order or range"),
             (_with_entries(data, _y_descending), "out of order or range")]
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
            load_table(g, path)


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_resealed_damage_raises_only_input_error(b3_cache, data):
    """Damage behind a valid checksum reaches the structural checks, which
    must reject it as InputError or decode it; nothing else may escape."""
    raw = b3_cache.read_bytes()
    damaged = bytearray(raw)
    if data.draw(st.booleans(), label="truncate"):
        del damaged[data.draw(st.integers(46, len(raw) - 1), label="length"):]
    if len(damaged) > 46:
        offset = st.integers(46, len(damaged) - 1)
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
