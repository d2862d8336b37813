"""The Kazhdan-Lusztig table: its build, its reads and its binary cache.

The full table is computed bottom-up in length order with the standard
recursion, run only on extremal pairs (du Cloux, "Computing Kazhdan-Lusztig
polynomials for arbitrary Coxeter groups", Experiment. Math. 11, 2002).  Let
I = D_L(w) and J = D_R(w).  P_{y,w} = P_{sy,w} for s in I and
P_{y,w} = P_{yt,w} for t in J, so P_{y,w} only depends on the double coset
W_I y W_J and equals P_{m,w} for its maximum m.  m is reached in two climbs:
first to the longest element of y W_J, then to the longest element of W_I
times that.  Let x have every t in J as a right descent and s x > x.
Deodhar's lemma says that s x has them too or s x = x t for some t in J; the
second is ruled out by x t < x < s x.  So the left climb keeps the right
descents and ends at an element maximal on both sides, which is m.  Every
step of a climb stays below w by the lifting property, as w is maximal in
its own double coset.

Column w's climbs (cl, cr) = _keys[w] are the climb lists for I and J,
shared by every w with the same descent set on that side; a right climb is
a left one conjugated by inversion.  (y, w) is an extremal pair when y <= w
is a fixed point of both, cl[y] = y = cr[y]: then y has every s in I as a
left and every t in J as a right descent, and is the maximum of its double
coset.  `_climb_keys` returns the masks of those fixed points with the
climbs, so the build and the loader read the extremal y <= w from one rule,
down[w] & lf & rf.  F4 has 23,920 extremal pairs among its 396,809
comparable pairs.  A column's recursion runs on them alone, and every read
of it goes through one rule: P_{y,w} is the entry at cl[cr[y]].  Each left
climb is checked once, when it is built, never to lower the length
(inversion keeps it), so the degree bound checked at m holds at every y
that reads m.  w's row of nonzero mu(z, w), read by the recursion of later
columns, starts as its lower covers (P = 1, mu = 1); the recursion adds the
stored entries of top degree.  A non-extremal y has none, as l(m) > l(y).

The recursion runs on column w only when w is the smallest index in its
orbit under the group generated by inversion and the automorphisms of the
Coxeter graph (`WeylGroup._symmetries`).  Each of them keeps every
polynomial: P_{y,w} = P_{y^-1,w^-1}, and an automorphism of (W, S) keeps
P_{y,w} (Kazhdan and Lusztig, "Representations of Coxeter groups and Hecke
algebras", Invent. Math. 53, 1979).  Once column r is built, each other
member w = phi(r) of its orbit gets r's column read through phi,
{phi(y): P_{y,r}} in increasing phi(y), and r's mu row as (phi(z), mu).
The copy keeps what the build and the reads rely on: a column stores its
extremal ys only, and a mu row holds every nonzero mu(z, w).  phi keeps
lengths and the Bruhat order, and takes the pair (D_L(r), D_R(r)) to
(D_L(w), D_R(w)): an automorphism moves each set by its permutation, and
inversion swaps the two.  So phi maps the double-coset maxima below r onto
those below w.  The constant-term and degree checks run on every recursed
entry, and the width guard on every recursed column; a copied entry has
its source's value and length gap.  F4 recurses on 7,477 of its 23,919
extremal pairs with w > e, in 344 of its 1,151 columns w > e.

Inside the table every polynomial is one Python int, its value at
q = 2**_WIDTH (Kronecker substitution).  This is an exact ring map from Z[q]
to Z, so the recursion and the signed sums run on plain integers: sums stay
sums, multiplying by q**k is multiplying by 1 << (_WIDTH * k).  Reading a
polynomial back takes the balanced base-2**_WIDTH digits, which is exact
while every coefficient lies in [-2**(_WIDTH - 1), 2**(_WIDTH - 1)).  Two
guards raise AssertionError before a value could leave that range: the
build checks each column's recursion sum, and every table checks once that
a signed sum of distinct entries, at most one per element of W, still fits.

Storage is sparse: column w keeps only the double-coset maxima m with
P_{m,w} other than 0 and 1 (F4: 15,622 entries, for 231,036 such y), and
the 0/1 distinction is read off the Bruhat-order bitmasks.  Stored values
are interned, so equal polynomials share one int and the table keeps a pool
of the distinct ones with their coefficient tuples.  Tuples and
IntPolynomial are built only when a polynomial leaves the module.

The binary cache stores the columns as they are: each column's stored ys
and their indices into the pool.  load_table validates the whole file,
every stored y against the Bruhat order and the fixed-point masks included,
decodes every column and rebuilds the climb lists, so a loaded table is the
table a build gives.

`_coset_sum` is the signed sum of P_{y,z} over a column, read by the rule
above; `_correction_sum` sums P_{y,z} - 1 instead, which only the stored
entries add to.  `complexes` sums a block's cosets with them.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib
from itertools import accumulate, compress
from operator import eq, ge, lt

from .bruhat import cover_graph, down_masks, index_mask, iter_indices
from .errors import InputError
from .weyl import Element, WeylGroup, check_same_group

Coeffs = tuple[int, ...]

_ONE: Coeffs = (1,)

# Bits per coefficient in the packed form; coefficients must stay below
# 2**(_WIDTH - 1) in absolute value.
_WIDTH = 32


def _pack(coeffs: Coeffs) -> int:
    """The value of the polynomial at q = 2**_WIDTH."""
    v = 0
    for c in reversed(coeffs):
        v = (v << _WIDTH) + c
    return v


def _unpack(v: int) -> Coeffs:
    """Coefficients of a packed polynomial (balanced digits), trimmed."""
    width = _WIDTH
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    out = []
    while v:
        c = v & mask
        if c >= half:
            c -= mask + 1
        out.append(c)
        v = (v - c) >> width
    return tuple(out)


def _check_width(bound: int) -> None:
    """Raise unless coefficients bounded by bound read back exactly."""
    if bound >= 1 << (_WIDTH - 1):
        raise AssertionError(
            f"coefficients up to {bound} in absolute value do not fit "
            f"in {_WIDTH}-bit digits"
        )


class IntPolynomial(tuple):
    """Integer polynomial in q, dense coefficient tuple, no trailing zeros."""

    def __new__(cls, coeffs=()):
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        return super().__new__(cls, coeffs)

    @property
    def degree(self) -> int:
        """Degree in q; -1 for the zero polynomial."""
        return len(self) - 1

    def __str__(self) -> str:
        if not self:
            return "0"
        terms = []
        for k, c in enumerate(self):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                q = "q" if k == 1 else f"q^{k}"
                if c == 1:
                    terms.append(q)
                elif c == -1:
                    terms.append(f"-{q}")
                else:
                    terms.append(f"{c}{q}")
        return "+".join(terms).replace("+-", "-")

    def __repr__(self) -> str:
        return f"IntPolynomial({str(self)})"


def _climb(rows: list[list[int]], gens: int, ident: list[int]) -> list[int]:
    """climb[y] is the longest element of W_gens y, the coset of y under the
    generators s with bit s of gens set: rows[s][y] is s y.  The package
    passes only g._lmul; `_climb_keys` conjugates a left climb by inversion
    for the right one.  ident is list(range(|W|)); the climb shares its ints,
    so it costs one pointer per element.

    Indices grow with length, so one pass from the top index down reaches
    each coset's maximum before the rest of the coset: if some s in gens
    takes y up, y and s y share the coset and so its maximum.
    """
    up = [row for s, row in enumerate(rows) if gens >> s & 1]
    climb = ident.copy()
    for yi in reversed(ident):
        for row in up:
            zi = row[yi]
            if zi > yi:
                climb[yi] = climb[zi]
                break
    return climb


def _climb_keys(g: WeylGroup) -> tuple[list[tuple[list[int], list[int]]],
                                       list[int], list[int]]:
    """(keys, lf, rf) with keys[w] = (cl, cr), the climbs of y to the longest
    element of W_I y and of y W_J for I = D_L(w) and J = D_R(w), and lf[w]
    and rf[w] the masks of the y that cl and cr fix: the y with every s in I
    as a left, and every t in J as a right, descent.  A climb list and its
    mask are built once per descent set and side, and shared by every w with
    that set there; e's key is the identity twice.

    Only the left climbs are walked.  y W_J is the inverse of W_J y^-1, so
    the right climb for J is cr[y] = inv[cl[inv[y]]] with cl the left one
    for J, and D_R(w) is D_L(w^-1); cr fixes y iff cl fixes inv[y]."""
    ident, inv = list(range(g.order)), g._inv
    # desc[w] has bit s set iff s is a left descent of w
    desc = [0] * g.order
    for s, row in enumerate(g._lmul):
        for wi in compress(ident, map(lt, row, ident)):
            desc[wi] |= 1 << s
    every = (1 << g.order) - 1
    climbs = {0: (ident, ident, every, every)}
    for mask in sorted(set(desc) - {0}):
        c = _climb(g._lmul, mask, ident)
        # indices grow with length, so the degree bound checked at c[y]
        # holds at every y reading it; inversion keeps lengths, so the
        # right climb climbs too
        if any(map(lt, c, ident)):
            raise AssertionError("a climb went down in length")
        fix = [*compress(ident, map(eq, c, ident))]
        climbs[mask] = (c, [*map(inv.__getitem__, map(c.__getitem__, inv))],
                        index_mask(fix), index_mask(map(inv.__getitem__, fix)))
    left = [*map(climbs.__getitem__, desc)]
    right = [*map(left.__getitem__, inv)]
    return ([(lc[0], rc[1]) for lc, rc in zip(left, right)],
            [lc[2] for lc in left], [rc[3] for rc in right])


class KLTable:
    """Complete Kazhdan-Lusztig table for a fully enumerated group.

    Entries are read by element index pairs (y, w); pairs with y not below w
    read as 0, a comparable pair as _cols[w].get(cl[cr[y]], 1) with
    (cl, cr) = _keys[w] from _climb_keys.  _cols[w] maps each stored y, a
    double-coset maximum, to P_{y,w} packed at q = 2**_WIDTH, in increasing
    y; len() counts the stored entries.  _lf[w] masks the y that cl fixes,
    the y with D_L(w) in D_L(y), one int shared per descent set; the
    exactness scan reads it.  _pool maps each distinct stored value to its
    coefficient tuple, and _cmax is the largest coefficient in absolute
    value (at least 1).  A signed sum reads at most one entry per
    element of W, so _cmax * |W| bounds its coefficients; the table checks
    that bound once, and the sums do not check it again.
    """

    def __init__(self, group: WeylGroup, _entries: tuple | None = None):
        group.require_enumerated()
        self.group = group
        self._down = down_masks(group)
        if _entries is None:
            _entries = self._build()
        self._cols, self._keys, self._lf, self._pool, self._cmax = _entries
        _check_width(self._cmax * group.order)

    def _build(self) -> tuple[list[dict[int, int]], list[tuple[list[int], list[int]]],
                              list[int], dict[int, Coeffs], int]:
        """Columns in index order: the recursion on the smallest index of
        each orbit of g._symmetries(), and a copy through phi for the rest
        of the orbit (module docstring).  A column reads only smaller ones,
        and all of a smaller one's orbit is filled when its smallest index
        is built."""
        g = self.group
        width = _WIDTH
        down = self._down
        lengths = g._lengths
        words = g._words
        lmul = g._lmul
        n = g.order
        cols: list[dict[int, int]] = [{} for _ in range(n)]
        # column w is read at cl[cr[y]] for (cl, cr) = keys[w]
        keys, lfs, rfs = _climb_keys(g)
        # mu_rows[w]: the (z, mu(z, w)) with mu != 0, the covers first; each
        # row but e's empty one is set when its column is built or copied
        lower = cover_graph(g).lower
        mu_rows: list[list[tuple[int, int]]] = [[]] * n
        # distinct stored value -> (the shared int, degree, leading coefficient)
        seen: dict[int, tuple[int, int, int]] = {}
        pool: dict[int, Coeffs] = {}
        cmax = 1
        symmetries = g._symmetries()
        copied = bytearray(n)

        for wi in range(1, n):
            if copied[wi]:
                continue
            lw = lengths[wi]
            s = words[wi][0] - 1  # smallest left descent of w
            sl = lmul[s]
            vi = sl[wi]
            col_v = cols[vi]
            clv, crv = keys[vi]
            down_v = down[vi]
            # mu(z, v) q^((l(w) - l(z)) / 2) for the z < v with s z < z
            zmu = []
            mu_sum = 0
            for zi, mu in mu_rows[vi]:
                if sl[zi] < zi:
                    zmu.append((down[zi], cols[zi], *keys[zi],
                                mu << width * ((lw - lengths[zi]) // 2)))
                    mu_sum += mu
            _check_width((2 + mu_sum) * cmax)
            col = cols[wi]
            row_mu = mu_rows[wi] = [(zi, 1) for zi in lower[wi]]
            for yi in iter_indices(down[wi] & lfs[wi] & rfs[wi]):  # the extremal y <= w
                p = col_v.get(clv[crv[sl[yi]]], 1)  # s y <= v by the lifting property
                if down_v >> yi & 1:
                    p += col_v.get(clv[crv[yi]], 1) << width
                for down_z, col_z, clz, crz, mq in zmu:
                    if down_z >> yi & 1:
                        p -= mq * col_z.get(clz[crz[yi]], 1)
                if p == 1:
                    continue
                e = seen.get(p)
                if e is None:
                    coeffs = _unpack(p)
                    if not coeffs or coeffs[0] != 1:
                        raise AssertionError("constant term of a KL polynomial is not 1")
                    e = seen[p] = (p, len(coeffs) - 1, coeffs[-1])
                    pool[p] = coeffs
                    cmax = max(cmax, max(map(abs, coeffs)))
                p, deg, lead = e
                d = lw - lengths[yi]
                if 2 * deg >= d:
                    raise AssertionError("KL degree bound violated")
                col[yi] = p
                if 2 * deg == d - 1:
                    row_mu.append((yi, lead))
            # w is the smallest index of its orbit: fill the rest of it
            for phi in symmetries:
                ui = phi[wi]
                if ui != wi and not copied[ui]:
                    copied[ui] = 1
                    cols[ui] = dict(sorted(zip(map(phi.__getitem__, col), col.values())))
                    mu_rows[ui] = [(phi[zi], mu) for zi, mu in row_mu]
        return cols, keys, lfs, pool, cmax

    # -- reads -----------------------------------------------------------------

    def polynomial_by_index(self, yi: int, wi: int) -> Coeffs:
        if not (self._down[wi] >> yi & 1):
            return ()
        cl, cr = self._keys[wi]
        p = self._cols[wi].get(cl[cr[yi]])
        return _ONE if p is None else self._pool[p]

    def polynomial(self, y: Element, w: Element) -> IntPolynomial:
        """P_{y,w}; 0 when y is not below w in Bruhat order."""
        check_same_group(self.group, y, w)
        return IntPolynomial(self.polynomial_by_index(y.index, w.index))

    def __len__(self) -> int:
        return sum(map(len, self._cols))


def kl_table(g: WeylGroup) -> KLTable:
    return KLTable(g)


def mu_coefficient(t: KLTable, y: Element, w: Element) -> int:
    """Coefficient of q^((l(w)-l(y)-1)/2) in P_{y,w}; 0 on even gaps."""
    check_same_group(t.group, y, w)
    d = w.length - y.length
    if d <= 0 or d % 2 == 0:
        return 0
    p = t.polynomial_by_index(y.index, w.index)
    k = (d - 1) // 2
    return p[k] if len(p) > k else 0


def _coset_sum(t: KLTable, ys, signs, zi: int) -> int:
    """Sum of sign * P_{y, z} over zip(ys, signs), packed.

    The y must be distinct; the table's width check then covers the sum.
    """
    down_z = t._down[zi]
    col = t._cols[zi]
    cl, cr = t._keys[zi]
    acc = 0
    for yi, sign in zip(ys, signs):
        if down_z >> yi & 1:
            acc += sign * col.get(cl[cr[yi]], 1)
    return acc


def _correction_sum(t: KLTable, ys, signs, zi: int) -> int:
    """Sum of sign * (P_{y, z} - 1) over the y <= z in zip(ys, signs), packed.

    Only a y whose key m = cl[cr[y]] is stored adds, and y <= m <= z then.
    """
    col = t._cols[zi]
    cl, cr = t._keys[zi]
    acc = 0
    for yi, sign in zip(ys, signs):
        p = col.get(cl[cr[yi]])
        if p is not None:
            acc += sign * (p - 1)
    return acc


# -- binary cache ---------------------------------------------------------------
#
# Layout (little-endian):
#   "KLV4", family (1 ASCII byte), rank (u8), order n (u32),
#   SHA-256 of the order rows down_masks(g)[i] as (n + 7) // 8 bytes each,
#   CRC32 of the payload (u32), then the payload:
#   n_polys (u32), n_entries (u32),
#   the pool: each distinct stored polynomial once, as degree (u8) and
#   degree + 1 int32 coefficients,
#   n column counts (u32), the number of entries column w stores,
#   n_entries stored ys (u32), column by column, increasing within a column,
#   n_entries u32 pool indices, in the same order.
#
# load_table checks all of it before it returns and decodes every column.

_MAGIC = b"KLV4"
_OLD_MAGICS = (b"KLV1", b"KLV2", b"KLV3")
_HEADER = struct.Struct("<4scBI32sI")


def _order_digest(g: WeylGroup) -> bytes:
    """SHA-256 of the Bruhat order in g's element indexing."""
    import hashlib  # imported on use: only cache files need the digest

    nbytes = (g.order + 7) // 8
    h = hashlib.sha256()
    for m in down_masks(g):
        h.update(m.to_bytes(nbytes, "little"))
    return h.digest()


def save_table(t: KLTable, path) -> None:
    """Serialize the sparse table; see the layout above.

    The file is written under a temporary name in the target's directory,
    synced to disk and renamed over path, so a failed save or a crash never
    leaves a partial cache.  It gets the mode open() would give it (0o666
    less the umask), not mkstemp's 0o600.
    """
    import tempfile  # imported on use: only a cache write needs it

    g = t.group
    counts, ys, vals = [], [], []
    for col in t._cols:  # each in increasing y
        counts.append(len(col))
        ys += col
        vals += col.values()
    # pool indices in order of first use, by (w, y)
    pool = {v: k for k, v in enumerate(dict.fromkeys(vals))}
    ks = [*map(pool.__getitem__, vals)]
    payload = bytearray(struct.pack("<II", len(pool), len(ks)))
    for v in pool:
        p = t._pool[v]
        payload += struct.pack(f"<B{len(p)}i", len(p) - 1, *p)
    payload += struct.pack(f"<{len(counts) + 2 * len(ks)}I", *counts, *ys, *ks)
    header = _HEADER.pack(_MAGIC, g.cartan.family.encode("ascii"), g.rank,
                          g.order, _order_digest(g), zlib.crc32(payload))
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=".klv-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        umask = os.umask(0o022)  # the umask can only be read by setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_table(g: WeylGroup, path) -> KLTable:
    """Read a table cache and validate its header, order digest and
    checksum against g, and its payload's structure, every stored y against
    the Bruhat order and the climbs included.

    Every check runs here, and every column is decoded.

    A file that cannot be read or decoded raises InputError.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: cannot read cache: {exc.strerror or exc}") from None
    try:
        return _decode_table(g, path, data)
    except (struct.error, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: truncated or corrupt cache file ({exc})") from None


def _decode_table(g: WeylGroup, path, data: bytes) -> KLTable:
    magic = data[:4]
    if magic in _OLD_MAGICS:
        raise InputError(
            f"{path}: cache was written in an older format "
            f"({magic.decode()}); delete it so it can be rebuilt"
        )
    if magic != _MAGIC:
        raise InputError(f"{path}: not a polynomial table cache")
    _, fam, rank, n, digest, crc = _HEADER.unpack_from(data)
    fam = fam.decode("ascii")
    if (fam, rank, n) != (g.cartan.family, g.rank, g.order):
        raise InputError(
            f"{path}: cache is for type {fam}{rank} ({n} elements), "
            f"group is {g.cartan} ({g.order} elements)"
        )
    if digest != _order_digest(g):
        raise InputError(f"{path}: element order does not match the group")
    off = _HEADER.size
    if zlib.crc32(data[off:]) != crc:
        raise InputError(f"{path}: cache checksum mismatch (corrupt file)")
    n_polys, n_entries = struct.unpack_from("<II", data, off)
    off += 8
    pool: list[Coeffs] = []
    for _ in range(n_polys):
        (deg,) = struct.unpack_from("<B", data, off)
        pool.append(struct.unpack_from(f"<{deg + 1}i", data, off + 1))
        off += 5 + 4 * deg
    if len(data) - off != 4 * (n + 2 * n_entries):
        raise InputError(f"{path}: truncated or corrupt cache file (payload length)")
    counts = struct.unpack_from(f"<{n}I", data, off)
    ys = struct.unpack_from(f"<{n_entries}I", data, off + 4 * n)
    ks = struct.unpack_from(f"<{n_entries}I", data, off + 4 * (n + n_entries))
    bounds = [0, *accumulate(counts)]
    if bounds[-1] != n_entries:
        raise InputError(f"{path}: corrupt cache file (column counts do not match the entry count)")
    if n_entries and max(ks) >= n_polys:
        raise InputError(f"{path}: corrupt cache file (pool index out of range)")
    # the writer stores KL polynomials other than 0 and 1, each once: constant
    # term 1, degree at least 1, no trailing zero
    if any(len(p) < 2 or p[0] != 1 or p[-1] == 0 for p in pool):
        raise InputError(f"{path}: corrupt cache file (pool polynomial not canonical)")
    values = [_pack(p) for p in pool]
    if len(set(values)) != n_polys:
        raise InputError(f"{path}: corrupt cache file (pool polynomial repeated)")
    keys, lfs, rfs = _climb_keys(g)
    cols = []
    for wi, down, lf, rf, b, e in zip(range(n), down_masks(g), lfs, rfs, bounds, bounds[1:]):
        col_ys = ys[b:e]
        if col_ys:
            if any(map(ge, col_ys, col_ys[1:])):
                raise InputError(f"{path}: corrupt cache file (stored ys not in increasing order)")
            # a y below w has a smaller index; that bounds the shifts, and
            # distinct shifts sum to their union
            if col_ys[-1] >= wi or (stored := sum(map((1).__lshift__, col_ys))) & ~down:
                raise InputError(f"{path}: corrupt cache file (stored y not below its w)")
            if stored & ~(lf & rf):
                raise InputError(
                    f"{path}: corrupt cache file (stored y not a double-coset maximum)")
        cols.append(dict(zip(col_ys, map(values.__getitem__, ks[b:e]))))
    cmax = max((abs(c) for p in pool for c in p), default=1)
    try:
        return KLTable(g, _entries=(cols, keys, lfs, dict(zip(values, pool)), cmax))
    except AssertionError:  # the table's width check
        raise InputError(f"{path}: corrupt cache file (coefficient out of range)") from None
