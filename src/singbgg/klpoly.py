"""Kazhdan-Lusztig polynomials and their singular alternating-sum variants.

The full table is computed bottom-up in length order with the standard
recursion.  Inside the table every polynomial is one Python int, its value at
q = 2**_WIDTH (Kronecker substitution).  This is an exact ring map from Z[q]
to Z, so the recursion and the signed sums run on plain integers: sums stay
sums, multiplying by q**k is multiplying by 1 << (_WIDTH * k).  Reading a
polynomial back takes the balanced base-2**_WIDTH digits, which is exact
while every coefficient lies in [-2**(_WIDTH - 1), 2**(_WIDTH - 1)).  Two
guards raise AssertionError before a value could leave that range: the
build checks each column's recursion sum, and every table checks once that
a signed sum of distinct entries, at most one per element of W, still fits.

Storage is sparse: column w keeps only the y with P_{y,w} other than 0 and
1, and the 0/1 distinction is read off the Bruhat-order bitmasks.  Stored
values are interned, so equal polynomials share one int and the table keeps
a pool of the distinct ones with their coefficient tuples.  Tuples and
IntPolynomial are built only when a polynomial leaves the module.

A table loaded from the binary cache validates the whole file at load time
but keeps the entries as the file's index arrays; a column's dict is built
the first time something reads that column, so a query that reads a few
columns decodes only those.

The singular variants are alternating sums of ordinary entries over a
parabolic subgroup.  The dominant-side variant, the one the exactness test
reads, is the same sum for the singularity set conjugated by the longest
element; it runs over the block's precomputed index terms.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
import sys
import tempfile
import zlib
from array import array
from bisect import bisect_left
from operator import lt

from .bruhat import down_masks, iter_indices, leq
from .errors import DomainError, InputError
from .parabolic import SingularBlock, _mask
from .weyl import Element, WeylGroup

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


class KLTable:
    """Complete Kazhdan-Lusztig table for a fully enumerated group.

    Entries are read by element index pairs (y, w); pairs with y not below w
    read as 0, comparable pairs as 1 unless column w stores them.  _cols[w]
    maps y to P_{y,w} packed at q = 2**_WIDTH (a list for a built table, a
    _Columns for a loaded one), _stored counts the stored entries, _pool
    maps each distinct stored value to its coefficient tuple, and _cmax is
    the largest coefficient in absolute value (at least 1).  A signed sum
    reads at most one entry per element of W, so _cmax * |W| bounds its
    coefficients; the table checks that bound once, and the sums do not
    check it again.
    """

    def __init__(self, group: WeylGroup, _entries: tuple | None = None):
        group.require_enumerated()
        self.group = group
        self._down = down_masks(group)
        if _entries is None:
            _entries = self._build()
        self._cols, self._stored, self._pool, self._cmax = _entries
        _check_width(self._cmax * group.order)

    def _build(self) -> tuple[list[dict[int, int]], int, dict[int, Coeffs], int]:
        g = self.group
        width = _WIDTH
        down = self._down
        lengths = g._lengths
        words = g._words
        lmul = g._lmul
        n = g.order
        # desc[s] has bit i set iff s is a left descent of w_i
        desc = [_mask(i for i in range(n) if row[i] < i) for row in lmul]
        cols: list[dict[int, int]] = [{} for _ in range(n)]
        mu_rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        # distinct stored value -> (the shared int, degree, leading coefficient)
        seen: dict[int, tuple[int, int, int]] = {}
        pool: dict[int, Coeffs] = {}
        cmax = 1

        for wi in range(1, n):
            lw = lengths[wi]
            s = words[wi][0] - 1  # smallest left descent of w
            sl = lmul[s]
            ds = desc[s]
            vi = sl[wi]
            col_v = cols[vi]
            down_v = down[vi]
            # mu(z, v) q^((l(w) - l(z)) / 2) for the z < v with s z < z
            zmu = []
            mu_sum = 0
            for zi, m in mu_rows[vi]:
                if ds >> zi & 1:
                    zmu.append((down[zi], cols[zi], m << width * ((lw - lengths[zi]) // 2)))
                    mu_sum += m
            _check_width((2 + mu_sum) * cmax)
            dmask = down[wi]
            # y with s y < y by the recursion; then s y > y by P_{y,w} = P_{sy,w}
            results: dict[int, int] = {}
            for yi in iter_indices(dmask & ds):
                p = col_v.get(sl[yi], 1)  # s y <= v by the lifting property
                if down_v >> yi & 1:
                    p += col_v.get(yi, 1) << width
                for down_z, col_z, mq in zmu:
                    if down_z >> yi & 1:
                        p -= mq * col_z.get(yi, 1)
                results[yi] = p
            for yi in iter_indices(dmask & ~ds):
                results[yi] = results[sl[yi]]
            col = cols[wi]
            row_mu = mu_rows[wi]
            for yi, p in results.items():
                d = lw - lengths[yi]
                if p == 1:
                    if d == 1:
                        row_mu.append((yi, 1))
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
                if 2 * deg > d - 1:
                    raise AssertionError("KL degree bound violated")
                col[yi] = p
                if 2 * deg == d - 1:
                    row_mu.append((yi, lead))
        return cols, sum(map(len, cols)), pool, cmax

    # -- reads -----------------------------------------------------------------

    def polynomial_by_index(self, yi: int, wi: int) -> Coeffs:
        if yi == wi:
            return _ONE
        if not (self._down[wi] >> yi & 1):
            return ()
        p = self._cols[wi].get(yi)
        return _ONE if p is None else self._pool[p]

    def polynomial(self, y: Element, w: Element) -> IntPolynomial:
        """P_{y,w}; 0 when y is not below w in Bruhat order."""
        return IntPolynomial(self.polynomial_by_index(y.index, w.index))

    def _columns(self):
        """The column dicts {y: packed P_{y,w}} in index order of w."""
        return map(self._cols.__getitem__, range(self.group.order))

    def __len__(self) -> int:
        return self._stored


class _Columns(dict):
    """Columns of a loaded table, w -> {y: packed P_{y,w}}, each decoded
    from the cache's index arrays the first time it is read.

    ys and ks are the file's y and pool-index arrays, entries
    bounds[w]:bounds[w + 1] form column w, and values[k] is the packed pool
    polynomial k.  Once decoded, a column is read by a plain dict lookup.
    """

    __slots__ = ("_ys", "_ks", "_bounds", "_values")

    def __init__(self, ys: array, ks: array, bounds: list[int], values: list[int]):
        super().__init__()
        self._ys, self._ks, self._bounds, self._values = ys, ks, bounds, values

    def __missing__(self, wi: int) -> dict[int, int]:
        a, b = self._bounds[wi], self._bounds[wi + 1]
        col = self[wi] = dict(zip(self._ys[a:b], map(self._values.__getitem__, self._ks[a:b])))
        return col


def kl_table(g: WeylGroup) -> KLTable:
    return KLTable(g)


def mu_coefficient(t: KLTable, y: Element, w: Element) -> int:
    """Coefficient of q^((l(w)-l(y)-1)/2) in P_{y,w}; 0 on even gaps."""
    d = w.length - y.length
    if d <= 0 or d % 2 == 0:
        return 0
    p = t.polynomial_by_index(y.index, w.index)
    k = (d - 1) // 2
    return p[k] if len(p) > k else 0


def klv_polynomial(
    t: KLTable, b_mu: SingularBlock, y: Element, z: Element
) -> IntPolynomial:
    """Alternating sum of P_{y u, z} over u in the parabolic subgroup of b_mu.

    Both arguments must be minimal coset representatives for b_mu.
    """
    for e in (y, z):
        if not b_mu.contains_min_rep(e):
            raise DomainError(f"{e!r} is not a minimal coset representative")
    lengths = t.group._lengths
    terms = [(yu, -1 if lengths[u] % 2 else 1)
             for u, yu in zip(b_mu._wlambda_indices, b_mu._coset_indices(y.index))]
    return IntPolynomial(_unpack(_dominant_sum(t, terms, z.index)))


def klv_dominant(
    t: KLTable, b: SingularBlock, w: Element, x: Element
) -> IntPolynomial:
    """The exactness-test polynomial for the pair (w, x) of longest
    representatives: the singular polynomial at arguments (x w0, w w0) for
    the singularity set conjugated by w0."""
    for e in (w, x):
        if not b.contains_max_rep(e):
            raise DomainError(f"{e!r} is not a longest coset representative")
    if not leq(w, x):
        raise DomainError(f"requires w <= x; got w={w!r}, x={x!r}")
    zi = b.group.rmul_w0_indices()[w.index]
    return IntPolynomial(_unpack(_dominant_sum(t, b._dominant_terms[x.index], zi)))


def _dominant_sum(t: KLTable, terms, zi: int) -> int:
    """Signed sum of P_{y, z} over the (y, sign) terms, packed.

    The y must be distinct; the table's width check then covers the sum.
    """
    down_z = t._down[zi]
    col = t._cols[zi]
    acc = 0
    for yi, sign in terms:
        if down_z >> yi & 1:
            acc += sign * col.get(yi, 1)
    return acc


# -- binary cache ---------------------------------------------------------------
#
# Layout (little-endian):
#   "KLV2", family (1 ASCII byte), rank (u8), order n (u32),
#   SHA-256 of the order rows down_masks(g)[i] as (n + 7) // 8 bytes each,
#   CRC32 of the payload (u32), then the payload:
#   n_polys (u32), n_entries (u32),
#   the pool: each distinct stored polynomial once, as degree (u8) and
#   degree + 1 int32 coefficients,
#   three u32 arrays of n_entries each, y, w and the pool index, sorted by (w, y).
#
# load_table checks all of it before it returns, then keeps the y and pool
# index arrays as they are and decodes a column on its first read.

_MAGIC = b"KLV2"
_OLD_MAGICS = (b"KLV1",)
_HEADER = struct.Struct("<4scBI32sI")
_U32 = "I"
_U32LE = struct.Struct("<I")


def _order_digest(g: WeylGroup) -> bytes:
    """SHA-256 of the Bruhat order in g's element indexing."""
    nbytes = (g.order + 7) // 8
    h = hashlib.sha256()
    for m in down_masks(g):
        h.update(m.to_bytes(nbytes, "little"))
    return h.digest()


def _u32_bytes(values) -> bytes:
    a = array(_U32, values)
    if sys.byteorder == "big":
        a.byteswap()
    return a.tobytes()


def _u32_array(data: bytes, off: int, count: int) -> array:
    a = array(_U32)
    if a.itemsize != 4:
        raise AssertionError(f"array typecode {_U32!r} is not 4 bytes wide")
    a.frombytes(data[off:off + 4 * count])
    if sys.byteorder == "big":
        a.byteswap()
    return a


def save_table(t: KLTable, path) -> None:
    """Serialize the sparse table; see the layout above.

    The file is written under a temporary name in the target's directory,
    synced to disk and renamed over path, so a failed save or a crash never
    leaves a partial cache.  It gets the mode open() would give it (0o666
    less the umask), not mkstemp's 0o600.
    """
    g = t.group
    pool: dict[int, int] = {}
    ys, ws, ks = [], [], []
    for wi, col in enumerate(t._columns()):
        for yi in sorted(col):
            ys.append(yi)
            ws.append(wi)
            ks.append(pool.setdefault(col[yi], len(pool)))
    payload = bytearray(struct.pack("<II", len(pool), len(ys)))
    for v in pool:
        p = t._pool[v]
        payload += struct.pack(f"<B{len(p)}i", len(p) - 1, *p)
    for values in (ys, ws, ks):
        payload += _u32_bytes(values)
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
    checksum against g, and its payload's structure.

    Every check runs here; the columns are decoded on first read.

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
    if len(data) - off != 12 * n_entries:
        raise InputError(f"{path}: truncated or corrupt cache file (entry arrays)")
    ys, ws, ks = (_u32_array(data, off + 4 * n_entries * j, n_entries)
                  for j in range(3))
    if n_entries and max(ks) >= n_polys:
        raise InputError(f"{path}: corrupt cache file (pool index out of range)")
    # bounds[w] is where column w starts if ws is sorted; ws is sorted with
    # every value below n exactly when it equals the runs the bounds imply
    bounds = [0]
    for wi in range(1, n + 1):
        bounds.append(bisect_left(ws, wi, bounds[-1]))
    runs = b"".join(map(bytes.__mul__, map(_U32LE.pack, range(n)),
                        map(int.__sub__, bounds[1:], bounds)))
    woff = off + 4 * n_entries
    # the ys of a column strictly increase, so its last y is its largest
    if runs != data[woff:woff + 4 * n_entries] or any(
        col and (col[-1] >= n or not all(map(lt, col, col[1:])))
        for col in map(ys.__getitem__, map(slice, bounds, bounds[1:]))
    ):
        raise InputError(f"{path}: corrupt cache file (entry index out of order or range)")
    # the writer stores KL polynomials other than 0 and 1, each once: constant
    # term 1, degree at least 1, no trailing zero
    if any(len(p) < 2 or p[0] != 1 or p[-1] == 0 for p in pool):
        raise InputError(f"{path}: corrupt cache file (pool polynomial not canonical)")
    values = [_pack(p) for p in pool]
    if len(set(values)) != n_polys:
        raise InputError(f"{path}: corrupt cache file (pool polynomial repeated)")
    cols = _Columns(ys, ks, bounds, values)
    cmax = max((abs(c) for p in pool for c in p), default=1)
    try:
        return KLTable(g, _entries=(cols, n_entries, dict(zip(values, pool)), cmax))
    except AssertionError:  # the table's width check
        raise InputError(f"{path}: corrupt cache file (coefficient out of range)") from None
