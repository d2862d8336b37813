"""Kazhdan-Lusztig polynomials and their singular alternating-sum variants.

The full table is computed bottom-up in length order with the standard
recursion.  Storage is sparse: only polynomials other than 0 and 1 are kept
explicitly; the 0/1 distinction is read off the Bruhat-order bitmasks.  The
singular variants are alternating sums of ordinary entries over a parabolic
subgroup.  The dominant-side variant, the one the exactness test reads, is
the same sum for the singularity set conjugated by the longest element; it
runs over the block's precomputed index terms.
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

from .bruhat import down_masks, iter_indices, leq
from .errors import DomainError, InputError
from .parabolic import SingularBlock
from .weyl import Element, WeylGroup, _compose

Coeffs = tuple[int, ...]

_ONE: Coeffs = (1,)


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


def _padd(a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    return tuple(x + y for x, y in zip(a, b)) + a[len(b):]


def _psub(a: Coeffs, b: Coeffs) -> Coeffs:
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return tuple(x - y for x, y in zip(a, b))


def _pshift(a: Coeffs, k: int) -> Coeffs:
    return (0,) * k + a if a else ()


def _pscale(a: Coeffs, m: int) -> Coeffs:
    return tuple(m * x for x in a)


def _ptrim(a: Coeffs) -> Coeffs:
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


class KLTable:
    """Complete Kazhdan-Lusztig table for a fully enumerated group.

    Entries are keyed by element index pairs (y, w); pairs with y not below w
    read as 0, comparable pairs default to 1 unless stored explicitly.
    """

    def __init__(self, group: WeylGroup, _entries: dict | None = None):
        group.require_enumerated()
        self.group = group
        self._down = down_masks(group)
        if _entries is not None:
            self._poly = _entries
        else:
            self._poly = self._build()

    def _build(self) -> dict[tuple[int, int], Coeffs]:
        g = self.group
        down = self._down
        lengths = g._lengths
        words = g._words
        lmul = g._lmul
        poly: dict[tuple[int, int], Coeffs] = {}
        mu_rows: dict[int, list[tuple[int, int]]] = {}

        def get(yi: int, wi: int) -> Coeffs:
            if yi == wi:
                return _ONE
            if not (down[wi] >> yi & 1):
                return ()
            return poly.get((yi, wi), _ONE)

        for wi in range(g.order):
            lw = lengths[wi]
            if lw == 0:
                continue
            s = words[wi][0] - 1  # smallest left descent of w
            vi = lmul[s][wi]
            sl = lmul[s]
            zmu = [
                (zi, m, (lw - lengths[zi]) // 2)
                for zi, m in mu_rows.get(vi, ())
                if lengths[sl[zi]] < lengths[zi]
            ]
            results: dict[int, Coeffs] = {}
            dmask = down[wi]
            for yi in iter_indices(dmask):
                syi = sl[yi]
                if lengths[syi] > lengths[yi]:
                    continue  # handled by invariance below
                p = _padd(get(syi, vi), _pshift(get(yi, vi), 1))
                for zi, m, shift in zmu:
                    if down[zi] >> yi & 1:
                        q = get(yi, zi)
                        if q:
                            p = _psub(p, _pshift(_pscale(q, m), shift))
                results[yi] = _ptrim(p)
            for yi in iter_indices(dmask):
                syi = sl[yi]
                if lengths[syi] > lengths[yi]:
                    results[yi] = results[syi]
            row_mu = []
            for yi, p in results.items():
                d = lw - lengths[yi]
                if not p or p[0] != 1:
                    raise AssertionError("constant term of a KL polynomial is not 1")
                if yi != wi and 2 * (len(p) - 1) > d - 1:
                    raise AssertionError("KL degree bound violated")
                if p != _ONE:
                    poly[(yi, wi)] = p
                if d % 2 == 1:
                    k = (d - 1) // 2
                    if len(p) > k and p[k]:
                        row_mu.append((yi, p[k]))
            if row_mu:
                mu_rows[wi] = row_mu
        return poly

    # -- reads -----------------------------------------------------------------

    def polynomial_by_index(self, yi: int, wi: int) -> Coeffs:
        if yi == wi:
            return _ONE
        if not (self._down[wi] >> yi & 1):
            return ()
        return self._poly.get((yi, wi), _ONE)

    def polynomial(self, y: Element, w: Element) -> IntPolynomial:
        """P_{y,w}; 0 when y is not below w in Bruhat order."""
        return IntPolynomial(self.polynomial_by_index(y.index, w.index))

    def __len__(self) -> int:
        return len(self._poly)


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
    g = t.group
    for e in (y, z):
        if not b_mu.contains_min_rep(e):
            raise DomainError(f"{e!r} is not a minimal coset representative")
    zi = z.index
    acc: Coeffs = ()
    for ui in b_mu._wlambda_indices:
        yui = g._index[_compose(y.perm, g._perms[ui])]
        p = t.polynomial_by_index(yui, zi)
        if not p:
            continue
        acc = _padd(acc, p) if g._lengths[ui] % 2 == 0 else _psub(acc, p)
    return IntPolynomial(acc)


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
    return IntPolynomial(_dominant_sum(t, b._dominant_terms[x.index], zi))


def _dominant_sum(t: KLTable, terms, zi: int) -> Coeffs:
    """Signed sum of P_{y, z} over the (y, sign) terms of a longest
    representative (see SingularBlock), trimmed.

    This is the scan's inner loop, so it reads the table directly: entries 1
    are summed as integers and only stored polynomials as tuples.
    """
    down_z = t._down[zi]
    poly = t._poly
    const = 0
    acc: Coeffs = ()
    for yi, sign in terms:
        if not down_z >> yi & 1:
            continue
        p = poly.get((yi, zi))
        if p is None:
            const += sign
        else:
            acc = _padd(acc, p) if sign > 0 else _psub(acc, p)
    if acc:
        return _ptrim((acc[0] + const,) + acc[1:])
    return (const,) if const else ()


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

_MAGIC = b"KLV2"
_OLD_MAGICS = (b"KLV1",)
_HEADER = struct.Struct("<4scBI32sI")
_U32 = "I"


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
    pool: dict[Coeffs, int] = {}
    ys, ws, ks = [], [], []
    for (yi, wi), p in sorted(t._poly.items(), key=lambda e: (e[0][1], e[0][0])):
        ys.append(yi)
        ws.append(wi)
        ks.append(pool.setdefault(p, len(pool)))
    payload = bytearray(struct.pack("<II", len(pool), len(ys)))
    for p in pool:
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
    checksum against g.

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
    poly = dict(zip(zip(ys, ws), map(pool.__getitem__, ks)))
    return KLTable(g, _entries=poly)
