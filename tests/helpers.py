"""Shared fixtures-free helpers for the test suite."""

from itertools import chain, combinations

from singbgg import CartanType, build_group, kl_table, klpoly
from singbgg.bruhat import down_masks, iter_indices
from singbgg.weyl import _compose, _invert, _num_inversions

_GROUPS = {}
_TABLES = {}


def get_group(fam, rank):
    key = (fam, rank)
    if key not in _GROUPS:
        _GROUPS[key] = build_group(CartanType(fam, rank))
    return _GROUPS[key]


def get_table(fam, rank):
    key = (fam, rank)
    if key not in _TABLES:
        _TABLES[key] = kl_table(get_group(fam, rank))
    return _TABLES[key]


def all_singularities(rank):
    idx = range(1, rank + 1)
    return [frozenset(c) for c in chain.from_iterable(
        combinations(idx, k) for k in range(rank + 1))]


RANK_LE_3 = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3),
             ("C", 3), ("D", 3)]


def subword_leq(u, v):
    """Bruhat order oracle: u <= v iff u is a product of a subword of a fixed
    reduced word of v (dynamic programming over prefixes)."""
    g = u.group
    reach = {g.identity_perm}
    for s in v.reduced_word():
        gp = g.generator_perms[s - 1]
        reach |= {_compose(p, gp) for p in reach}
    return u.perm in reach


def shortlex_tables(g):
    """Group tables by closure and a sort on (length, ShortLex word), the
    definition the layered enumeration must reproduce.

    Returns (perms, words, lengths, lmul, rmul, inv) in the sorted indexing.
    """
    seen = {g.identity_perm}
    frontier = [g.identity_perm]
    while frontier:
        p = frontier.pop()
        for gp in g.generator_perms:
            q = _compose(p, gp)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    decorated = sorted((_num_inversions(p), g._shortlex_word(p), p) for p in seen)
    perms = [p for _, _, p in decorated]
    index = {p: i for i, p in enumerate(perms)}
    words = [w for _, w, _ in decorated]
    lengths = [l for l, _, _ in decorated]
    lmul = [[index[_compose(gp, p)] for p in perms] for gp in g.generator_perms]
    rmul = [[index[_compose(p, gp)] for p in perms] for gp in g.generator_perms]
    inv = [index[_invert(p)] for p in perms]
    return perms, words, lengths, lmul, rmul, inv


def reflection_covers(g):
    """Upper and lower covers by definition: u < t*u with l(t*u) = l(u) + 1
    for a reflection t, rows sorted."""
    reflections = [g._root_action_perm(alpha) for alpha in g.positive_roots]
    upper = [[] for _ in range(g.order)]
    lower = [[] for _ in range(g.order)]
    for i, p in enumerate(g._perms):
        for t in reflections:
            q = _compose(t, p)
            if _num_inversions(q) == g._lengths[i] + 1:
                j = g._index[q]
                upper[i].append(j)
                lower[j].append(i)
    return [sorted(r) for r in upper], [sorted(r) for r in lower]


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    return tuple(x + y for x, y in zip(a, b)) + a[len(b):]


def _psub(a, b):
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return tuple(x - y for x, y in zip(a, b))


def _pshift(a, k):
    return (0,) * k + a if a else ()


def _pscale(a, m):
    return tuple(m * x for x in a)


def _ptrim(a):
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def tuple_kl_polys(g):
    """KL polynomials by the standard recursion on coefficient tuples, the
    definition the packed table must reproduce.

    Returns {(y, w): coefficients} for the comparable pairs with P_{y,w}
    other than 1.
    """
    down = down_masks(g)
    lengths, words, lmul = g._lengths, g._words, g._lmul
    poly = {}
    mu_rows = {}

    def get(yi, wi):
        if yi == wi:
            return (1,)
        if not (down[wi] >> yi & 1):
            return ()
        return poly.get((yi, wi), (1,))

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
        results = {}
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
            if p != (1,):
                poly[(yi, wi)] = p
            if d % 2 == 1:
                k = (d - 1) // 2
                if len(p) > k and p[k]:
                    row_mu.append((yi, p[k]))
        if row_mu:
            mu_rows[wi] = row_mu
    return poly


def decoded_polys(t):
    """{(y, w): coefficients} of the entries a KLTable stores, unpacked."""
    return {(y, w): klpoly._unpack(p)
            for w, col in enumerate(t._cols) for y, p in col.items()}
