"""Shared fixtures-free helpers for the test suite."""

from functools import lru_cache
from itertools import chain, combinations

from singbgg import CartanType, build_group, kl_table, positive_roots
from singbgg.bruhat import down_masks, iter_indices
from singbgg.cartan import simple_reflection

_TABLES = {}


def get_group(fam, rank, budget=None):
    """The group, shared through build_group's cache; `budget` as there."""
    return build_group(CartanType(fam, rank), budget)


def get_table(fam, rank, budget=None):
    """The KL table of get_group(fam, rank, budget), built once per group."""
    g = get_group(fam, rank, budget)
    if g not in _TABLES:
        _TABLES[g] = kl_table(g)
    return _TABLES[g]


def all_singularities(rank):
    idx = range(1, rank + 1)
    return [frozenset(c) for c in chain.from_iterable(
        combinations(idx, k) for k in range(rank + 1))]


def mobius_oracle(elements, order, a, b) -> int:
    """Möbius function of the explicit poset (elements, order), by recursion.

    ``order`` is a binary predicate; returns 0 when a is not below b
    (incomparable-pair convention).  Memoized per call.
    """
    if not order(a, b):
        return 0
    below_b = [z for z in elements if order(z, b)]
    memo: dict = {}

    def mu(z) -> int:
        if z == b:
            return 1
        if z not in memo:
            memo[z] = -sum(mu(t) for t in below_b if order(z, t) and t != z)
        return memo[z]

    return mu(a)


def rationally_smooth(g, vi):
    """Whether the Schubert variety of w_vi is rationally smooth, by the
    Carrell-Peterson criterion: the rank generating function
    sum over y <= v of q^l(y) is palindromic.  Reads only the Bruhat order
    and lengths, so it is independent of the KL table.

    J. Carrell, "The Bruhat graph of a Coxeter group, a conjecture of
    Deodhar, and rational smoothness of Schubert varieties", Proc. Sympos.
    Pure Math. 56 (1994).
    """
    lengths = g._lengths
    ranks = [0] * (lengths[vi] + 1)
    for yi in iter_indices(down_masks(g)[vi]):
        ranks[lengths[yi]] += 1
    return ranks == ranks[::-1]


def avoids_3412_4231(word, rank):
    """Whether w w0 avoids the patterns 3412 and 4231, for w in type A_rank
    given by a reduced word.  By Lakshmibai-Sandhya that holds iff the
    Schubert variety of w w0 is smooth, and in type A smooth and rationally
    smooth agree.  Reads only the word, so it is independent of the group
    tables, of the Bruhat order and of the KL table.

    Convention: s_i is the transposition (i, i+1) of {1, ..., rank + 1}, a
    permutation u is its one-line notation [u(1), ..., u(rank + 1)], and
    products compose as maps, (u v)(j) = u(v(j)).  So u s_i is u with the
    entries at positions i and i+1 swapped, w is the identity with the
    positions of the word's letters swapped in turn, and w w0 is w's
    one-line notation reversed.  Both patterns are their own inverses and
    are fixed by conjugation with w0 (reverse, then complement), so reading
    the word as w^-1, or taking w0 w, gives the same answer.

    V. Lakshmibai and B. Sandhya, "Criterion for smoothness of Schubert
    varieties in SL(n)/B", Proc. Indian Acad. Sci. (Math. Sci.) 100 (1990).
    """
    p = list(range(1, rank + 2))
    for i in word:
        p[i - 1], p[i] = p[i], p[i - 1]
    p.reverse()
    for values in combinations(p, 4):
        ranks = tuple(sorted(values).index(v) + 1 for v in values)
        if ranks in ((3, 4, 1, 2), (4, 2, 3, 1)):
            return False
    return True


RANK_LE_3 = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3),
             ("C", 3), ("D", 3)]


# -- signed-root permutation model ---------------------------------------------
#
# An oracle independent of weyl.py, built from the public positive_roots and
# simple_reflection only.  An element is the tuple p with p[k] = +-(j+1) when
# it sends the k-th positive root to plus or minus the j-th.


def _compose(pu, pv):
    """Permutation of u*v, where (u*v)(beta) = u(v(beta))."""
    return tuple(pu[a - 1] if a > 0 else -pu[-a - 1] for a in pv)


def _invert(p):
    out = [0] * len(p)
    for i, a in enumerate(p, start=1):
        if a > 0:
            out[a - 1] = i
        else:
            out[-a - 1] = -i
    return tuple(out)


def _num_inversions(p):
    return sum(1 for a in p if a < 0)


class RootModel:
    """The Weyl group of a Cartan type acting on its positive roots."""

    def __init__(self, cartan):
        a = cartan.cartan_matrix()
        n = cartan.rank
        self.roots = positive_roots(cartan)
        index = {r: k for k, r in enumerate(self.roots)}
        # s_i sends alpha_i, the i-th root, to -alpha_i and permutes the rest
        self.gens = [
            tuple(-(i + 1) if k == i else index[simple_reflection(a, i, beta)] + 1
                  for k, beta in enumerate(self.roots))
            for i in range(n)
        ]
        self.identity = tuple(range(1, len(self.roots) + 1))
        # beta in fundamental-weight coordinates: <beta, alpha_j^vee> = sum_i beta_i a[j][i]
        self.root_weights = [tuple(sum(a[j][i] * b for i, b in enumerate(beta))
                                   for j in range(n)) for beta in self.roots]

    def of_word(self, word):
        """The product of the listed simple reflections, left to right."""
        p = self.identity
        for s in word:
            p = _compose(p, self.gens[s - 1])
        return p

    def word(self, p):
        """ShortLex-minimal reduced word: repeatedly strip the smallest left
        descent s_i, the one with p^-1 sending alpha_i negative."""
        word = []
        while True:
            inv = _invert(p)
            i = next((i for i in range(len(self.gens)) if inv[i] < 0), None)
            if i is None:
                return tuple(word)
            word.append(i + 1)
            p = _compose(self.gens[i], p)

    def weight(self, p):
        """w(rho) = rho - (sum of the roots beta > 0 with w^-1 beta < 0), in
        fundamental-weight coordinates."""
        mu = [1] * len(self.gens)
        for j, a in enumerate(_invert(p)):
            if a < 0:
                mu = [m - b for m, b in zip(mu, self.root_weights[j])]
        return tuple(mu)


@lru_cache(maxsize=None)
def root_model(cartan):
    """The permutation model of the Cartan type, built once."""
    return RootModel(cartan)


def index_perms(g):
    """The permutation of each index of g, read off its reduced word."""
    m = root_model(g.cartan)
    return [m.of_word(w) for w in g._words]


def subword_leq(u, v):
    """Bruhat order oracle: u <= v iff u is a product of a subword of a fixed
    reduced word of v (dynamic programming over prefixes)."""
    m = root_model(u.group.cartan)
    reach = {m.identity}
    for s in v.reduced_word():
        reach |= {_compose(p, m.gens[s - 1]) for p in reach}
    return m.of_word(u.reduced_word()) in reach


def shortlex_tables(g):
    """Group tables by closure in the permutation model and a sort on
    (length, ShortLex word), the definition the layered enumeration must
    reproduce.

    Returns (weights, words, lengths, lmul, rmul, inv) in the sorted indexing.
    """
    m = root_model(g.cartan)
    seen = {m.identity}
    frontier = [m.identity]
    while frontier:
        p = frontier.pop()
        for gp in m.gens:
            q = _compose(p, gp)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    decorated = sorted((_num_inversions(p), m.word(p), p) for p in seen)
    perms = [p for _, _, p in decorated]
    index = {p: i for i, p in enumerate(perms)}
    words = [w for _, w, _ in decorated]
    lengths = [l for l, _, _ in decorated]
    lmul = [[index[_compose(gp, p)] for p in perms] for gp in m.gens]
    rmul = [[index[_compose(p, gp)] for p in perms] for gp in m.gens]
    inv = [index[_invert(p)] for p in perms]
    return [m.weight(p) for p in perms], words, lengths, lmul, rmul, inv


def reflection_covers(g):
    """Upper and lower covers by definition: u < t*u with l(t*u) = l(u) + 1
    for a reflection t, rows sorted.  The reflections are the conjugates
    w*s*w^-1 of the simple reflections, one per positive root."""
    m, perms = root_model(g.cartan), index_perms(g)
    index = {p: i for i, p in enumerate(perms)}
    reflections = {_compose(_compose(p, gp), _invert(p))
                   for p in perms for gp in m.gens}
    assert len(reflections) == len(m.roots)
    upper = [[] for _ in range(g.order)]
    lower = [[] for _ in range(g.order)]
    for i, p in enumerate(perms):
        for t in reflections:
            q = _compose(t, p)
            if _num_inversions(q) == _num_inversions(p) + 1:
                j = index[q]
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
    """{(y, w): coefficients} of every P_{y,w} other than 0 and 1 of a
    KLTable, read pair by pair through polynomial_by_index."""
    return {(y, w): p
            for w, m in enumerate(t._down) for y in iter_indices(m)
            if (p := t.polynomial_by_index(y, w)) != (1,)}


def double_coset_maxima(g, left, right):
    """top[y] is the longest element of W_I y W_J, where I (J) is the set of
    generators s with bit s of left (right) set.

    Each double coset is found by closing {y} under y -> s y for s in I and
    y -> y t for t in J with the group's multiplication rows, independently
    of klpoly's climbs; its longest element must be unique.
    """
    rows = ([g._lmul[s] for s in range(g.rank) if left >> s & 1]
            + [g._rmul[t] for t in range(g.rank) if right >> t & 1])
    lengths = g._lengths
    top = [-1] * g.order
    for y in range(g.order):
        if top[y] >= 0:
            continue
        coset, todo = {y}, [y]
        while todo:
            x = todo.pop()
            for row in rows:
                if row[x] not in coset:
                    coset.add(row[x])
                    todo.append(row[x])
        longest = max(map(lengths.__getitem__, coset))
        (m,) = (x for x in coset if lengths[x] == longest)
        for x in coset:
            top[x] = m
    return top


def lambda_S(rank, S):
    """lambda_S: 0 at the indices in S, 1 elsewhere; its orbit is W^S."""
    return tuple(0 if i in S else 1 for i in range(1, rank + 1))


def quotient_down_masks(orbit):
    """Bruhat order of W^S from `weyl._orbit`'s output, by the lifting rule:
    down[k] has bit j set iff point j <= point k.

    For v != e let s be the first letter of v's word and v' = s*v.  Then
    [e, v] = [e, v'] ∪ {v} ∪ s*{y in [e, v'] : mu_y[s] > 0}: a zero coordinate
    means s*y is not in W^S, and a negative one that s*y < y is in [e, v'].
    """
    weights, words, _, _, lmul = orbit
    down = [1]
    for v in range(1, len(weights)):
        s = words[v][0] - 1
        row = lmul[s]
        below = down[row[v]]
        mask = below | 1 << v
        for y in iter_indices(below):
            if weights[y][s] > 0:
                mask |= 1 << row[y]
        down.append(mask)
    return down
