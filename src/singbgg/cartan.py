"""Cartan types and integer root-system data.

Each type carries its Cartan matrix, read off the Dynkin diagram in the
Bourbaki numbering: for B_n the short root is alpha_n, for C_n the long root
is alpha_n, for D_4 the branch node is alpha_2, for G_2 alpha_1 is short and
for F_4 alpha_3, alpha_4 are short.  Roots are integer coefficient tuples in
the simple-root basis, where s_i(beta) = beta - <beta, alpha_i^vee> alpha_i
and a root is positive iff its coefficients are non-negative.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ConfigurationError

Root = tuple[int, ...]

_E_ORDERS = {6: 51840, 7: 2903040, 8: 696729600}


class CartanType(namedtuple("CartanType", "family rank")):
    """A simple Cartan type: family letter plus rank; immutable and hashable.

    Equal only to another CartanType, never to a plain tuple.
    """

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family not in ("A", "B", "C", "D", "E", "F", "G"):
            raise ConfigurationError(f"unknown family {family!r}")
        if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
            raise ConfigurationError(f"rank must be a positive integer, got {rank!r}")
        if family == "D" and rank < 3:
            raise ConfigurationError("type D requires rank >= 3")
        if family == "F" and rank != 4:
            raise ConfigurationError("type F requires rank 4")
        if family == "G" and rank != 2:
            raise ConfigurationError("type G requires rank 2")
        if family == "E" and rank not in (6, 7, 8):
            raise ConfigurationError("type E requires rank 6, 7 or 8")
        return super().__new__(cls, family, rank)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def group_order(self) -> int:
        """Order of the associated Weyl group (closed formula)."""
        n = self.rank
        if self.family == "A":
            return math.factorial(n + 1)
        if self.family in ("B", "C"):
            return (2**n) * math.factorial(n)
        if self.family == "D":
            return (2 ** (n - 1)) * math.factorial(n)
        if self.family == "F":
            return 1152
        if self.family == "G":
            return 12
        return _E_ORDERS[n]

    @property
    def num_positive_roots(self) -> int:
        n = self.rank
        counts = {
            "A": n * (n + 1) // 2,
            "B": n * n,
            "C": n * n,
            "D": n * (n - 1),
            "F": 24,
            "G": 6,
        }
        if self.family in counts:
            return counts[self.family]
        return {6: 36, 7: 63, 8: 120}[n]

    def cartan_matrix(self) -> list[list[int]]:
        """The Cartan matrix, ``a[i][j] = <alpha_j, alpha_i^vee>`` (0-based)."""
        n, fam = self.rank, self.family
        # Dynkin diagram bonds (i, j, m): a[i][j] = -m and a[j][i] = -1, so
        # alpha_i is the short root of a multiple bond.
        bonds = [(i, i + 1, 1) for i in range(n - 1)]
        if fam == "B" and n > 1:
            bonds[-1] = (n - 1, n - 2, 2)
        elif fam == "C" and n > 1:
            bonds[-1] = (n - 2, n - 1, 2)
        elif fam == "D":
            bonds[-1] = (n - 3, n - 1, 1)
        elif fam == "F":
            bonds[1] = (2, 1, 2)
        elif fam == "G":
            bonds = [(0, 1, 3)]
        elif fam == "E":
            bonds = [(0, 2, 1), (1, 3, 1)] + [(i, i + 1, 1) for i in range(2, n - 1)]
        a = [[2 * (i == j) for j in range(n)] for i in range(n)]
        for i, j, m in bonds:
            a[i][j], a[j][i] = -m, -1
        return a


def simple_reflection(a: list[list[int]], i: int, beta: Root) -> Root:
    """s_i(beta) = beta - <beta, alpha_i^vee> alpha_i, for the Cartan matrix a."""
    c = sum(b * x for b, x in zip(beta, a[i]))
    return beta[:i] + (beta[i] - c,) + beta[i + 1:]


def positive_roots(cartan: CartanType) -> list[Root]:
    """All positive roots as integer coefficient tuples in the simple-root basis.

    The simple roots come first, the rest sorted by (height, coefficients).
    They are the closure of the simple roots under the simple reflections,
    each s_i applied to every root but alpha_i, because s_i permutes the
    other positive roots.
    """
    a = cartan.cartan_matrix()
    n = cartan.rank
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        beta = frontier.pop()
        for i in range(n):
            if beta != simples[i]:
                gamma = simple_reflection(a, i, beta)
                if gamma not in seen:
                    seen.add(gamma)
                    frontier.append(gamma)
    result = simples + sorted(seen.difference(simples), key=lambda r: (sum(r), r))
    if len(result) != cartan.num_positive_roots:
        raise ConfigurationError(
            f"root closure for {cartan} produced {len(result)} positive roots, "
            f"expected {cartan.num_positive_roots}"
        )
    return result
