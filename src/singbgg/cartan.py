"""Cartan types and exact root-system data.

Simple roots follow the Bourbaki numbering, realized with exact rational
coordinates in the usual epsilon basis.  For B_n the short root is alpha_n,
for D_4 the branch node is alpha_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigurationError

RootVector = tuple[Fraction, ...]

_E_ORDERS = {6: 51840, 7: 2903040, 8: 696729600}


@dataclass(frozen=True)
class CartanType:
    """A simple Cartan type: family letter plus rank."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        fam, n = self.family, self.rank
        if fam not in ("A", "B", "C", "D", "E", "F", "G"):
            raise ConfigurationError(f"unknown family {fam!r}")
        if not isinstance(n, int) or n < 1:
            raise ConfigurationError(f"rank must be a positive integer, got {n!r}")
        if fam == "D" and n < 3:
            raise ConfigurationError("type D requires rank >= 3")
        if fam == "F" and n != 4:
            raise ConfigurationError("type F requires rank 4")
        if fam == "G" and n != 2:
            raise ConfigurationError("type G requires rank 2")
        if fam == "E" and n not in (6, 7, 8):
            raise ConfigurationError("type E requires rank 6, 7 or 8")

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

    def simple_root_vectors(self) -> list[RootVector]:
        """Simple roots in epsilon coordinates, Bourbaki order."""
        n = self.rank
        F = Fraction

        def e(i: int, dim: int) -> list[Fraction]:
            v = [F(0)] * dim
            v[i] = F(1)
            return v

        def diff(i: int, j: int, dim: int) -> RootVector:
            v = e(i, dim)
            v[j] -= 1
            return tuple(v)

        fam = self.family
        if fam == "A":
            return [diff(i, i + 1, n + 1) for i in range(n)]
        if fam in ("B", "C", "D"):
            roots = [diff(i, i + 1, n) for i in range(n - 1)]
            if fam == "B":
                roots.append(tuple(e(n - 1, n)))
            elif fam == "C":
                last = e(n - 1, n)
                last[n - 1] = F(2)
                roots.append(tuple(last))
            else:
                last = e(n - 2, n)
                last[n - 1] += 1
                roots.append(tuple(last))
            return roots
        if fam == "G":
            return [
                (F(1), F(-1), F(0)),
                (F(-2), F(1), F(1)),
            ]
        if fam == "F":
            h = F(1, 2)
            return [
                (F(0), F(1), F(-1), F(0)),
                (F(0), F(0), F(1), F(-1)),
                (F(0), F(0), F(0), F(1)),
                (h, -h, -h, -h),
            ]
        # E family, Bourbaki in R^8
        h = F(1, 2)
        alpha1 = (h, -h, -h, -h, -h, -h, -h, h)
        alpha2 = (F(1), F(1), F(0), F(0), F(0), F(0), F(0), F(0))
        rest = [diff(i, i - 1, 8) for i in range(1, 7)]  # alpha_{i+2} = e_i - e_{i-1}
        roots = [alpha1, alpha2] + rest
        return roots[:n]


def dot(u: RootVector, v: RootVector) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def reflect(beta: RootVector, alpha: RootVector) -> RootVector:
    """Image of beta under the reflection in the hyperplane orthogonal to alpha."""
    c = 2 * dot(beta, alpha) / dot(alpha, alpha)
    return tuple(b - c * a for a, b in zip(alpha, beta))


def positive_roots(cartan: CartanType) -> list[RootVector]:
    """All positive roots, simple roots first, rest in a fixed deterministic order.

    Roots are generated by closing the simple roots under the simple
    reflections; positivity is decided with a linear functional that is
    positive on every simple root.
    """
    simples = cartan.simple_root_vectors()
    phi = _positive_functional(simples)

    seen = set(simples)
    frontier = list(simples)
    while frontier:
        beta = frontier.pop()
        for alpha in simples:
            gamma = reflect(beta, alpha)
            if gamma not in seen:
                seen.add(gamma)
                frontier.append(gamma)

    pos = [r for r in seen if dot(phi, r) > 0]
    others = sorted(
        (r for r in pos if r not in set(simples)),
        key=lambda r: (dot(phi, r), r),
    )
    result = simples + others
    if len(result) != cartan.num_positive_roots:
        raise ConfigurationError(
            f"root closure for {cartan} produced {len(result)} positive roots, "
            f"expected {cartan.num_positive_roots}"
        )
    return result


def _positive_functional(simples: list[RootVector]) -> RootVector:
    """A vector phi in the span of the simples with <phi, alpha_i> = 1 for all i.

    Found by solving the Gram system exactly; every root then satisfies
    <phi, beta> > 0 iff beta is a nonnegative combination of simple roots.
    """
    k = len(simples)
    gram = [[dot(a, b) for b in simples] for a in simples]
    rhs = [Fraction(1)] * k
    coeffs = _solve(gram, rhs)
    dim = len(simples[0])
    phi = [Fraction(0)] * dim
    for c, alpha in zip(coeffs, simples):
        for i in range(dim):
            phi[i] += c * alpha[i]
    return tuple(phi)


def _solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over the rationals; the Gram matrix is invertible."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]
