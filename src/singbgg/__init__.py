"""Exact combinatorics of singular BGG complexes in category O.

Weyl groups as exact integer weight orbits, Bruhat order, parabolic coset
data, Kazhdan-Lusztig polynomials and their singular variants, block Möbius
functions, and the combinatorial exactness test for singular BGG complexes.
"""

from .bruhat import (
    CoverGraph,
    cover_graph,
    interval,
    leq,
    lower_covers,
    upper_covers,
)
from .cartan import CartanType, positive_roots
from .complexes import (
    ComplexSkeleton,
    SkeletonEdge,
    assign_signs,
    cut_equalities,
    dominant_support,
    is_kostant,
    klv_dominant,
    klv_polynomial,
    nonkostant_block,
    regular_skeleton,
    s_category_has_bgg,
    singular_skeleton,
    translate_skeleton,
)
from .errors import (
    BudgetError,
    ConfigurationError,
    DomainError,
    InputError,
    SingBggError,
)
from .klpoly import (
    IntPolynomial,
    KLTable,
    kl_table,
    load_table,
    mu_coefficient,
    save_table,
)
from .mobius import GradedSupport, mobius_lambda, support_X
from .parabolic import (
    SingularBlock,
    complementary_singularity,
    coset_extremum,
    hat_map,
    kostant_decompose,
    make_block,
    partition_pairs,
    singularity_from_weight,
)
from .weyl import Element, WeylGroup, build_group

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CartanType",
    "ComplexSkeleton",
    "ConfigurationError",
    "CoverGraph",
    "DomainError",
    "Element",
    "GradedSupport",
    "InputError",
    "IntPolynomial",
    "KLTable",
    "SingBggError",
    "SingularBlock",
    "SkeletonEdge",
    "WeylGroup",
    "assign_signs",
    "build_group",
    "complementary_singularity",
    "coset_extremum",
    "cover_graph",
    "cut_equalities",
    "dominant_support",
    "hat_map",
    "interval",
    "is_kostant",
    "kl_table",
    "klv_dominant",
    "klv_polynomial",
    "kostant_decompose",
    "leq",
    "load_table",
    "lower_covers",
    "make_block",
    "mobius_lambda",
    "mu_coefficient",
    "nonkostant_block",
    "partition_pairs",
    "positive_roots",
    "regular_skeleton",
    "s_category_has_bgg",
    "save_table",
    "singular_skeleton",
    "singularity_from_weight",
    "support_X",
    "translate_skeleton",
    "upper_covers",
]
