"""Kauffman polynomial of link diagrams via exact skein coefficient tables.

The package computes, for an unoriented link diagram, the family of
integer Laurent polynomials whose generating series is the
regular-isotopy Kauffman polynomial ``L_D(y, z)``, together with the
ambient-isotopy normalization ``F_D = y^(-w) L_D``.  The computation is
an induction on (crossing count, warping degree) driven by base points
and the first-encounter rule, and it is cross-checked against an
independent whole-polynomial skein evaluator.
"""

from .laurent import BivariatePoly, LaurentPoly, monotone_coeff
from .diagram import Diagram, DiagramError, PDSyntaxError, connected_sum, parse_pd
from .warping import canonical_base, enumerate_bases, warping_degree
from .coeffs import BudgetExceededError, coeff_table, coeff_table_with_base
from .series import (
    check_L_skein,
    check_product_laws,
    kauffman_F,
    kauffman_L,
    series_from_table,
    unlink_factor,
)
from .oracle import oracle_L, uniqueness_check
from .moves import MoveSiteError, r1_add, random_diagram, random_move_walk, replay
from .catalog import CATALOG

__version__ = "0.1.0"

__all__ = [
    "BivariatePoly",
    "LaurentPoly",
    "monotone_coeff",
    "Diagram",
    "DiagramError",
    "PDSyntaxError",
    "connected_sum",
    "parse_pd",
    "canonical_base",
    "enumerate_bases",
    "warping_degree",
    "BudgetExceededError",
    "coeff_table",
    "coeff_table_with_base",
    "check_L_skein",
    "check_product_laws",
    "kauffman_F",
    "kauffman_L",
    "series_from_table",
    "unlink_factor",
    "oracle_L",
    "uniqueness_check",
    "MoveSiteError",
    "r1_add",
    "random_diagram",
    "random_move_walk",
    "replay",
    "CATALOG",
]
