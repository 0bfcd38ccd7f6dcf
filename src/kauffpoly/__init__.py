"""Kauffman polynomial of link diagrams via exact skein coefficient tables.

The package computes, for an unoriented link diagram, the family of
integer Laurent polynomials whose generating series is the
regular-isotopy Kauffman polynomial ``L_D(y, z)``, together with the
ambient-isotopy normalization ``F_D = y^(-w) L_D``.  The computation is
an induction on (crossing count, warping degree) driven by base points
and the first-encounter rule, and it is cross-checked against an
independent whole-polynomial skein evaluator.
"""

from .laurent import BivariatePoly, LaurentPoly, Y_PLUS_Y_INV, monotone_coeff
from .diagram import (
    Crossing,
    Diagram,
    DiagramError,
    PDSyntaxError,
    connected_sum,
    disjoint_union,
    parse_pd,
)
from .warping import (
    BaseEntry,
    BaseSequence,
    base_orientation,
    canonical_base,
    enumerate_bases,
    first_encounter,
    induced_writhe,
    is_monotone,
    validate_base,
    warping_degree,
    warping_order,
)
from .coeffs import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CoeffTable,
    coeff_table,
    coeff_table_with_base,
    skein_check,
)
from .series import (
    check_L_skein,
    check_product_laws,
    kauffman_F,
    kauffman_L,
    series_from_table,
    unlink_factor,
)
from .oracle import agree_at_y_one, oracle_L, oracle_L_with_base, uniqueness_check
from .moves import (
    MoveSiteError,
    MoveStep,
    MoveTrace,
    apply_step,
    bigon_sites,
    cofacial_dart_pairs,
    kink_sign,
    kink_sites,
    r1_add,
    r1_remove,
    r2_add,
    r2_add_at,
    r2_remove,
    r3_apply,
    r3_sites,
    random_diagram,
    random_move_walk,
    replay,
)
from .catalog import CATALOG, CatalogEntry

__version__ = "0.1.0"

__all__ = [
    "BivariatePoly",
    "LaurentPoly",
    "Y_PLUS_Y_INV",
    "monotone_coeff",
    "Crossing",
    "Diagram",
    "DiagramError",
    "PDSyntaxError",
    "connected_sum",
    "disjoint_union",
    "parse_pd",
    "BaseEntry",
    "BaseSequence",
    "base_orientation",
    "canonical_base",
    "enumerate_bases",
    "first_encounter",
    "induced_writhe",
    "is_monotone",
    "validate_base",
    "warping_degree",
    "warping_order",
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "CoeffTable",
    "coeff_table",
    "coeff_table_with_base",
    "skein_check",
    "check_L_skein",
    "check_product_laws",
    "kauffman_F",
    "kauffman_L",
    "series_from_table",
    "unlink_factor",
    "agree_at_y_one",
    "oracle_L",
    "oracle_L_with_base",
    "uniqueness_check",
    "MoveSiteError",
    "MoveStep",
    "MoveTrace",
    "apply_step",
    "bigon_sites",
    "cofacial_dart_pairs",
    "kink_sign",
    "kink_sites",
    "r1_add",
    "r1_remove",
    "r2_add",
    "r2_add_at",
    "r2_remove",
    "r3_apply",
    "r3_sites",
    "random_diagram",
    "random_move_walk",
    "replay",
    "CATALOG",
    "CatalogEntry",
]
