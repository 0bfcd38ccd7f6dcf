"""Per-diagram verification suites backing ``kauffpoly verify``.

Each check is a named boolean; a diagram report collects them together
with the basic counts.  The catalog suite additionally runs the product
laws across diagram pairs.  Everything here is deterministic: sampling
uses fixed seeds.

``verify_diagram`` asks the engine each question once, and every check
that needs the answer reads it:

* the diagram's own table, from one ``coeff_table`` call, is what the
  PD round trip, the support bounds, both skein checks and both
  independence checks compare against, and it gives ``L`` (and, with
  the writhe, ``F``) for ``kink_scaling``, ``mirror_symmetry`` and both
  oracle checks;
* ``oracle_L`` runs once, and ``oracle_equality`` and
  ``oracle_equality_at_y1`` compare its value with that ``L``, exactly
  and after ``y -> 1``;
* at each crossing the flip and the two splices are built and looked up
  once (``coeffs._skein_terms``); ``skein_coefficients`` compares those
  tables entrywise and ``skein_series`` compares their series, each term
  with its own ``z^(1-r)``;
* a base with a warping crossing is expanded at its first one, and that
  table depends on the crossing alone, so ``base_independence`` and
  ``warping_choice_independence`` share one expansion per crossing.
  Every base, a plain tuple of ``BaseEntry`` values, is still validated
  and walked to find that crossing, and a base with none is always
  computed, since its closed form reads the writhe under that base's
  orientation.
"""

from __future__ import annotations

import itertools
import math
import random

from .catalog import CATALOG
from .coeffs import (
    Cache,
    CoeffTable,
    _skein_holds,
    _skein_terms,
    coeff_table,
    coeff_table_with_base,
)
from .diagram import Diagram, DiagramError, parse_pd
from .laurent import BivariatePoly
from .moves import r1_add
from .oracle import OracleCache, oracle_L
from .series import (
    _series_skein_holds,
    check_product_laws,
    kauffman_F,
    kauffman_L,
    series_from_table,
)
from .warping import (
    BaseSequence,
    _base_choices,
    canonical_base,
    is_monotone,
    induced_writhe,
    warping_degree,
    warping_order,
)

#: Full base enumeration is attempted up to this many crossings.
FULL_BASE_LIMIT_C = 5
#: And up to this many base sequences; larger diagrams get a seeded sample.
BASE_SAMPLE = 16
#: Catalog entries whose pairs the catalog suite checks the product laws on.
PRODUCT_PARTNERS = ("kink_pos", "kink_neg", "hopf", "trefoil")


def check_tag(
    d: Diagram, tag: str, *, budget: int | None = None, cache: Cache | None = None
) -> bool:
    """Evaluate one catalog property tag."""
    if tag.startswith("r="):
        return d.r == int(tag[2:])
    if tag.startswith("c="):
        return d.c == int(tag[2:])
    if tag.startswith("writhe="):
        return induced_writhe(d, canonical_base(d)) == int(tag[7:])
    if tag == "monotone":
        return is_monotone(d, canonical_base(d))
    if tag == "amphichiral":
        f = kauffman_F(d, (1,) * d.r, budget=budget, cache=cache)
        return f == f.subst_y_inverse()
    raise ValueError(f"unknown catalog tag {tag!r}")


def _bases_to_try(d: Diagram) -> list[BaseSequence]:
    """Every base of a small diagram, else a seeded sample of them; each is
    built from its index in the order of ``enumerate_bases``."""
    choices = _base_choices(d)
    count = math.prod(map(len, choices))
    picks = range(count)
    if d.c > FULL_BASE_LIMIT_C and count > BASE_SAMPLE:
        picks = random.Random("bases:" + d.to_pd()).sample(picks, BASE_SAMPLE)
    bases = []
    for i in picks:
        entries = []
        for options in reversed(choices):  # the last component varies fastest
            i, k = divmod(i, len(options))
            entries.append(options[k])
        bases.append(tuple(reversed(entries)))
    return bases


def verify_diagram(
    d: Diagram,
    *,
    name: str | None = None,
    tags: tuple[str, ...] = (),
    budget: int | None = None,
    cache: Cache | None = None,
    oracle_cache: OracleCache | None = None,
) -> dict:
    """Run the full single-diagram check suite and return a report; its
    checks share one memo per pipeline unless the caller passes them."""
    cache = {} if cache is None else cache
    oracle_cache = {} if oracle_cache is None else oracle_cache
    checks: dict[str, bool] = {}
    table = coeff_table(d, budget=budget, cache=cache)

    checks["planar_rotation_system"] = d.is_planar()
    checks["pd_roundtrip"] = _pd_roundtrip_ok(d, table, budget, cache)

    bounds = table.support_bounds()
    checks["support_lower_bound"] = bounds is None or bounds[0] >= 0
    checks["support_upper_bound"] = bounds is None or bounds[1] <= d.c + d.r - 1

    terms = [_skein_terms(d, p, budget, cache, table) for p in range(d.c)]
    checks["skein_coefficients"] = all(_skein_holds(d, p, t) for p, t in enumerate(terms))
    checks["skein_series"] = all(map(_series_skein_holds, terms))

    # A base with a warping crossing expands d at its first one (or at
    # the one picked), and that table depends on the crossing alone.
    expanded: dict[int, CoeffTable] = {}

    def expanded_at(base, p: int) -> CoeffTable:
        if p not in expanded:
            expanded[p] = coeff_table_with_base(
                d, base, warping_crossing=p, budget=budget, cache=cache
            )
        return expanded[p]

    def with_base(base) -> CoeffTable:
        order = warping_order(d, base)  # validates and walks every base
        if order:
            return expanded_at(base, order[0])
        return coeff_table_with_base(d, base, budget=budget, cache=cache)

    checks["base_independence"] = all(with_base(b) == table for b in _bases_to_try(d))
    base = canonical_base(d)
    checks["warping_choice_independence"] = all(
        expanded_at(base, p) == table for p in warping_order(d, base)
    )

    kauffman = series_from_table(table, d.r)  # L of d
    oracle = oracle_L(d, budget=budget, cache=oracle_cache)
    checks["oracle_equality"] = kauffman == oracle
    checks["oracle_equality_at_y1"] = kauffman.subst_y_one() == oracle.subst_y_one()

    f = kauffman.shift_y(-d.writhe((1,) * d.r))
    f_mirror = kauffman_F(d.mirror(), (1,) * d.r, budget=budget, cache=cache)
    checks["mirror_symmetry"] = f_mirror == f.subst_y_inverse()

    checks["kink_scaling"] = _kink_scaling_ok(d, kauffman, budget, cache)

    for tag in tags:
        checks[f"tag:{tag}"] = check_tag(d, tag, budget=budget, cache=cache)

    return {
        "name": name or d.to_pd(),
        "pd": d.to_pd(),
        "c": d.c,
        "r": d.r,
        "warping_degree": warping_degree(d, base),
        "checks": checks,
        "ok": all(checks.values()),
    }


def _pd_roundtrip_ok(d: Diagram, table: CoeffTable, budget, cache) -> bool:
    """``d``'s PD text parses back to the same text and ``d``'s table."""
    try:
        reparsed = parse_pd(d.to_pd())
    except DiagramError:  # PD text cannot carry a non-planar diagram
        return False
    return (
        reparsed.to_pd() == d.to_pd()
        and coeff_table(reparsed, budget=budget, cache=cache) == table
    )


def _kink_scaling_ok(d: Diagram, base: BivariatePoly, budget, cache) -> bool:
    """Adding a kink of either sign to ``d``, whose ``L`` is ``base``,
    scales ``L`` by ``y`` to the kink's sign."""
    site = d.edge_labels()[0] if d.edge_labels() else None
    for chirality, shift in (("+", 1), ("-", -1)):
        kinked = r1_add(d, site, chirality)
        if kauffman_L(kinked, budget=budget, cache=cache) != base.shift_y(shift):
            return False
    return True


def verify_catalog(
    *,
    budget: int | None = None,
    cache: Cache | None = None,
    oracle_cache: OracleCache | None = None,
) -> tuple[bool, list[dict]]:
    """Verify every catalog entry, then the product laws across pairs."""
    cache = {} if cache is None else cache
    oracle_cache = {} if oracle_cache is None else oracle_cache
    reports = [
        verify_diagram(
            entry.diagram(),
            name=entry.name,
            tags=entry.known_properties,
            budget=budget,
            cache=cache,
            oracle_cache=oracle_cache,
        )
        for entry in CATALOG.values()
    ]

    product_ok = True
    pair_checks: dict[str, bool] = {}
    for n1, n2 in itertools.combinations_with_replacement(PRODUCT_PARTNERS, 2):
        ok = check_product_laws(
            CATALOG[n1].diagram(), CATALOG[n2].diagram(), budget=budget, cache=cache
        )
        pair_checks[f"product_laws:{n1},{n2}"] = ok
        product_ok = product_ok and ok
    reports.append(
        {
            "name": "catalog-pairs",
            "checks": pair_checks,
            "ok": product_ok,
        }
    )
    return all(rep["ok"] for rep in reports), reports
