"""Assembling coefficient tables into the two-variable polynomials.

For a diagram ``D`` with ``r`` components the regular-isotopy polynomial
is the coefficient table (itself the polynomial ``sum_n T[n] z^n``) times
``z^(1-r)``:

    L_D(y, z) = z^(1-r) * sum_n  T[n](D; y) * z^n,

returned as a plain :class:`BivariatePoly`, so it prints as polynomial
text rather than as a table.  Its writhe normalization
``F_D(y, z) = y^(-w(D)) * L_D(y, z)`` is an ambient-isotopy invariant of
oriented links.  ``F`` takes an explicit orientation even for knots: the
writhe of a link depends on it, and a silent default hides convention
bugs.

The unlink factor ``d = z^-1 (y + y^-1) - 1`` multiplies ``L`` under
disjoint union, while connected sum is plainly multiplicative.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .coeffs import Cache, CoeffTable, _skein_terms, coeff_table
from .diagram import Diagram, EdgeRef, connected_sum, disjoint_union
from .laurent import BivariatePoly


def series_from_table(table: CoeffTable, r: int) -> BivariatePoly:
    """``z^(1-r) * table`` as a plain polynomial: entry ``n`` lands on
    ``z^(n + 1 - r)``."""
    shift = 1 - r
    return BivariatePoly._new({(a, n + shift): c for (a, n), c in table.items()})


def kauffman_L(d: Diagram, *, budget: int | None = None, cache: Cache | None = None) -> BivariatePoly:
    """Regular-isotopy Kauffman polynomial of an unoriented diagram."""
    return series_from_table(coeff_table(d, budget=budget, cache=cache), d.r)


def kauffman_F(
    d: Diagram,
    orientation: Sequence[int],
    *,
    budget: int | None = None,
    cache: Cache | None = None,
) -> BivariatePoly:
    """Writhe-normalized Kauffman polynomial ``y^(-w) * L`` of an
    oriented diagram."""
    w = d.writhe(orientation)
    return kauffman_L(d, budget=budget, cache=cache).shift_y(-w)


def unlink_factor() -> BivariatePoly:
    """The disjoint-union multiplier ``z^-1 * (y + y^-1) - 1``."""
    return BivariatePoly({(1, -1): 1, (-1, -1): 1, (0, 0): -1})


def check_L_skein(
    d: Diagram,
    p: int,
    *,
    budget: int | None = None,
    cache: Cache | None = None,
) -> bool:
    """The four-term relation at series level:
    ``L(D) + L(flip p) = z * (L(A-splice) + L(B-splice))``.

    Equivalent to the entrywise check only after the ``z^(1-r)``
    bookkeeping, so it exercises that bookkeeping independently.
    """
    return _series_skein_holds(_skein_terms(d, p, budget, cache))


def _series_skein_holds(terms: tuple[tuple[CoeffTable, int], ...]) -> bool:
    """The series-level relation on the terms of ``coeffs._skein_terms``,
    each term taken to ``L`` with its own component count."""
    own, flip, a, b = (series_from_table(t, r) for t, r in terms)
    return own + flip == (a + b).shift_z(1)


def check_product_laws(
    d: Diagram,
    d2: Diagram,
    *,
    budget: int | None = None,
    cache: Cache | None = None,
) -> bool:
    """Connected sums multiply L; disjoint unions pick up the unlink factor.

    Every pair of cut sites (all edges, plus a free loop when present)
    is tested.
    """
    left = kauffman_L(d, budget=budget, cache=cache)
    right = kauffman_L(d2, budget=budget, cache=cache)
    product = left * right

    if kauffman_L(disjoint_union(d, d2), budget=budget, cache=cache) != unlink_factor() * product:
        return False

    refs: list[EdgeRef] = list(d.edge_labels())
    refs2: list[EdgeRef] = list(d2.edge_labels())
    if d.free_loops:
        refs.append(None)
    if d2.free_loops:
        refs2.append(None)
    for e, e2 in itertools.product(refs, refs2):
        summed = connected_sum(d, d2, e, e2)
        if kauffman_L(summed, budget=budget, cache=cache) != product:
            return False
    return True
