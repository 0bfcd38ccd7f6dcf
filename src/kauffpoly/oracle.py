"""An independent brute-force evaluator of the Kauffman polynomial.

``oracle_L`` runs the skein recursion on whole two-variable polynomials:
a warping-degree-0 diagram is worth ``y^w * d^(r-1)`` with
``d = z^-1 (y + y^-1) - 1``, and otherwise

    L(D) = -L(flip p) + z * L(A-splice) + z * L(B-splice)

at a warping crossing ``p``.  No coefficient index ever shifts here, so
the computation is independent of the table engine's reindexing
machinery, which is exactly the part most likely to harbor bugs.  Both
pipelines satisfy the same skein axioms and normalization, so they must
agree on every diagram; ``uniqueness_check`` asserts that equality.

Leaves share their powers of ``d``: each ``oracle_L`` call builds
``d^k`` once, when a leaf first needs it, and keeps the powers on the
object it passes down the recursion with the node budget.  A leaf then
only shifts its power of ``d`` by ``y^w``.  The recursion itself, its
base choice and its freedom from the kink and disjoint-union laws do
not depend on this.

The diagram and warping plumbing is shared with the rest of the package:
duplicating it would add risk without adding independence where it
matters.
"""

from __future__ import annotations

from typing import MutableMapping

from .coeffs import DEFAULT_BUDGET, _Budget
from .diagram import Diagram
from .laurent import BivariatePoly
from .series import kauffman_L, unlink_factor
from .warping import (
    BaseSequence,
    base_orientation,
    canonical_base,
    validate_base,
    warping_order,
)

OracleCache = MutableMapping[Diagram, BivariatePoly]


class _OracleRun(_Budget):
    """One ``oracle_L`` call: its node budget and the powers of ``d``
    that its leaves share."""

    __slots__ = ("d_powers",)

    def __init__(self, limit: int):
        super().__init__(limit)
        self.d_powers = [BivariatePoly.one()]

    def d_power(self, k: int) -> BivariatePoly:
        powers = self.d_powers
        while len(powers) <= k:
            powers.append(powers[-1] * unlink_factor())
        return powers[k]


def _oracle_step(
    d: Diagram, base: BaseSequence, budget: _OracleRun, cache: OracleCache | None
) -> BivariatePoly:
    warping = warping_order(d, base)
    if not warping:
        w = d.writhe(base_orientation(d, base))
        return budget.d_power(d.r - 1).shift_y(w)
    p = warping[0]
    return (
        -_oracle(d.crossing_change(p), budget, cache)
        + (
            _oracle(d.splice(p, "A"), budget, cache)
            + _oracle(d.splice(p, "B"), budget, cache)
        ).shift_z(1)
    )


def _oracle(d: Diagram, budget: _OracleRun, cache: OracleCache | None) -> BivariatePoly:
    if cache is not None:
        hit = cache.get(d)
        if hit is not None:
            return hit
    budget.spend(d)
    value = _oracle_step(d, canonical_base(d), budget, cache)
    if cache is not None:
        cache[d] = value
    return value


def oracle_L(
    d: Diagram,
    *,
    budget: int | None = None,
    cache: OracleCache | None = None,
) -> BivariatePoly:
    """Regular-isotopy Kauffman polynomial by whole-polynomial recursion."""
    return _oracle(d, _OracleRun(DEFAULT_BUDGET if budget is None else budget), cache)


def oracle_L_with_base(
    d: Diagram,
    base: BaseSequence,
    *,
    budget: int | None = None,
    cache: OracleCache | None = None,
) -> BivariatePoly:
    """Oracle value with the top-level monotone test and warping choice
    driven by a caller-supplied base; must equal :func:`oracle_L`."""
    validate_base(d, base)
    b = _OracleRun(DEFAULT_BUDGET if budget is None else budget)
    b.spend(d)
    return _oracle_step(d, base, b, cache)


def uniqueness_check(
    d: Diagram,
    *,
    budget: int | None = None,
    cache: OracleCache | None = None,
    table_cache=None,
) -> bool:
    """Both pipelines compute the same polynomial, exactly."""
    return kauffman_L(d, budget=budget, cache=table_cache) == oracle_L(
        d, budget=budget, cache=cache
    )


def agree_at_y_one(
    d: Diagram,
    *,
    budget: int | None = None,
    cache: OracleCache | None = None,
    table_cache=None,
) -> bool:
    """Spot check of the two pipelines after collapsing ``y -> 1``."""
    lhs = kauffman_L(d, budget=budget, cache=table_cache).subst_y_one()
    rhs = oracle_L(d, budget=budget, cache=cache).subst_y_one()
    return lhs == rhs
