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

Each ``oracle_L`` call carries one run object down the recursion: its
node budget, its memo and the powers of ``d`` its leaves share.  The
memo maps each labelled diagram to its value, so a call expands each
diagram it meets once; a caller may pass its own memo as ``cache`` to
share it across calls.  It is keyed by the diagram itself, not by the
table engine's shape code, so that this path stays separate.  A leaf
builds ``d^k`` once, when it first needs it, and then only shifts it by
``y^w``.  The recursion itself, its base choice and its freedom from
the kink, bigon and disjoint-union laws do not depend on either.

The diagram and warping plumbing is shared with the rest of the package:
duplicating it would add risk without adding independence where it
matters.  Like the table engine, each node reads the warping crossings,
``r`` and the writhe from the projection's canonical walk
(:class:`kauffpoly.diagram.Diagram`), and builds no base object; only a
base passed to :func:`oracle_L_with_base` is validated and walked.
"""

from __future__ import annotations

from typing import MutableMapping

from .coeffs import _Run
from .diagram import Diagram
from .laurent import BivariatePoly
from .series import kauffman_L, unlink_factor
from .warping import BaseSequence, _warping, base_orientation, first_encounter, validate_base

OracleCache = MutableMapping[Diagram, BivariatePoly]


class _OracleRun(_Run):
    """One ``oracle_L`` call: a run that also keeps the powers of ``d``
    its leaves share."""

    __slots__ = ("d_powers",)

    def __init__(self, top: Diagram, budget: int | None, memo: OracleCache | None):
        super().__init__(top, budget, memo)
        self.d_powers = [BivariatePoly.one()]

    def d_power(self, k: int) -> BivariatePoly:
        powers = self.d_powers
        while len(powers) <= k:
            powers.append(powers[-1] * unlink_factor())
        return powers[k]


def _oracle_step(
    d: Diagram,
    encounters: tuple[tuple[int, int], ...],
    orientation: tuple[int, ...],
    run: _OracleRun,
) -> BivariatePoly:
    """One node under a traversal: its first-encounter order and the
    component directions it induces."""
    warping = _warping(d, encounters)
    if not warping:
        return run.d_power(d.r - 1).shift_y(d.writhe(orientation))
    p = warping[0]
    return (
        -_oracle(d.crossing_change(p), run)
        + (_oracle(d.splice(p, "A"), run) + _oracle(d.splice(p, "B"), run)).shift_z(1)
    )


def _oracle(d: Diagram, run: _OracleRun) -> BivariatePoly:
    value = run.memo.get(d)
    if value is None:
        run.spend(d)
        walk = d._proj.walk
        value = run.memo[d] = _oracle_step(d, walk.encounters, (1,) * walk.r, run)
    return value


def oracle_L(
    d: Diagram,
    *,
    budget: int | None = None,
    cache: OracleCache | None = None,
) -> BivariatePoly:
    """Regular-isotopy Kauffman polynomial by whole-polynomial recursion."""
    return _oracle(d, _OracleRun(d, budget, cache))


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
    run = _OracleRun(d, budget, cache)
    run.spend(d)
    return _oracle_step(d, first_encounter(d, base), base_orientation(d, base), run)


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
