"""The coefficient-table engine.

``coeff_table(D)`` computes the family of one-variable polynomials whose
generating series (see :mod:`kauffpoly.series`) is the regular-isotopy
Kauffman polynomial of the diagram.  The recursion runs on the
lexicographic pair (crossing count, warping degree):

* warping degree 0: entry ``n`` is the closed form
  ``y^w * (-1)^n * C(r-1, n) * (y + y^-1)^(r-n-1)``, with the writhe
  taken under the traversal orientation;
* otherwise, at a warping crossing ``p`` with splice component shifts
  ``sA = r(D_A) - r(D)`` and ``sB = r(D_B) - r(D)``::

      T[n](D) = -T[n](flip p) + T[n + sA - 1](A-splice) + T[n + sB - 1](B-splice)

  taking fresh canonical bases on every sub-diagram.

The canonical base depends only on the underlying projection, so the
flip branch reuses the same base and strictly drops the warping degree;
the splice branches strictly drop the crossing count.  Termination is
therefore unconditional, but the tree is exponential, so a node budget
converts runaway inputs into a clean error.

Before a diagram is looked up or expanded it is cut down to its cores
with two exact table laws:

* kink law: an R1 kink of sign ``s`` multiplies every entry by
  ``y^s``, so the kinks come off first and their signs are added up;
* disjoint-union law: ``L(D1 + D2) = d * L(D1) * L(D2)`` with
  ``d = z^-1 (y + y^-1) - 1``, which on tables reads
  ``T[n] = (y + y^-1) * (T1 * T2)[n] - (T1 * T2)[n - 1]`` (``*`` the
  convolution over ``n``); a free loop is the table ``{0: 1}``.

Only the connected, kink-free cores are cached, expanded and charged to
the budget; the caller's table is assembled from theirs.  A
caller-supplied base (``coeff_table_with_base``) still drives the top
level unsimplified.  The independent evaluator in
:mod:`kauffpoly.oracle` deliberately uses neither law.

All functions are pure; the optional cache maps the shape code of each
core (:meth:`kauffpoly.diagram.Diagram.shape_code`) to its finished
table and may be shared freely (results are identical with or without
it, which the test suite checks).  Keying on the shape code is sound
because each entry ``T[n]`` is a coefficient of the Kauffman polynomial,
a link invariant: two cores with one code are the same diagram up to
edge labels, crossing order and port numbering, so they have one
table.  A core that comes back under other labels is found, not
expanded again.  Without a cache no shape code is computed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import MutableMapping

from .diagram import Diagram, DiagramError
from .laurent import Y_PLUS_Y_INV, LaurentPoly, monotone_coeff
from .moves import kink_rule, kink_sites
from .warping import (
    BaseSequence,
    base_orientation,
    canonical_base,
    validate_base,
    warping_order,
)

logger = logging.getLogger(__name__)

#: Default cap on the number of recursion nodes.
DEFAULT_BUDGET = 10**8

#: Shape code of a connected core -> its table.
Cache = MutableMapping[tuple[int, ...], "CoeffTable"]


class BudgetExceededError(RuntimeError):
    """The recursion node budget ran out."""

    def __init__(self, d: Diagram, limit: int):
        self.crossings = d.c
        self.components = d.r
        self.limit = limit
        super().__init__(
            f"recursion budget of {limit} nodes exhausted while expanding a "
            f"diagram with {d.c} crossings and {d.r} components"
        )


class _Budget:
    __slots__ = ("remaining", "limit")

    def __init__(self, limit: int):
        self.remaining = limit
        self.limit = limit

    def spend(self, d: Diagram) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceededError(d, self.limit)


@dataclass(frozen=True)
class CoeffTable:
    """Finite map index -> nonzero polynomial; absent indices read as zero."""

    entries: tuple[tuple[int, LaurentPoly], ...]

    @classmethod
    def from_dict(cls, data: dict[int, LaurentPoly]) -> "CoeffTable":
        return cls(tuple(sorted((n, p) for n, p in data.items() if p)))

    def __getitem__(self, n: int) -> LaurentPoly:
        for k, p in self.entries:
            if k == n:
                return p
        return LaurentPoly.zero()

    def items(self):
        return iter(self.entries)

    def as_dict(self) -> dict[int, LaurentPoly]:
        return dict(self.entries)

    def support_bounds(self) -> tuple[int, int] | None:
        """(min index, max index) of the nonzero entries, or None if empty."""
        if not self.entries:
            return None
        return (self.entries[0][0], self.entries[-1][0])

    def shifted(self, k: int) -> "CoeffTable":
        """Reindex ``n -> n + k``."""
        return CoeffTable(tuple((n + k, p) for n, p in self.entries))

    def y_shifted(self, k: int) -> "CoeffTable":
        """Multiply every entry by ``y^k`` (the kink law, once per kink)."""
        return CoeffTable(tuple((n, p.shift(k)) for n, p in self.entries))

    def disjoint_union(self, other: "CoeffTable") -> "CoeffTable":
        """Table of the split diagram whose two parts have these tables:
        ``T[n] = (y + y^-1) * (T1 * T2)[n] - (T1 * T2)[n - 1]``."""
        conv: dict[int, LaurentPoly] = {}
        for n1, p1 in self.entries:
            for n2, p2 in other.entries:
                conv[n1 + n2] = conv.get(n1 + n2, LaurentPoly.zero()) + p1 * p2
        out: dict[int, LaurentPoly] = {}
        for n, p in conv.items():
            out[n] = out.get(n, LaurentPoly.zero()) + Y_PLUS_Y_INV * p
            out[n + 1] = out.get(n + 1, LaurentPoly.zero()) - p
        return CoeffTable.from_dict(out)

    def __neg__(self) -> "CoeffTable":
        return CoeffTable(tuple((n, -p) for n, p in self.entries))

    def __add__(self, other: "CoeffTable") -> "CoeffTable":
        acc = dict(self.entries)
        for n, p in other.entries:
            s = acc.get(n, LaurentPoly.zero()) + p
            if s:
                acc[n] = s
            else:
                acc.pop(n, None)
        return CoeffTable.from_dict(acc)

    def to_json_obj(self) -> dict[str, str]:
        return {str(n): str(p) for n, p in self.entries}

    def __str__(self) -> str:
        return "; ".join(f"{n}: {p}" for n, p in self.entries) or "(zero)"


def _monotone_table(d: Diagram, base: BaseSequence) -> CoeffTable:
    w = d.writhe(base_orientation(d, base))
    r = d.r
    return CoeffTable.from_dict({n: monotone_coeff(w, n, r) for n in range(r)})


def _expand(
    d: Diagram,
    base: BaseSequence,
    pick: int | None,
    budget: _Budget,
    cache: Cache | None,
) -> CoeffTable:
    warping = warping_order(d, base)
    if pick is not None and pick not in warping:
        raise DiagramError(f"crossing {pick} is not a warping crossing of this base")
    if not warping:
        return _monotone_table(d, base)
    p = warping[0] if pick is None else pick

    flipped = _table(d.crossing_change(p), budget, cache)
    da = d.splice(p, "A")
    db = d.splice(p, "B")
    shift_a = 1 - (da.r - d.r)
    shift_b = 1 - (db.r - d.r)
    ta = _table(da, budget, cache)
    tb = _table(db, budget, cache)
    return (-flipped) + ta.shifted(shift_a) + tb.shifted(shift_b)


_FREE_LOOP = CoeffTable.from_dict({0: LaurentPoly.one()})


def _cores(d: Diagram) -> tuple[int, int, tuple[Diagram, ...]]:
    """(sum of the kink signs, free loops split off, cores) once every
    R1 kink of ``d`` is removed; a diagram with at most one connected
    piece or free loop is its own single core."""
    kinks = 0
    while sites := kink_sites(d):
        sign, kind = kink_rule(d, sites[0])
        kinks += sign
        d = d.splice(sites[0][0], kind)
    if len(d.connected_pieces()) + d.free_loops <= 1:
        return kinks, 0, (d,)
    return kinks, d.free_loops, d.piece_diagrams()


def _core_table(d: Diagram, budget: _Budget, cache: Cache | None) -> CoeffTable:
    if cache is not None:
        key = d.shape_code()
        hit = cache.get(key)
        if hit is not None:
            return hit
    budget.spend(d)
    result = _expand(d, canonical_base(d), None, budget, cache)
    if cache is not None:
        cache[key] = result
    return result


def _table(d: Diagram, budget: _Budget, cache: Cache | None) -> CoeffTable:
    kinks, loops, cores = _cores(d)
    tables = [_core_table(core, budget, cache) for core in cores] + [_FREE_LOOP] * loops
    table = tables[0]
    for other in tables[1:]:
        table = table.disjoint_union(other)
    return table.y_shifted(kinks) if kinks else table


def coeff_table(
    d: Diagram,
    *,
    budget: int | None = None,
    cache: Cache | None = None,
) -> CoeffTable:
    """Coefficient table of a diagram under the canonical base.

    Parameters
    ----------
    d : Diagram
    budget : int, optional
        Cap on recursion nodes (default ``DEFAULT_BUDGET``); exceeding it
        raises :class:`BudgetExceededError`.
    cache : mutable mapping, optional
        Memo from the shape code of each core to its table, shared
        across calls at the caller's discretion.  Relabelled copies of a
        core share its entry, which is sound because the table is a link
        invariant.  Off by default.
    """
    return _table(d, _Budget(DEFAULT_BUDGET if budget is None else budget), cache)


def coeff_table_with_base(
    d: Diagram,
    base: BaseSequence,
    *,
    warping_crossing: int | None = None,
    budget: int | None = None,
    cache: Cache | None = None,
) -> CoeffTable:
    """Coefficient table seeded with a caller-supplied base sequence.

    The top-level monotone test, writhe, and warping-crossing choice use
    ``base``; sub-diagrams take fresh canonical bases.  Passing
    ``warping_crossing`` overrides the default earliest-first choice,
    which lets tests confirm that every choice yields the same table.
    """
    validate_base(d, base)
    b = _Budget(DEFAULT_BUDGET if budget is None else budget)
    b.spend(d)
    return _expand(d, base, warping_crossing, b, cache)


def skein_check(
    d: Diagram,
    p: int,
    *,
    budget: int | None = None,
    cache: Cache | None = None,
) -> bool:
    """Verify the four-term relation entrywise at crossing ``p``:
    the tables of the diagram and its flip sum to the shifted tables of
    the two splices."""
    d._check_crossing(p)
    b = DEFAULT_BUDGET if budget is None else budget
    lhs = coeff_table(d, budget=b, cache=cache) + coeff_table(
        d.crossing_change(p), budget=b, cache=cache
    )
    da = d.splice(p, "A")
    db = d.splice(p, "B")
    rhs = coeff_table(da, budget=b, cache=cache).shifted(1 - (da.r - d.r)) + coeff_table(
        db, budget=b, cache=cache
    ).shifted(1 - (db.r - d.r))
    if lhs != rhs:
        logger.warning(
            "four-term relation fails at crossing %d of %s: lhs=%s rhs=%s",
            p,
            d.to_pd(),
            lhs,
            rhs,
        )
        return False
    return True
