"""The coefficient-table engine.

``coeff_table(D)`` computes the family of one-variable polynomials whose
generating series (see :mod:`kauffpoly.series`) is the regular-isotopy
Kauffman polynomial of the diagram.  The table is itself a polynomial:
a :class:`CoeffTable` is the :class:`~kauffpoly.laurent.BivariatePoly`
``sum_n T[n] z^n``, so ``L_D = z^(1-r) * T`` and every law below is
polynomial arithmetic.  The recursion runs on the lexicographic pair
(crossing count, warping degree):

* warping degree 0: entry ``n`` is the closed form
  ``y^w * (-1)^n * C(r-1, n) * (y + y^-1)^(r-n-1)``, with the writhe
  taken under the traversal orientation;
* otherwise, at a warping crossing ``p`` with splice component shifts
  ``sA = r(D_A) - r(D)`` and ``sB = r(D_B) - r(D)`` (``Diagram.delta_shift``)::

      T(D) = -T(flip p) + z^(1 - sA) T(A-splice) + z^(1 - sB) T(B-splice)

  that is ``T[n](D) = -T[n](flip p) + T[n + sA - 1](A-splice) +
  T[n + sB - 1](B-splice)``, taking fresh canonical bases on every
  sub-diagram.

The canonical base depends only on the underlying projection, so the
flip branch reuses the same base and strictly drops the warping degree;
the splice branches strictly drop the crossing count.  Termination is
therefore unconditional, but the tree is exponential, so a node budget
converts runaway inputs into a clean error.

Before a diagram is looked up or expanded it is cut down to its cores
with four exact table laws:

* kink law: an R1 kink of sign ``s`` multiplies the table by ``y^s``,
  so the kinks come off and their signs are added up;
* bigon law: erasing a removable R2 bigon leaves the table unchanged.
  ``L`` is an invariant of regular isotopy (Kauffman, "An invariant of
  regular isotopy", Trans. AMS 318, 1990), so R2 does not change it, and
  R2 keeps the component count ``r``, so neither does
  ``T = z^(r-1) L``;
* connected-sum law: ``L(D1 # D2) = L(D1) * L(D2)``, since a (1,1)-tangle
  is a scalar times the trivial arc in the Kauffman skein (Lickorish,
  *An Introduction to Knot Theory*, GTM 175, ch. 15).  A cut is two
  edges that bound the same two faces; cutting both and joining each
  side's two ends splits one component in two, so ``r = r1 + r2 - 1``
  and on tables ``T = T1 * T2``.  A side of one crossing would close
  into a kink, so a kink-free cut needs four crossings;
* disjoint-union law: ``L(D1 + D2) = d * L(D1) * L(D2)`` with
  ``d = z^-1 (y + y^-1 - z)``, which on tables reads
  ``T = T1 * T2 * (y + y^-1 - z)``; a free loop is the table ``1``.

Kinks come off while there are any; then one bigon is erased, or else
one cut is split, and the steps repeat until none applies.  Only the
prime cores, connected and with no kink, no removable bigon and no
cut, are cached, expanded and charged to the budget; the caller's
table is assembled from theirs.  A caller-supplied base
(``coeff_table_with_base``) still drives the top level unsimplified.
The independent evaluator in :mod:`kauffpoly.oracle` deliberately uses
none of the four laws.

A node is the oracle's ``diagram._State``; no ``Diagram`` is built
below the top of a call.  Every lookup runs on a port state
(``diagram._PortState``) of a node or of its flip, which shares its
arrays and walk: the splices, kink removals, bigon erasures, cuts, the
split into pieces and the shape codes are edits and scans of one flat
port array, checked as the constructor checks a diagram before any code
is looked up.  A core the memo misses is cut out as a renumbered node,
checked again before its walk is built; the splice shifts and a leaf's
writhe come off that walk, as in ``Diagram.delta_shift`` and ``writhe``.

All functions are pure.  Every call memoises: the memo maps the shape
code of each core (:meth:`kauffpoly.diagram.Diagram.shape_code`) to its
finished table, so a call expands each distinct prime core once and
the budget counts distinct prime cores.  A caller may pass its own memo as
``cache`` to share it across calls; otherwise the call makes a fresh
one.  Keying on the shape code is sound because each entry ``T[n]`` is
a coefficient of the Kauffman polynomial, a link invariant: two cores
with one code are the same diagram up to edge labels, crossing order
and port numbering, so they have one table.  A core that comes back
under other labels is found, not expanded again, and a composite is
answered from its summands' entries wherever it was cut.

A hit is usually found from one start's code.  The least code is the
least breadth-first code over all starts, but the code from any one
start already describes the core completely; so a core of at most
``_PROBE_MAX`` crossings first takes the code from its lowest crossing
and, if that code is a key, that key names this very core.  Only when it
is not is the search over all starts run.  Keys, stores, the budget
and every node count are as they would be without this first try.
"""

from __future__ import annotations

import logging
from typing import Mapping, MutableMapping

from .diagram import Diagram, DiagramError, _PortState, _splice_shift, _State, _writhe
from .laurent import BivariatePoly, LaurentPoly, monotone_coeff
from .moves import kink_rule
from .warping import BaseSequence, _base_walk, _warping

logger = logging.getLogger(__name__)

#: Default cap on the number of recursion nodes.
DEFAULT_BUDGET = 10**8

#: Shape code of a connected core -> its table.
Cache = MutableMapping[tuple[int, ...], "CoeffTable"]


class BudgetExceededError(RuntimeError):
    """The recursion node budget ran out.

    ``crossings`` and ``components`` describe the diagram the caller
    asked about; ``at_crossings`` and ``at_components`` the node whose
    expansion the budget could no longer pay for: the caller's diagram
    at the top, else a node (``diagram._State``), which has the same
    ``c`` and ``r``.
    """

    def __init__(self, d: Diagram, limit: int, at):
        self.crossings = d.c
        self.components = d.r
        self.at_crossings = at.c
        self.at_components = at.r
        self.limit = limit
        super().__init__(
            f"recursion budget of {limit} nodes exhausted on a diagram with "
            f"{d.c} crossings and {d.r} components; it ran out at a node with "
            f"{at.c} crossings and {at.r} components"
        )


class _Run:
    """One call of a recursion, this engine's or the oracle's: the
    diagram it was asked about, the nodes it may still expand, and its
    memo of finished results."""

    __slots__ = ("top", "limit", "remaining", "memo")

    def __init__(self, top: Diagram, budget: int | None, memo: MutableMapping | None):
        self.top = top
        self.limit = DEFAULT_BUDGET if budget is None else budget
        self.remaining = self.limit
        self.memo = {} if memo is None else memo

    def spend(self, d) -> None:
        """Pay for expanding the node ``d``, which has a ``c`` and an ``r``."""
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceededError(self.top, self.limit, d)


class CoeffTable(BivariatePoly):
    """A coefficient table as the polynomial ``sum_n T[n] z^n``: entry
    ``n`` is the ``z^n`` coefficient, and absent indices read as zero.

    All arithmetic is :class:`BivariatePoly`'s and keeps this type; the
    class adds only the table views and the ``"n: poly; ..."`` text.
    """

    __slots__ = ()

    @classmethod
    def from_dict(cls, data: Mapping[int, LaurentPoly]) -> "CoeffTable":
        return cls({(a, n): c for n, p in data.items() for a, c in p.items()})

    __getitem__ = BivariatePoly.z_coefficient
    #: Indexing never runs out of entries, so a table is not iterable.
    __iter__ = None

    def support_bounds(self) -> tuple[int, int] | None:
        """(min index, max index) of the nonzero entries, or None if empty."""
        ns = self.z_support()
        return (ns[0], ns[-1]) if ns else None

    def to_json_obj(self) -> dict[str, str]:
        return {str(n): str(self[n]) for n in self.z_support()}

    def __str__(self) -> str:
        return "; ".join(f"{n}: {self[n]}" for n in self.z_support()) or "(zero)"


def _expand(
    node: _State,
    encounters: tuple[tuple[int, int], ...],
    orientation: tuple[int, ...],
    pick: int | None,
    run: _Run,
) -> CoeffTable:
    """One node under a traversal: its first-encounter order and the
    component directions it induces.  The flip, which shares the node's
    arrays and walk, and the two splices are looked up on port states,
    in that order."""
    warping = _warping(node.crossings, encounters)
    if pick is not None and (type(pick) is not int or pick not in warping):
        # a bool or a float equal to a warping crossing is not one
        raise DiagramError(f"crossing {pick!r} is not a warping crossing of this base")
    walk = node.walk
    if not warping:
        w = _writhe(node.crossings, walk, orientation)
        r = walk.r
        return CoeffTable.from_dict({n: monotone_coeff(w, n, r) for n in range(r)})
    p = warping[0] if pick is None else pick

    table = -_table(_PortState(node.flip(p)), run)
    for kind in "AB":
        spliced = _PortState(node)
        spliced.splice(p, kind)
        table = table + _table(spliced, run).shift_z(1 - _splice_shift(walk, p, kind))
    return table


_FREE_LOOP = CoeffTable.one()

#: ``z * d = y + y^-1 - z``: the disjoint-union law on tables.
_SPLIT_FACTOR = BivariatePoly({(1, 0): 1, (-1, 0): 1, (0, 1): -1})


def _cores(s: _PortState) -> tuple[int, int, int, list[tuple[tuple[int, ...], int]]]:
    """(sum of the kink signs, free loops split off, connected-sum cuts
    split, cores) once every R1 kink, removable R2 bigon and cut of ``s``
    is removed, in place; a core is its crossings and free loops.  A
    state with at most one connected piece or free loop is its own
    single core.  Kinks come off first, lowest loop edge label first;
    then the first bigon in port order is erased, else the first cut
    split, and the steps repeat until none applies."""
    kinks = cuts = 0
    while True:
        if site := s.kink():
            sign, kind = kink_rule(s, site)
            kinks += sign
            s.splice(site[0], kind)
        elif bigon := s.bigon():
            s.erase(*bigon)
        elif cut := s.cut():
            s.rejoin(*cut)
            cuts += 1
        else:
            break
    pieces = s.pieces()  # after the constructor's checks on the state
    if len(pieces) + s.loops <= 1:
        return kinks, 0, 0, [(pieces[0] if pieces else (), s.loops)]
    return kinks, s.loops, cuts, [(piece, 0) for piece in pieces]


#: A core of at most this many crossings is first looked up by one
#: start's code.  Small cores are mostly hits on symmetric cores, where
#: that start's code is often the least; on larger ones it seldom is, and
#: the wasted start costs more than the few hits save.
_PROBE_MAX = 8


def _core_table(s: _PortState, piece: tuple[int, ...], loops: int, run: _Run) -> CoeffTable:
    memo = run.memo
    probe = s.start_code(piece, loops) if 0 < len(piece) <= _PROBE_MAX else None
    key = probe if probe is not None and probe in memo else s.shape_code(piece, loops)
    table = memo.get(key)
    if table is None:
        node = s.node(piece, loops)
        walk = node.walk  # after the constructor's checks on the node
        run.spend(node)
        table = memo[key] = _expand(node, walk.encounters, (1,) * walk.r, None, run)
    return table


def _table(s: _PortState, run: _Run) -> CoeffTable:
    kinks, loops, cuts, cores = _cores(s)
    tables = [_core_table(s, *core, run) for core in cores] + [_FREE_LOOP] * loops
    table = tables[0]
    for other in tables[1:]:
        table = table * other
    # each cut made one summand, joined by the product alone; every other
    # piece or free loop past the first is disjoint and brings the factor
    for _ in range(len(tables) - 1 - cuts):
        table = table * _SPLIT_FACTOR
    return table.shift_y(kinks) if kinks else table


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
        Memo from the shape code of each core to its table, to share
        across calls; without one the call memoises in a fresh dict.
        Relabelled copies of a core share its entry, which is sound
        because the table is a link invariant.
    """
    return _table(_PortState(_State.of(d)), _Run(d, budget, cache))


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
    encounters, orientation = _base_walk(d, base)
    run = _Run(d, budget, cache)
    run.spend(d)
    return _expand(_State.of(d), encounters, orientation, warping_crossing, run)


def _skein_terms(
    d: Diagram,
    p: int,
    budget: int | None,
    cache: Cache | None,
    table: CoeffTable | None = None,
) -> tuple[tuple[CoeffTable, int], ...]:
    """(table, component count) of ``d``, its flip at ``p``, and its A-
    and B-splice at ``p``, in that order, from one memo.  Each of the
    three terms is built and looked up once; ``d``'s own table is looked
    up too unless the caller passes it."""
    d._check_crossing(p)
    cache = {} if cache is None else cache

    def look(x: Diagram) -> tuple[CoeffTable, int]:
        return coeff_table(x, budget=budget, cache=cache), x.r

    terms = (d.crossing_change(p), d.splice(p, "A"), d.splice(p, "B"))
    head = look(d) if table is None else (table, d.r)
    return (head, *map(look, terms))


def _skein_holds(d: Diagram, p: int, terms: tuple[tuple[CoeffTable, int], ...]) -> bool:
    """The four-term relation entrywise on the terms of ``_skein_terms``."""
    (t, r), (flip, _), (ta, ra), (tb, rb) = terms
    lhs = t + flip
    rhs = ta.shift_z(1 - (ra - r)) + tb.shift_z(1 - (rb - r))
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
    return _skein_holds(d, p, _skein_terms(d, p, budget, cache))
