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

Each node expands from a base of least warping degree (Shimizu, "The
warping degree of a knot diagram", J. Knot Theory Ramifications 19,
2010), not from the canonical base the table engine uses.  The
coefficient polynomials do not depend on the base points, so the
relation holds at a warping crossing of any base, and a diagram with
no warping crossing under some base is a descending diagram of an
unlink, worth ``y^w * d^(r-1)`` (Kauffman, "An invariant of regular
isotopy", Trans. AMS 318, 1990).  Its components are pairwise
unlinked, so its writhe is the same under every orientation and the
leaf reads it under the traversal's.  The least degree splits into
parts that are found exactly in one pass over the crossings
(:func:`_least_warping`): each component's start and direction decide
only its self-crossings, and the component order only the crossings
between components.  Past a few components the order is not searched
and the canonical one is kept; that base is then least among bases in
the canonical order.  Either way a flip drops the chosen base's degree
by at least one, as a crossing change keeps the canonical order, and a
splice drops the crossing count, so the recursion ends.

A node is a :class:`~kauffpoly.diagram._State`, never a
:class:`~kauffpoly.diagram.Diagram`, and the table engine expands the
same node type: its over flags, the flat far ports and port labels of
the projection (port ``(c, i)`` at index ``4c + i``, as a diagram's
projection holds them) and its free loops, all immutable.  A splice
(``_State.splice``) merges the chains through the crossing with the
diagram module's ``_merge_chains``, drops the crossing's four ports and
renumbers the later crossings in order, as ``Diagram.splice`` does, so
a state and the diagram the same splices would build have equal
arrays.  A flip shares its parent's arrays and walk.  A state's
canonical walk is that of the equal diagram; it is built when the node
is first expanded, after the diagram constructor's structural checks
(:func:`kauffpoly.diagram._piece_crossings`) pass on the arrays, so a
node that hits the memo equals one already checked.
A memo key is ``(crossings, far, labels, loops)``; the arrays determine
the labelled edges, so two keys are equal exactly when the labelled
diagrams are equal, and they never equal a table engine's shape code.

The flip at ``p``, the first of a node's warping crossings ``W`` under
its chosen base, expands with ``W[1:]`` and no new search.  This is
exact: a flip keeps the projection, so every base meets the crossings
in the same order, and it changes every base's degree by exactly one,
down for the bases under which ``p`` warps and up for the others.  The
new least bases are therefore the old ones under which ``p`` warps,
which include the chosen one.  The search takes the first least choice
in a fixed total order, ``(degree, start, forward first)`` per
component and ``itertools.permutations`` order (or the canonical order
beyond ``_MAX_PERMUTED``) for the components, so the chosen base stays
chosen, and under it only ``p`` stops warping.

Each ``oracle_L`` call carries the table engine's run object down the
recursion: its node budget and its memo.  The memo maps each node's
key to its value, so a call expands each labelled diagram it meets
once; a caller may pass its own memo as ``cache`` to share it across
calls.  The powers ``d^k`` are exact values, built once per process
when a leaf first needs them; a leaf then only shifts its power by
``y^w``.  The recursion itself, its base choice and its freedom from
the kink, bigon, connected-sum and disjoint-union laws depend on
neither the memo nor these powers.

The chain merge, the checks, the walk and the first-encounter walk are
shared with the rest of the package: duplicating them would add risk
without adding independence where it matters.  No node builds a base
object; only a base passed to :func:`oracle_L_with_base` is validated
and walked, and only that call's top level uses it.
"""

from __future__ import annotations

import functools
from typing import MutableMapping, Sequence

from .coeffs import _Run
from .diagram import _A_BRIDGE, _B_BRIDGE, Diagram, _first_encounters, _State, _Walk
from .laurent import BivariatePoly
from .series import kauffman_L, unlink_factor
from .warping import BaseSequence, _warping, warping_order

#: A node's memo key: over flags, flat far ports, port labels, free loops.
OracleKey = tuple[tuple[bool, ...], tuple[int, ...], tuple[int, ...], int]
OracleCache = MutableMapping[OracleKey, BivariatePoly]


@functools.cache
def _d_power(k: int) -> BivariatePoly:
    """``d^k``, the leaves' unlink factor power, built once per process."""
    return unlink_factor() ** k


#: Up to this many components with crossings, the component order is
#: searched (:func:`_least_order`); beyond it the canonical order is
#: kept.  The search costs about 0.03 ms per node at 5 components and
#: 0.07 ms at 6 (CPython 3.11 on a 2-vCPU VM), where trying all ``m!``
#: orders cost 0.2 and 1.4 ms.  On braid-closure chains it cut the
#: oracle's time by 18 % at 5 components and by 30 % at 6; at 7 it saved
#: no node.
_MAX_PERMUTED = 6


def _least_warping(
    crossings: tuple[bool, ...], far: Sequence[int], walk: _Walk
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A base of least warping degree and its warping crossings, given
    the over flags, the flat far ports and their canonical walk.

    The base is the flat port (``4c + i``) at which each component's
    traversal arrives first, in traversal order; the warping crossings
    are listed in first-encounter order under it.  Per component, one
    sweep of the canonical visits finds the start of fewest warping
    self-crossings: moving the start past a visit to a self-crossing
    toggles whether that crossing warps, and reversing the direction
    from the same edge warps exactly the other self-crossings.  A
    crossing between two components warps when the one traversed first
    passes under, so the component order only has to minimise those;
    beyond ``_MAX_PERMUTED`` components with crossings the canonical
    order is kept, and the base is least only among bases in that order.
    Ties go to the first minimum: the earliest start, forward before
    reversed, and the earliest order in ``itertools.permutations``.
    """
    strands = walk.strands
    m = len(walk.visits)
    under = [[0] * m for _ in range(m)]  # under[i][j]: i passes under j
    met = [False] * len(crossings)
    starts = []
    for k, visits in enumerate(walk.visits):
        # level: warping self-crossings from start t minus those from start 0
        warps = level = low = high = t_low = t_high = selfs = 0
        for t, x in enumerate(visits):
            if level < low:
                low, t_low = level, t
            elif level > high:
                high, t_high = level, t
            ci = x >> 2
            is_under = (x & 1) != crossings[ci]
            other = strands[(2 * ci + (x & 1)) ^ 1]
            if other != k:
                under[k][other] += is_under
                continue
            if not met[ci]:
                met[ci] = True
                selfs += 1
                warps += is_under
            level += -1 if is_under else 1
        forward = warps + low
        backward = selfs - warps - high
        if backward < forward or (backward == forward and t_high < t_low):
            starts.append(far[visits[t_high]])  # the same edge, walked back
        else:
            starts.append(visits[t_low])
    if 1 < m <= _MAX_PERMUTED:
        starts = [starts[k] for k in _least_order(under)]
    return tuple(starts), _warping(crossings, _first_encounters(far, starts))


def _least_order(under: list[list[int]]) -> list[int]:
    """The first order of ``range(m)`` in lexicographic order among
    those that minimise the sum of ``under[i][j]`` over ``i`` placed
    before ``j``: the order ``min`` over ``itertools.permutations``
    picks, found by a DP over subsets in ``O(2^m m)`` steps.

    ``rest[s]`` is the least cost of ordering the set ``s`` behind every
    component outside it; putting ``j`` first adds ``ahead[j][s - j]``,
    its cost against the rest of ``s``.  ``first[s]`` is the least ``j``
    that opens an optimal order of ``s``, so following it from the full
    set spells out the first optimal order.
    """
    m = len(under)
    size = 1 << m
    ahead = []  # ahead[j][s]: crossings where j passes under a member of s
    for row in under:
        sums = [0] * size
        for s in range(1, size):
            low = s & -s
            sums[s] = sums[s ^ low] + row[low.bit_length() - 1]
        ahead.append(sums)
    rest = [0] * size
    first = [0] * size
    bits = [(j, 1 << j, ahead[j]) for j in range(m)]
    for s in range(1, size):
        least = None
        for j, bit, sums in bits:
            if s & bit:
                cost = sums[s ^ bit] + rest[s ^ bit]
                if least is None or cost < least:
                    least = cost
                    first[s] = j
        rest[s] = least
    order = []
    s = size - 1
    while s:
        order.append(first[s])
        s ^= 1 << first[s]
    return order


def _expand(
    s: _State, warping: tuple[int, ...], run: _Run, rest: tuple[int, ...] | None
) -> BivariatePoly:
    """One node, given its warping crossings under some base; ``rest``
    is the flip's warping crossings under its least base, or None to
    search for them."""
    if not warping:
        walk = s.walk
        writhe = sum(sign if over else -sign for over, sign in zip(s.crossings, walk.signs))
        return _d_power(walk.r - 1).shift_y(writhe)
    p = warping[0]
    return (
        -_oracle(s.flip(p), run, rest)
        + (_oracle(s.splice(p, _A_BRIDGE), run) + _oracle(s.splice(p, _B_BRIDGE), run)).shift_z(1)
    )


def _oracle(s: _State, run: _Run, warping: tuple[int, ...] | None = None) -> BivariatePoly:
    """A node's value.  A miss expands it from ``warping``, its warping
    crossings under its least base, found by the search when not given."""
    key = s.key
    value = run.memo.get(key)
    if value is None:
        run.spend(s)
        if warping is None:
            warping = _least_warping(s.crossings, s.far, s.walk)[1]
        value = run.memo[key] = _expand(s, warping, run, warping[1:])
    return value


def oracle_L(
    d: Diagram,
    *,
    budget: int | None = None,
    cache: OracleCache | None = None,
) -> BivariatePoly:
    """Regular-isotopy Kauffman polynomial by whole-polynomial recursion."""
    return _oracle(_State.of(d), _Run(d, budget, cache))


def oracle_L_with_base(
    d: Diagram,
    base: BaseSequence,
    *,
    budget: int | None = None,
    cache: OracleCache | None = None,
) -> BivariatePoly:
    """Oracle value with the top-level monotone test and warping choice
    driven by a caller-supplied base; must equal :func:`oracle_L`.  The
    base need not be least, so the flip's base is searched for."""
    warping = warping_order(d, base)
    run = _Run(d, budget, cache)
    run.spend(d)
    return _expand(_State.of(d), warping, run, None)


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
