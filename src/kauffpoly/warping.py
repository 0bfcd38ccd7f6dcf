"""Base points, the first-encounter rule, and warping degree.

A base sequence picks, for every component in a fixed order, a starting
edge and a direction of travel: it is a plain tuple of
:class:`BaseEntry` values, one per component.  Traversing the
components once each in tuple order visits every crossing twice, once
per strand; the strand seen first is the crossing's first-encountered
strand.  A crossing whose first-encountered strand passes *under* is a
warping crossing, and the warping degree counts them.  Warping degree
zero means the diagram is descending from its base points
("monotone"), which is the base case of the coefficient recursion.

Base points live on edges, between crossings: a purely combinatorial
diagram has no finer positions.  Free-loop components carry a single
trivial base choice.

The canonical base starts each component where its own traversal
starts, so under it the first-encounter order is the one the
projection's canonical traversal records.  The recursions of
:mod:`kauffpoly.coeffs` and :mod:`kauffpoly.oracle` read that traversal
directly and never build a base.  Every base passed to the functions
here, the canonical one included, is validated once on every call, with
the public API of :class:`~kauffpoly.diagram.Diagram`, and then walked
once by the diagram module's ``_first_encounters``, the strand walk the
oracle's base search ends with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .diagram import Diagram, DiagramError, Port, _first_encounters


@dataclass(frozen=True)
class BaseEntry:
    """Base data for one component: start edge and which endpoint is hit first."""

    component: int
    edge: int | None
    toward: Port | None


#: One ``BaseEntry`` per component; tuple order is traversal order.
BaseSequence = tuple[BaseEntry, ...]


def validate_base(d: Diagram, base: BaseSequence) -> None:
    comps = d.components
    seen = [entry.component for entry in base]
    if sorted(seen) != list(range(len(comps))):
        raise DiagramError("base sequence must name every component exactly once")
    for entry in base:
        comp = comps[entry.component]
        if not comp.orbit:
            if entry.edge is not None or entry.toward is not None:
                raise DiagramError("free-loop base entries carry no edge")
            continue
        if entry.edge not in comp.edges:
            raise DiagramError(
                f"edge {entry.edge} is not on component {entry.component}"
            )
        if entry.toward not in d.edge_map[entry.edge]:
            raise DiagramError(f"{entry.toward} is not an endpoint of edge {entry.edge}")


def canonical_base(d: Diagram) -> BaseSequence:
    """Deterministic base: per component, where its own traversal starts
    (its lowest edge heading at the lower endpoint).  Depends only on the
    underlying projection, never on over/under data, so crossing changes
    preserve it."""
    return tuple(
        BaseEntry(k, *comp.orbit[0]) if comp.orbit else BaseEntry(k, None, None)
        for k, comp in enumerate(d.components)
    )


def _base_choices(d: Diagram) -> list[list[BaseEntry]]:
    """The (edge, direction) choices of each component, in component
    order: each edge toward its lower port, then toward its upper one."""
    return [
        [BaseEntry(k, edge, end) for edge in comp.edges for end in d.edge_map[edge]]
        if comp.orbit
        else [BaseEntry(k, None, None)]
        for k, comp in enumerate(d.components)
    ]


def enumerate_bases(d: Diagram) -> Iterator[BaseSequence]:
    """All (edge, direction) choices per component, in component order."""
    return itertools.product(*_base_choices(d))


def _base_walk(
    d: Diagram, base: BaseSequence
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The first-encounter order of a base and the component directions
    it induces.  The base is validated once, and each of its components
    is walked once from its start edge."""
    validate_base(d, base)
    comps = d.components
    signs = [1] * d.r
    starts = []
    for entry in base:
        if entry.edge is None:
            continue
        ci, pi = entry.toward
        starts.append(4 * ci + pi)
        if (entry.edge, entry.toward) not in comps[entry.component].orbit:
            signs[entry.component] = -1
    return _first_encounters(d._proj.far_ports, starts), tuple(signs)


def first_encounter(d: Diagram, base: BaseSequence) -> tuple[tuple[int, int], ...]:
    """Crossings in order of first visit, with the parity of the strand
    (0 for U, 1 for V) met first."""
    return _base_walk(d, base)[0]


def warping_order(d: Diagram, base: BaseSequence) -> tuple[int, ...]:
    """Warping crossings in first-encounter order."""
    return _warping(d.crossings, first_encounter(d, base))


def _warping(
    crossings: tuple[bool, ...], encounters: tuple[tuple[int, int], ...]
) -> tuple[int, ...]:
    """The crossings of a first-encounter order whose strand met first
    passes under, given the over flags."""
    return tuple(ci for ci, parity in encounters if (parity == 1) != crossings[ci])


def warping_degree(d: Diagram, base: BaseSequence) -> int:
    return len(warping_order(d, base))


def is_monotone(d: Diagram, base: BaseSequence) -> bool:
    return warping_degree(d, base) == 0


def base_orientation(d: Diagram, base: BaseSequence) -> tuple[int, ...]:
    """Per-component direction signs induced by the base directions,
    relative to each component's canonical traversal."""
    return _base_walk(d, base)[1]


def induced_writhe(d: Diagram, base: BaseSequence) -> int:
    """Writhe under the orientation the base directions induce."""
    return d.writhe(base_orientation(d, base))
