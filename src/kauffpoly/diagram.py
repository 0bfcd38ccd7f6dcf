"""Combinatorial unoriented link diagrams.

A diagram is stored as a rotation system on a 4-valent graph: each
crossing carries four ports numbered 0..3 in counterclockwise planar
order.  The strand through ports {0, 2} is called U, the strand through
{1, 3} is called V.  A diagram's ``crossings`` are plain over flags,
one bool per crossing, True when V passes over.  Edges are a perfect
matching on the set of all ports.  Crossing-free circles carry no
ports, so they are tracked by an explicit counter.

Diagrams are immutable values; every operation returns a new diagram.
Over flags are bools, the free-loop count is an int, edge labels are
positive integers, ports are pairs of ints and a diagram has a crossing
or a free loop, which the constructor checks.  Labels survive crossing
changes unchanged, and a splice names each merged edge after the
smallest label it absorbed, which keeps derived diagrams deterministic.

Diagrams that differ only in over flags share their projection data: the
flat port arrays the constructor's checks build and, each computed on
first use, one walk of the canonical traversal, the faces, the edge map
and the components.  The face tuple is built only for callers of
:meth:`Diagram.faces`: the planarity check that parsing makes counts
faces traced on the flat port arrays.  The walk starts each component
at its lowest edge and, in one pass over the port array, records the
component count ``r``,
the first-encounter order, each component's arrival ports in order and
each crossing's sign with V over; ``r``, the writhe (:func:`_writhe`),
the components, each splice's component shift (:func:`_splice_shift`),
the canonical first-encounter order and the oracle's search for a base
of least warping degree read it, so the recursions never build
``Component`` objects.  The walk is :func:`_walk` of the flat port
arrays, which both recursions also run on their nodes: they are kept as
arrays and never built as diagrams, and :func:`_piece_crossings` checks
them as the constructor checks a diagram.  The first-encounter order
from any other start ports comes from :func:`_first_encounters`, which
records nothing else.
``crossing_change`` and ``mirror`` reuse the validated edges and this
shared data as they are, so a flip costs one tuple and one dict copy.
Removing crossings is a local edit: the kept edges stay in order, only
the chains of edges through the removed crossings are merged and
inserted in place, and every structural check runs on the result
without sorting again.  One chain merge serves every removal: a splice
takes off one crossing, and ``erase_crossings`` all of its crossings in
one edit, so an R2 bigon comes off with one diagram built.

Both recursions expand nodes, not diagrams.  A :class:`_State` holds
the over flags, the flat port arrays and the free loops as tuples, and
the walk and kinks of the equal diagram; its arrays pass the
constructor's checks before its walk is built.  The oracle splices a
node into new nodes.  The coefficient engine edits a node's
sub-diagrams without building them: a ``_PortState`` copies a node's
arrays once and edits the copies in place.  It splices, strips kinks,
erases bigons, splits connected sums at their cuts, splits into pieces
and computes shape codes on those arrays, with the same chain merge,
kink scan, bigon scan, face rule and shape code as :class:`Diagram`,
and checks its arrays as the constructor checks a diagram's.  A core it
is asked for is cut out as a renumbered node.

PD text input: whitespace-separated tokens ``X(a,b,c,d)`` listing the
edge labels at ports 0..3 counterclockwise with the under-strand
through entries 1 and 3 (ports 0 and 2), plus ``O`` tokens for free
loops.  The orientation a PD code usually implies is discarded;
orientations are supplied separately, one direction per component.
"""

from __future__ import annotations

import re
from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

Port = tuple[int, int]  # (crossing index, port index 0..3)
EdgeRef = int | None  # an edge label, or None meaning "a free loop"


class DiagramError(ValueError):
    """Invalid diagram data or an operation applied to a missing piece."""


class PDSyntaxError(DiagramError):
    """Malformed PD text."""


@dataclass(frozen=True)
class Component:
    """A closed strand: its edge labels and one traversal direction.

    ``orbit`` lists (edge label, arrival port) pairs in the canonical
    direction; it is empty exactly for a crossing-free loop.
    """

    edges: tuple[int, ...]
    orbit: tuple[tuple[int, Port], ...]


#: Bridges through a removed crossing: port ``i`` is joined to port ``i ^ bridge``.
_A_BRIDGE = 1  # 0-1 and 2-3
_B_BRIDGE = 3  # 0-3 and 1-2
_STRAIGHT_BRIDGE = 2  # 0-2 and 1-3


def _splice_bridge(kind: str) -> int:
    if kind == "A":
        return _A_BRIDGE
    if kind == "B":
        return _B_BRIDGE
    raise DiagramError(f"splice kind must be 'A' or 'B', not {kind!r}")


def _merge_chains(
    far: list[int], labels: list[int], gone: Collection[int], bridge: int
) -> tuple[list[tuple[int, int, int]], int]:
    """The chains of edges through the crossings ``gone`` once each port
    ``i`` of each of them is joined to port ``i ^ bridge`` of the same
    crossing, on flat port arrays: ``(smallest label, end port, end
    port)`` for each chain whose ends are kept, and the number of chains
    that close up among ``gone``.  Every removal merges its chains here,
    so the label a merged edge takes does not depend on whether its
    crossings come off one at a time or together."""
    done: set[int] = set()
    mark = done.add
    chains = []
    for p in gone:  # open chains, each from a port whose edge leaves gone
        for x in range(4 * p, 4 * p + 4):
            start = far[x]
            if x in done or start >> 2 in gone:
                continue
            low = labels[x]
            while True:  # through x's crossing by the bridge, then along the edge
                mark(x)
                x ^= bridge
                mark(x)
                if labels[x] < low:
                    low = labels[x]
                end = far[x]
                if end >> 2 not in gone:
                    break
                x = end
            chains.append((low, start, end))
    closed = 0
    if len(done) < 4 * len(gone):  # whatever is left closes up among gone
        for p in gone:
            for x in range(4 * p, 4 * p + 4):
                if x in done:
                    continue
                closed += 1
                while x not in done:
                    mark(x)
                    x ^= bridge
                    mark(x)
                    x = far[x]
    return chains, closed


class _Walk(NamedTuple):
    """One pass of the canonical traversal of a projection.

    Each component with crossings is traversed from its lowest edge,
    heading at that edge's lower port, in the order of those edges.
    ``encounters`` lists each crossing once, in order of first visit,
    with the parity of the strand met first (0 for U, 1 for V).
    ``visits[k]`` lists the flat arrival ports (``4c + i``) of the
    ``k``-th component with crossings, in traversal order.
    ``strands[2c + k]`` is the component of the strand of parity ``k``
    at crossing ``c``.  ``signs[c]`` is the sign of crossing ``c`` under
    this traversal's orientation if strand V were over; the actual sign
    is its negation when U is over, and reversing one of the two
    strands negates it again.
    """

    r: int
    encounters: tuple[tuple[int, int], ...]
    visits: tuple[tuple[int, ...], ...]
    strands: tuple[int, ...]
    signs: tuple[int, ...]


def _walk(far: Sequence[int], starts: Iterable[int], loops: int) -> _Walk:
    """The canonical traversal of flat far ports ``far`` plus ``loops``
    free loops, given the lower port of each edge in label order: each
    component is walked from the first of ``starts`` on it, so from its
    lowest edge, and components in the order of those edges."""
    n = len(far) >> 2
    met = [False] * n
    encounters: list[tuple[int, int]] = []
    strands = [-1] * (2 * n)
    arrivals = [0] * (2 * n)
    visits: list[tuple[int, ...]] = []
    for start in starts:
        if strands[2 * (start >> 2) + (start & 1)] >= 0:  # this edge's component is walked
            continue
        k = len(visits)
        x = start
        orbit: list[int] = []
        visit = orbit.append
        while True:
            visit(x)
            ci = x >> 2
            s = 2 * ci + (x & 1)
            strands[s] = k
            arrivals[s] = x
            if not met[ci]:
                met[ci] = True
                encounters.append((ci, x & 1))
            x = far[x ^ 2]
            if x == start:
                break
        visits.append(tuple(orbit))
    # V over: +1 when V arrives a counterclockwise quarter turn after U
    signs = tuple([1 if (arrivals[2 * c + 1] - arrivals[2 * c]) & 3 == 1 else -1 for c in range(n)])
    return _Walk(len(visits) + loops, tuple(encounters), tuple(visits), tuple(strands), signs)


def _writhe(crossings: Sequence[bool], walk: _Walk, orientation: Sequence[int]) -> int:
    """The writhe of over flags ``crossings`` on the projection of ``walk``,
    component ``k`` directed by ``orientation[k]`` relative to the walk."""
    strands = walk.strands
    total = 0
    for p, (over, sign) in enumerate(zip(crossings, walk.signs)):
        if orientation[strands[2 * p]] != orientation[strands[2 * p + 1]]:
            sign = -sign
        total += sign if over else -sign
    return total


def _splice_shift(walk: _Walk, p: int, kind: str) -> int:
    """``r(splice) - r`` of the ``kind`` splice at ``p`` of ``walk``'s
    projection: -1 where two components cross, else +1 for the smoothing
    that follows the walk (B if ``signs[p] == 1``, else A), 0 for the other."""
    bridge = _splice_bridge(kind)
    strands = walk.strands
    if strands[2 * p] != strands[2 * p + 1]:
        return -1
    follows = _B_BRIDGE if walk.signs[p] == 1 else _A_BRIDGE
    return 1 if bridge == follows else 0


class _Projection:
    """The data of a diagram that its over flags do not touch.

    Every diagram that ``crossing_change`` or ``mirror`` derives from
    another holds the same instance, so each value here (the port
    arrays, the canonical traversal, the components, the faces) is
    computed once per projection.  Port ``(c, i)`` is index ``4c + i``
    of the flat arrays: ``far_ports`` holds the port at the other end of
    its edge and ``port_labels`` that edge's label; ``lower_ports`` lists
    the lower port of each edge in label order.  ``walk``, ``faces``,
    ``components`` (from the walk's visits), ``edge_map`` and ``kinks``
    (the lower ports of the R1 kinks' loop edges) are cached properties,
    built on first use.  Only this module writes any of it; the
    recursions read its canonical traversal, and the oracle's base
    search and the move site searches of :mod:`kauffpoly.moves` its port
    array.
    """

    def __init__(
        self,
        edges: tuple[tuple[int, Port, Port], ...],
        free_loops: int,
        far_ports: list[int],
        port_labels: list[int],
        lower_ports: list[int],
    ):
        self.edges = edges
        self.free_loops = free_loops
        self.far_ports = far_ports
        self.port_labels = port_labels
        self.lower_ports = lower_ports

    @cached_property
    def edge_map(self) -> dict[int, tuple[Port, Port]]:
        return {label: (a, b) for label, a, b in self.edges}

    @cached_property
    def kinks(self) -> tuple[int, ...]:
        far = self.far_ports
        return tuple(_kink_ports(far, range(len(far))))

    @cached_property
    def walk(self) -> _Walk:
        return _walk(self.far_ports, self.lower_ports, self.free_loops)

    @cached_property
    def faces(self) -> tuple[tuple[tuple[int, Port], ...], ...]:
        far, labels = self.far_ports, self.port_labels
        out: list[tuple[tuple[int, Port], ...]] = []
        visited = [False] * len(far)
        # edges are sorted by label with a < b, so the darts come out sorted
        for _, a, b in self.edges:
            for head in (4 * a[0] + a[1], 4 * b[0] + b[1]):
                face = []
                x = head
                while not visited[x]:  # the face closes at its first dart
                    visited[x] = True
                    face.append((labels[x], (x >> 2, x & 3)))
                    x = far[x + 1 if x & 3 != 3 else x - 3]
                if face:
                    out.append(tuple(face))
        return tuple(out)

    @cached_property
    def components(self) -> tuple[Component, ...]:
        labels = self.port_labels
        comps = [
            Component(
                edges=tuple(sorted(labels[x] for x in visits)),
                orbit=tuple((labels[x], (x >> 2, x & 3)) for x in visits),
            )
            for visits in self.walk.visits
        ]
        return tuple(comps) + (Component(edges=(), orbit=()),) * self.free_loops


@dataclass(frozen=True)
class Diagram:
    """An unoriented link diagram.

    ``crossings`` is stored as a tuple of over flags, each a bool that
    is True when strand V (ports 1, 3) is over.  ``edges`` holds
    (label, port, port) triples sorted by label, each port pair sorted,
    whatever order they were passed in; this canonical storage makes
    structural equality coincide with equality of labeled diagrams.
    The shared projection data takes no part in equality, hashing or
    repr.
    """

    crossings: tuple[bool, ...]
    edges: tuple[tuple[int, Port, Port], ...]
    free_loops: int = 0
    _proj: _Projection = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        crossings = tuple(self.crossings)
        for x in crossings:
            if not isinstance(x, bool):
                raise DiagramError(f"over flag {x!r} is not a bool")
        loops = self.free_loops
        if isinstance(loops, bool) or not isinstance(loops, int):
            raise DiagramError(f"free-loop count {loops!r} is not an int")
        if not crossings and not loops:
            raise DiagramError("empty diagram: no crossing and no free loop")
        object.__setattr__(self, "crossings", crossings)
        edges = []
        for label, a, b in self.edges:
            if isinstance(label, bool) or not isinstance(label, int) or label < 1:
                raise DiagramError(f"edge label {label!r} is not a positive integer")
            if not (  # a bool is an int, but not a crossing or port index
                type(a) is tuple
                and type(b) is tuple
                and len(a) == 2
                and len(b) == 2
                and type(a[0]) is int
                and type(a[1]) is int
                and type(b[0]) is int
                and type(b[1]) is int
            ):
                raise DiagramError(f"edge {label} joins {a!r} and {b!r}, not two pairs of ints")
            edges.append((label, a, b) if a < b else (label, b, a))
        object.__setattr__(self, "edges", tuple(sorted(edges)))
        self._check_and_project()

    @classmethod
    def _from_sorted(
        cls, crossings: tuple[bool, ...], edges: tuple[tuple[int, Port, Port], ...], loops: int
    ) -> "Diagram":
        """A diagram from edges that are already in the canonical storage
        order, each port pair sorted and the triples sorted by label.
        Nothing is sorted again, but every structural check of
        ``__post_init__`` runs; the callers pass bools and an int."""
        d = object.__new__(cls)
        vars(d).update(crossings=crossings, edges=edges, free_loops=loops)
        d._check_and_project()
        return d

    def _check_and_project(self) -> None:
        """Check the canonically stored edges and attach their projection."""
        n = len(self.crossings)
        far = [-1] * (4 * n)
        labels = [0] * (4 * n)
        lows = []
        last = None
        for label, a, b in self.edges:
            if label == last:  # edges are sorted by label
                raise DiagramError(f"duplicate edge label {label}")
            last = label
            ca, pa = a
            if not (0 <= ca < n and 0 <= pa < 4):
                raise DiagramError(f"edge {label} references missing port {a}")
            x = 4 * ca + pa
            if far[x] >= 0:
                raise DiagramError(f"port {a} used by two edges")
            lows.append(x)
            cb, pb = b
            if not (0 <= cb < n and 0 <= pb < 4):
                raise DiagramError(f"edge {label} references missing port {b}")
            y = 4 * cb + pb
            far[x] = y
            if far[y] >= 0:
                raise DiagramError(f"port {b} used by two edges")
            far[y] = x
            labels[x] = labels[y] = label
        if -1 in far:
            raise DiagramError("some crossing port is not matched by any edge")
        if self.free_loops < 0:
            raise DiagramError("free_loops must be nonnegative")
        object.__setattr__(
            self, "_proj", _Projection(self.edges, self.free_loops, far, labels, lows)
        )

    def _with_crossings(self, crossings: tuple[bool, ...]) -> "Diagram":
        """This diagram with other over flags.  The edges are the same
        validated tuple, so there is nothing to check again, and the
        projection is shared; nothing the diagram caches for itself,
        such as its hash, comes along."""
        d = object.__new__(Diagram)
        vars(d).update(
            crossings=crossings, edges=self.edges, free_loops=self.free_loops, _proj=self._proj
        )
        return d

    def __hash__(self) -> int:
        # a memo keyed by diagrams hashes each one on lookup and on store,
        # and the nested edge tuples are the bulk of that work
        try:
            return self._hash
        except AttributeError:
            h = hash((self.crossings, self.edges, self.free_loops))
            object.__setattr__(self, "_hash", h)
            return h

    # ------------------------------------------------------------------
    # basic data

    @property
    def c(self) -> int:
        """Crossing number."""
        return len(self.crossings)

    @property
    def r(self) -> int:
        """Number of link components, free loops included."""
        return self._proj.walk.r

    @property
    def edge_map(self) -> dict[int, tuple[Port, Port]]:
        return self._proj.edge_map

    def edge_labels(self) -> tuple[int, ...]:
        return tuple(label for label, _, _ in self.edges)

    def has_edge(self, label: int) -> bool:
        return label in self.edge_map

    def _check_crossing(self, p: int) -> None:
        if type(p) is not int:  # a bool is an int, but not a crossing index
            raise DiagramError(f"crossing index {p!r} is not an int")
        if not (0 <= p < self.c):
            raise DiagramError(f"no crossing {p} in a {self.c}-crossing diagram")

    # ------------------------------------------------------------------
    # strand following

    @cached_property
    def components(self) -> tuple[Component, ...]:
        """The components in canonical traversal order, free loops last.

        Built on first request and shared by the whole projection; the
        recursions read only the canonical traversal and never build them.
        """
        return self._proj.components

    def delta_p(self, p: int) -> int:
        """1 if the two strands at crossing ``p`` lie on different components."""
        self._check_crossing(p)
        strands = self._proj.walk.strands
        return 0 if strands[2 * p] == strands[2 * p + 1] else 1

    # ------------------------------------------------------------------
    # local operations

    def crossing_change(self, p: int) -> "Diagram":
        """Flip which strand passes over at ``p``; everything else is unchanged."""
        self._check_crossing(p)
        crossings = self.crossings
        return self._with_crossings(crossings[:p] + (not crossings[p],) + crossings[p + 1 :])

    def mirror(self) -> "Diagram":
        """Flip every crossing."""
        return self._with_crossings(tuple(not over for over in self.crossings))

    def splice(self, p: int, kind: str) -> "Diagram":
        """Remove crossing ``p`` by one of its two smoothings.

        Kind "A" joins ports 0-1 and 2-3; kind "B" joins ports 0-3 and
        1-2.  The crossing count drops by exactly one; a smoothing that
        closes off a crossing-free circle increments ``free_loops``.
        """
        self._check_crossing(p)
        return self._remove((p,), _splice_bridge(kind))

    def erase_crossings(self, which: Iterable[int]) -> "Diagram":
        """Remove crossings by letting both strands pass straight through.

        All of them come off in one edit, with the same result as one at
        a time: each chain of edges through them becomes one edge named
        after its smallest label, and a chain that closes up among them
        a free loop.
        """
        gone = set(which)
        for p in gone:
            self._check_crossing(p)
        if not gone:
            return self
        return self._remove(gone, _STRAIGHT_BRIDGE)

    def _remove(self, gone: Collection[int], bridge: int) -> "Diagram":
        """Drop the crossings ``gone``, joining each port ``i`` of each of
        them to port ``i ^ bridge`` of the same crossing.

        The kept crossings are renumbered in order, and the edges that
        miss ``gone`` are kept in storage order.  Each chain that
        :func:`_merge_chains` merges becomes one edge, inserted in place;
        a chain that closes up becomes a free loop.
        """
        crossings = self.crossings
        first = min(gone)  # crossings below it keep their index
        index = list(range(first))  # old index -> new index, -1 if gone
        kept = list(crossings[:first])
        for c in range(first, len(crossings)):
            if c in gone:
                index.append(-1)
            else:
                index.append(len(kept))
                kept.append(crossings[c])
        edges = []
        for label, a, b in self.edges:  # the kept edges stay sorted and normalised
            ia, ib = index[a[0]], index[b[0]]
            if ia >= 0 and ib >= 0:
                edges.append(
                    (label, a if ia == a[0] else (ia, a[1]), b if ib == b[0] else (ib, b[1]))
                )
        proj = self._proj
        chains, closed = _merge_chains(proj.far_ports, proj.port_labels, gone, bridge)
        for low, x, y in chains:
            a, b = (index[x >> 2], x & 3), (index[y >> 2], y & 3)
            insort(edges, (low, a, b) if a < b else (low, b, a))  # its label is new
        return Diagram._from_sorted(tuple(kept), tuple(edges), self.free_loops + closed)

    def delta_shift(self, p: int, kind: str) -> int:
        """``r(splice) - r``, read off the canonical walk by :func:`_splice_shift`."""
        self._check_crossing(p)
        return _splice_shift(self._proj.walk, p, kind)

    # ------------------------------------------------------------------
    # orientations and writhe

    def _check_orientation(self, orientation: Sequence[int]) -> None:
        if not isinstance(orientation, Sequence):
            raise DiagramError(f"orientation {orientation!r} is not a sequence of +1 and -1")
        if len(orientation) != self.r:
            raise DiagramError(
                f"orientation has {len(orientation)} entries for {self.r} components"
            )
        if any(type(s) is not int or s not in (1, -1) for s in orientation):
            # a bool or a float equal to 1 is not an orientation sign
            raise DiagramError("orientation entries must be +1 or -1")

    def writhe(self, orientation: Sequence[int]) -> int:
        """Sum of the crossing signs: a crossing is +1 when the
        under-strand direction maps to the over-strand direction by a
        counterclockwise quarter turn."""
        self._check_orientation(orientation)
        return _writhe(self.crossings, self._proj.walk, orientation)

    # ------------------------------------------------------------------
    # faces

    def faces(self) -> tuple[tuple[tuple[int, Port], ...], ...]:
        """Face cycles of the rotation system (free loops excluded).

        A face is a cyclic dart sequence; from a dart arriving at port
        (c, i) the face continues along the edge at port (c, i+1 mod 4).
        Faces are traced once per projection and shared with every
        crossing change and mirror image.
        """
        return self._proj.faces

    def connected_pieces(self) -> tuple[frozenset[int], ...]:
        """Crossing sets of the connected pieces of the 4-valent graph."""
        proj = self._proj
        return tuple(
            frozenset(piece) for piece in _piece_crossings(proj.far_ports, proj.port_labels)[0]
        )

    def shape_code(self) -> tuple[int, ...]:
        """Exact code of a connected diagram up to relabelling.

        Two connected diagrams share a code exactly when an
        orientation-preserving map of the sphere carries one onto the
        other (a rotation system fixes no outer face): edge labels,
        crossing order and the port numbering at each crossing (with its
        over flag adjusted) leave no trace, while a mirror image gets its
        own code.  A crossing-free diagram is connected when it has at
        most one free loop.

        The code is the free-loop count followed by the least breadth-first
        code over starting darts.  A start is a crossing and the port that
        becomes its port 0; a crossing is first reached through the port
        that becomes its port 0.  Per crossing in discovery order the code
        lists its local over flag (1 when the strand through its relative
        ports 1 and 3 is over) and then, for its relative ports 0..3,
        ``4 * index + port`` of the port at the other end of the edge.
        Only the two starts per crossing whose local over flag is 0 are
        tried, which is exact because the least code begins with 0.  The
        starts advance together one crossing at a time, and a start is
        dropped at the first crossing whose entries compare above those
        of another start still in the running.

        The code from any single start is already a complete description
        of the diagram up to relabelling, since the diagram can be
        rebuilt from it; taking the least over all starts only makes it
        independent of the start.  So a start's code that equals a
        diagram's shape code proves the two diagrams are the same, which
        is how the coefficient engine finds most memo hits without the
        search.
        """
        return _shape_code(self._proj.far_ports, self.crossings, self.free_loops, range(self.c))

    def is_planar(self) -> bool:
        """Euler check V - E + F = 2 on every connected piece.

        The faces are traced on the flat port arrays by the rule of
        :meth:`faces`, and never built.  A piece of genus ``g`` has
        ``F = V + 2 - 2g`` faces (``E = 2V`` on a 4-valent graph), at
        most ``V + 2``, so every piece is planar exactly when the faces
        number ``c + 2`` per piece.
        """
        proj = self._proj
        _, faces = _face_ids(proj.far_ports)
        pieces, _ = _piece_crossings(proj.far_ports, proj.port_labels)
        return faces == self.c + 2 * len(pieces)

    # ------------------------------------------------------------------
    # serialization

    def pd_quadruple(self, p: int) -> tuple[int, int, int, int]:
        """Edge labels at ports 0..3, rotated so the under-strand sits at
        entries 1 and 3 (the PD text convention)."""
        self._check_crossing(p)
        labels = self._proj.port_labels[4 * p : 4 * p + 4]
        if self.crossings[p]:
            return tuple(labels)  # type: ignore[return-value]
        return (labels[1], labels[2], labels[3], labels[0])

    def to_pd(self) -> str:
        tokens = ["X(%d,%d,%d,%d)" % self.pd_quadruple(p) for p in range(self.c)]
        tokens.extend(["O"] * self.free_loops)
        return " ".join(tokens)

    def __str__(self) -> str:
        return self.to_pd()


def _first_encounters(far: Sequence[int], starts: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Crossings in order of first visit, with the parity of the strand
    met first (0 for U, 1 for V), when the strand of each flat arrival
    port (``4c + i``) of ``starts`` is walked once round on the flat far
    ports ``far``, in turn, from that port on through the opposite port
    of each crossing."""
    met = [False] * (len(far) >> 2)
    found = []
    for start in starts:
        x = start
        while True:
            ci = x >> 2
            if not met[ci]:
                met[ci] = True
                found.append((ci, x & 1))
            x = far[x ^ 2]
            if x == start:
                break
    return tuple(found)


# ----------------------------------------------------------------------
# the coefficient engine's kernel: sub-diagrams on one port array


def _kink_ports(far: list[int], ports: Iterable[int]) -> list[int]:
    """The ports among ``ports`` at the lower end of an R1 kink's loop
    edge: an edge joining two cyclically adjacent ports of one crossing.
    A removed crossing's ports hold -1 and are never met."""
    # x ^ y < 4: one crossing; odd x ^ y: adjacent ports
    return [x for x in ports if x < (y := far[x]) and x ^ y < 4 and (x ^ y) & 1]


def _piece_crossings(
    far: Sequence[int], labels: Sequence[int]
) -> tuple[tuple[tuple[int, ...], ...], dict[int, int]]:
    """Crossings of each connected piece, ascending, in order of their
    lowest crossing, and the lower port of each edge by its label; a
    removed crossing, whose ports hold -1, is in none.

    The search makes the constructor's structural checks on every port
    it passes: each port is matched exactly once, by a port of a crossing
    not removed; both ends of an edge carry one label; no label is used
    twice.
    """
    seen = [False] * (len(far) >> 2)
    lows: dict[int, int] = {}
    out = []
    for start, done in enumerate(seen):
        if done or far[4 * start] < 0:
            continue
        seen[start] = True
        piece = [start]
        for c in piece:  # grows while it is read
            for x in range(4 * c, 4 * c + 4):
                y = far[x]
                if y < 0 or y == x or far[y] != x:
                    raise DiagramError(f"port {(c, x & 3)} is not matched by exactly one other port")
                if x < y:
                    label = labels[x]
                    if labels[y] != label:
                        raise DiagramError(f"the two ends of edge {label} carry different labels")
                    if label in lows:
                        raise DiagramError(f"duplicate edge label {label}")
                    lows[label] = x
                if not seen[y >> 2]:
                    seen[y >> 2] = True
                    piece.append(y >> 2)
        piece.sort()
        out.append(tuple(piece))
    return tuple(out), lows


def _face_ids(far: list[int]) -> tuple[list[int], int]:
    """The face of each flat arrival port, faces numbered in order of
    their lowest port, and the number of faces.  From a dart into port
    ``4c + i`` a face leaves along the edge at ``4c + (i + 1) % 4``, as
    in :meth:`Diagram.faces`; a removed crossing's ports hold -1 and
    keep face -1."""
    face = [-1] * len(far)
    k = 0
    for start, fx in enumerate(far):
        if fx < 0 or face[start] >= 0:
            continue
        x = start
        while face[x] < 0:  # arrive at x, leave along the edge at x + 1
            face[x] = k
            x = far[x - 3 if x & 3 == 3 else x + 1]
        k += 1
    return face, k


def _kink_site(far: list[int], labels: list[int], x: int) -> tuple[int, int, tuple[int, int]]:
    """(crossing, loop edge label, loop port pair) of the kink whose loop
    edge leaves port ``x``; the pair runs counterclockwise, so ports 3
    and 0 give ``(3, 0)``."""
    i, j = x & 3, far[x] & 3
    return x >> 2, labels[x], ((i, j) if j - i == 1 else (j, i))


def _bigon_scan(far: list[int], crossings: Sequence[bool]) -> Iterator[tuple[int, int]]:
    """Crossing pairs (u, v), u < v, of removable R2 bigons, each met
    once per bounding port, in port order, without tracing any face.

    Port ``i`` of ``u`` bounds a 2-gon face when the edge at port
    ``i + 1`` ends at port ``j`` of another crossing ``v`` and the edge
    at port ``i`` ends at port ``j + 1`` of ``v``; the bigon is
    removable when that side strand is over (or under) at both ends.
    A removed crossing's ports hold -1, which bounds no 2-gon.
    """
    for x, fx in enumerate(far):  # x = 4u + i, and x - 3 or x + 1 is 4u + (i + 1) % 4
        u = x >> 2
        y = far[x - 3 if x & 3 == 3 else x + 1]
        v = y >> 2
        if v == u or fx != (y - 3 if y & 3 == 3 else y + 1):
            continue
        # the side strand is over at u through port i and at v through port j + 1
        if ((x & 1) == crossings[u]) == ((y & 1) != crossings[v]):
            yield (u, v) if u < v else (v, u)


def _shape_code(
    far: list[int], crossings: Sequence[bool], loops: int, piece: Sequence[int]
) -> tuple[int, ...]:
    """:meth:`Diagram.shape_code` of the crossings ``piece`` of flat far
    ports ``far`` with over flags ``crossings``, plus ``loops`` free
    loops; crossings outside ``piece`` are never read."""
    n = len(piece)
    if loops > (n == 0):
        raise DiagramError("shape codes exist only for connected diagrams")
    if n == 0:
        return (loops,)
    over = list(map(int, crossings))  # int arithmetic is faster than bool
    return _least_code(far, over, loops, n, [(s, q) for s in piece for q in (over[s], over[s] + 2)])


def _least_code(
    far: list[int], over: Sequence[int], loops: int, n: int, starts: list[tuple[int, int]]
) -> tuple[int, ...]:
    """The least breadth-first code of ``n`` crossings over ``starts``,
    each a crossing and the port that becomes its port 0, advancing the
    starts together one crossing at a time.

    Per start, ``place[c]`` is 4 times the discovery index of ``c`` plus
    its port that became port 0, and ``order`` lists those ports flat."""
    size = len(over)
    live = []  # (place, the port 0 of each crossing in discovery order)
    for s, q in starts:
        place = [-1] * size
        place[s] = q
        live.append((place, [4 * s + q]))
    code = [loops]
    for k in range(n):
        if len(live[0][1]) == k:  # every start in the running has found k crossings
            raise DiagramError("shape codes exist only for connected diagrams")
        least = keep = None
        for state in live:
            place, order = state
            x = order[k]
            f = far[x]
            if (t := place[f >> 2]) < 0:
                t = place[f >> 2] = 4 * len(order) + (f & 3)
                order.append(f)
            e0 = (t & ~3) + ((f - t) & 3)
            f = far[x - 3 if x & 3 == 3 else x + 1]
            if (t := place[f >> 2]) < 0:
                t = place[f >> 2] = 4 * len(order) + (f & 3)
                order.append(f)
            e1 = (t & ~3) + ((f - t) & 3)
            f = far[x ^ 2]
            if (t := place[f >> 2]) < 0:
                t = place[f >> 2] = 4 * len(order) + (f & 3)
                order.append(f)
            e2 = (t & ~3) + ((f - t) & 3)
            f = far[x + 3 if x & 3 == 0 else x - 1]
            if (t := place[f >> 2]) < 0:
                t = place[f >> 2] = 4 * len(order) + (f & 3)
                order.append(f)
            block = (over[x >> 2] ^ (x & 1), e0, e1, e2, (t & ~3) + ((f - t) & 3))
            if least is None or block < least:
                least = block
                keep = [state]
            elif block == least:
                keep.append(state)
        live = keep
        code += least
    return tuple(code)


class _State:
    """An immutable node of both recursions: over flags, flat far ports
    and port labels as tuples (the layout of :class:`_Projection`), free
    loops, and the walk and kink ports of the equal diagram.  The walk is
    built on first use, after :func:`_piece_crossings` makes the
    constructor's structural checks on the arrays; the kinks are scanned
    on first use unless given.  A flip shares all but the over flags."""

    __slots__ = ("crossings", "far", "labels", "loops", "_walk", "_kinks")

    def __init__(
        self,
        crossings: tuple[bool, ...],
        far: tuple[int, ...],
        labels: tuple[int, ...],
        loops: int,
        walk: _Walk | None = None,
        kinks: Sequence[int] | None = None,
    ):
        self.crossings = crossings
        self.far = far
        self.labels = labels
        self.loops = loops
        self._walk = walk
        self._kinks = kinks

    @classmethod
    def of(cls, d: Diagram) -> "_State":
        """The node of a diagram, sharing its checked walk and its kinks."""
        proj = d._proj
        far, labels = tuple(proj.far_ports), tuple(proj.port_labels)
        return cls(d.crossings, far, labels, d.free_loops, proj.walk, proj.kinks)

    @property
    def key(self) -> tuple[tuple[bool, ...], tuple[int, ...], tuple[int, ...], int]:
        return (self.crossings, self.far, self.labels, self.loops)

    @property
    def walk(self) -> _Walk:
        """The canonical walk of the equal diagram, built on first use
        once the constructor's structural checks pass on the arrays."""
        walk = self._walk
        if walk is None:
            _, lows = _piece_crossings(self.far, self.labels)
            walk = self._walk = _walk(self.far, [lows[k] for k in sorted(lows)], self.loops)
        return walk

    @property
    def kinks(self) -> Sequence[int]:
        kinks = self._kinks
        if kinks is None:
            kinks = self._kinks = _kink_ports(self.far, range(len(self.far)))
        return kinks

    @property
    def c(self) -> int:
        return len(self.crossings)

    @property
    def r(self) -> int:
        return self.walk.r

    def flip(self, p: int) -> "_State":
        crossings = self.crossings
        flipped = crossings[:p] + (not crossings[p],) + crossings[p + 1 :]
        return _State(flipped, self.far, self.labels, self.loops, self._walk, self._kinks)

    def splice(self, p: int, bridge: int) -> "_State":
        """Remove crossing ``p``, joining each of its ports ``i`` to port
        ``i ^ bridge``; later crossings move down by one, as
        :meth:`Diagram.splice` renumbers them."""
        far, labels = list(self.far), list(self.labels)
        chains, closed = _merge_chains(far, labels, (p,), bridge)
        for low, x, y in chains:
            far[x] = y
            far[y] = x
            labels[x] = labels[y] = low
        cut = 4 * p
        del far[cut : cut + 4], labels[cut : cut + 4]
        crossings = self.crossings
        return _State(
            crossings[:p] + crossings[p + 1 :],
            tuple([y - 4 if y > cut else y for y in far]),
            tuple(labels),
            self.loops + closed,
        )


class _PortState:
    """A node under edit by the coefficient engine: over flags, flat
    far ports and labels (the layout of :class:`_Projection`) and free
    loops, changed in place.

    The state copies the arrays of the :class:`_State` it starts from
    once, when it is made.  A removal writes a few array entries;
    a removed crossing keeps its index and its ports hold -1, so no
    crossing is renumbered until :meth:`node` cuts out a core.  A
    splice and a bigon erasure are each one removal, and every removal
    merges its chains with :func:`_merge_chains`, as
    :meth:`Diagram._remove` does, so a state and the diagrams the same
    edits would build agree on every label.  The lower ports of the
    kinks' loop edges are kept up to date: a removal can only make a
    kink of a chain it merges, and a rejoin of an edge it joins.
    """

    __slots__ = ("crossings", "far", "labels", "loops", "kinks")

    def __init__(self, node: _State):
        self.crossings = node.crossings
        self.far = list(node.far)
        self.labels = list(node.labels)
        self.loops = node.loops
        self.kinks = node.kinks

    def splice(self, p: int, kind: str) -> None:
        self._remove((p,), _splice_bridge(kind))

    def erase(self, u: int, v: int) -> None:
        """Let both strands pass straight through ``u`` and ``v``."""
        self._remove((u, v), _STRAIGHT_BRIDGE)

    def _remove(self, gone: Collection[int], bridge: int) -> None:
        """:meth:`Diagram._remove` in place: the chains of
        :func:`_merge_chains` are written over the ports they join, and
        the ports of ``gone`` hold -1."""
        far, labels = self.far, self.labels
        chains, closed = _merge_chains(far, labels, gone, bridge)
        ends = []
        for low, x, y in chains:
            far[x] = y
            far[y] = x
            labels[x] = labels[y] = low
            ends += (x, y)
        for p in gone:
            far[4 * p : 4 * p + 4] = (-1, -1, -1, -1)
        self.loops += closed
        kinks = self.kinks
        if kinks:
            kinks = [x for x in kinks if x >> 2 not in gone]
        made = _kink_ports(far, ends)
        self.kinks = [*kinks, *made] if made else kinks

    def kink(self) -> tuple[int, int, tuple[int, int]] | None:
        """The ``kink_sites`` entry of the R1 kink of lowest loop edge
        label, or None."""
        if not self.kinks:
            return None
        return _kink_site(self.far, self.labels, min(self.kinks, key=self.labels.__getitem__))

    def bigon(self) -> tuple[int, int] | None:
        """The first removable R2 bigon in port order, or None."""
        return next(_bigon_scan(self.far, self.crossings), None)

    def cut(self) -> tuple[int, int, int, int] | None:
        """The first connected-sum cut in port order, or None.  A cut is
        two distinct edges that bound the same two faces; the first is
        the one whose second edge has the least lower port.  Faces are
        traced with the turn rule of :meth:`Diagram.faces`.  The cut is
        ``(x, y, u, v)``: ``x`` and ``y`` are the lower and upper port of
        the first edge, and ``u`` and ``v`` the ends of the second edge
        on the sides of ``x`` and ``y``.  A kink-free side has at least
        two crossings, so a state with fewer than four is not scanned."""
        far = self.far
        if len(far) - far.count(-1) < 16:
            return None
        face, k = _face_ids(far)
        first = {}
        for a, b in enumerate(far):
            if a < b:
                f, g = face[a], face[b]
                key = f * k + g if f < g else g * k + f
                x = first.setdefault(key, a)
                if x != a:
                    # from x, the face of the dart into x runs along one
                    # side to the dart into a or b; that dart leaves the
                    # end on x's side
                    y = far[x]
                    return (x, y, b, a) if face[a] == face[x] else (x, y, a, b)
        return None

    def rejoin(self, x: int, y: int, u: int, v: int) -> None:
        """Split a cut of :meth:`cut` into its two summands: join ``x``
        to ``u`` under the label of the edge at ``x``, and ``y`` to ``v``
        under the label of the edge at ``u``."""
        far, labels = self.far, self.labels
        first, second = labels[x], labels[u]
        far[x], far[u], far[y], far[v] = u, x, v, y
        labels[x] = labels[u] = first
        labels[y] = labels[v] = second
        # the old kinks stay: a kink's loop edge alone bounds a face, so no cut has it
        if made := _kink_ports(far, (x, y, u, v)):
            self.kinks = [*self.kinks, *made]

    def pieces(self) -> tuple[tuple[int, ...], ...]:
        """Crossings of each connected piece, ascending, in order of
        their lowest crossing, once the constructor's structural checks
        pass on the state: on every port of a crossing not removed (see
        :func:`_piece_crossings`), and the free-loop count is not
        negative."""
        if self.loops < 0:
            raise DiagramError("free_loops must be nonnegative")
        return _piece_crossings(self.far, self.labels)[0]

    def shape_code(self, piece: Sequence[int], loops: int) -> tuple[int, ...]:
        return _shape_code(self.far, self.crossings, loops, piece)

    def start_code(self, piece: Sequence[int], loops: int) -> tuple[int, ...]:
        """The breadth-first code of the nonempty ``piece`` from one
        start, its lowest crossing with local over flag 0.  Like any
        start's code it describes the core completely, so it equals a
        shape code exactly when the core has that shape code."""
        s = piece[0]
        over = self.crossings
        return _least_code(self.far, over, loops, len(piece), [(s, int(over[s]))])

    def node(self, piece: Sequence[int], loops: int) -> _State:
        """The crossings ``piece`` with ``loops`` free loops cut out as a
        node, renumbered in order.  The structural checks run on the
        node's arrays when its walk is first built."""
        far, labels, crossings = self.far, self.labels, self.crossings
        index = [-1] * len(crossings)
        for k, c in enumerate(piece):
            index[c] = k
        ports = [x for c in piece for x in range(4 * c, 4 * c + 4)]
        return _State(
            tuple([crossings[c] for c in piece]),
            tuple([4 * index[y >> 2] + (y & 3) for y in map(far.__getitem__, ports)]),
            tuple(map(labels.__getitem__, ports)),
            loops,
            None,
            [4 * index[x >> 2] + (x & 3) for x in self.kinks if index[x >> 2] >= 0],
        )


_X_TOKEN = re.compile(r"^X\((\d+),(\d+),(\d+),(\d+)\)$")


def parse_pd(text: str) -> Diagram:
    """Parse PD text into a diagram.

    Each label must occur exactly twice across the whole input; the
    strand through quadruple entries 1 and 3 is read as the under-strand.
    An ``O`` token adds a crossing-free loop.  Text with no token, and a
    rotation system that is not planar, are outside the theory and raise
    ``PDSyntaxError``.
    """
    quads: list[tuple[int, int, int, int]] = []
    loops = 0
    for token in text.split():
        if token == "O":
            loops += 1
            continue
        m = _X_TOKEN.match(token)
        if not m:
            raise PDSyntaxError(f"malformed PD token {token!r}")
        quad = tuple(int(g) for g in m.groups())
        if any(v <= 0 for v in quad):
            raise PDSyntaxError(f"edge labels must be positive in {token!r}")
        quads.append(quad)  # type: ignore[arg-type]
    if not quads and not loops:
        raise PDSyntaxError("empty diagram: the PD text has no X or O token")

    occurrences: dict[int, list[Port]] = {}
    for ci, quad in enumerate(quads):
        for pi, label in enumerate(quad):
            occurrences.setdefault(label, []).append((ci, pi))
    edges = []
    for label, ports in sorted(occurrences.items()):
        if len(ports) != 2:
            raise PDSyntaxError(f"edge label {label} occurs {len(ports)} times, expected 2")
        edges.append((label, ports[0], ports[1]))

    d = Diagram((True,) * len(quads), edges, loops)
    if not d.is_planar():
        raise PDSyntaxError("not planar: the rotation system fails V - E + F = 2")
    return d


def _relabel(d: Diagram, label_offset: int, crossing_offset: int) -> list[tuple[int, Port, Port]]:
    return [
        (label + label_offset, (a[0] + crossing_offset, a[1]), (b[0] + crossing_offset, b[1]))
        for label, a, b in d.edges
    ]


def disjoint_union(d: Diagram, d2: Diagram) -> Diagram:
    """Place two diagrams side by side; components simply add up."""
    offset = max(d.edge_labels(), default=0)
    edges = list(d.edges) + _relabel(d2, offset, d.c)
    return Diagram(d.crossings + d2.crossings, edges, d.free_loops + d2.free_loops)


def _resolve_edge_ref(d: Diagram, e: EdgeRef) -> EdgeRef:
    if e is not None:
        if not d.has_edge(e):
            raise DiagramError(f"no edge {e} in diagram {d.to_pd()!r}")
        return e
    if d.free_loops:
        return None
    return d.edges[0][0]


def connected_sum(d: Diagram, d2: Diagram, e: EdgeRef = None, e2: EdgeRef = None) -> Diagram:
    """Cut an edge (or free loop) of each diagram and reconnect across.

    The result has r + r' - 1 components and c + c' crossings.  Passing
    ``None`` for an edge picks a free loop when one exists, otherwise
    the lowest-labeled edge.
    """
    e = _resolve_edge_ref(d, e)
    e2 = _resolve_edge_ref(d2, e2)
    offset = max(d.edge_labels(), default=0)
    crossings = d.crossings + d2.crossings
    edges = list(d.edges) + _relabel(d2, offset, d.c)
    loops = d.free_loops + d2.free_loops

    if e is None or e2 is None:
        # a cut free loop joins the other cut free loop or edge
        return Diagram(crossings, edges, loops - 1)

    a, b = d.edge_map[e]
    a2, b2 = d2.edge_map[e2]
    a2 = (a2[0] + d.c, a2[1])
    b2 = (b2[0] + d.c, b2[1])
    keep = [edge for edge in edges if edge[0] not in (e, e2 + offset)]
    top = max(label for label, _, _ in edges)
    keep.append((top + 1, a, a2))
    keep.append((top + 2, b, b2))
    return Diagram(crossings, keep, loops)
