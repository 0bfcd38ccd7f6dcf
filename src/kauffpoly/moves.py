"""Reidemeister move generators, site detectors, and seeded random walks.

Moves produce certified-equivalent diagram pairs for invariance testing:
the coefficient tables must be invariant under R2 and R3 and scale by
``y^±1`` under R1.  Every generator preserves diagram validity (port
matching, planarity of the rotation system), every add/remove pair is an
exact inverse, and walks are fully determined by (start, steps, seed,
max crossings), so failures replay bit-exactly.

Each walk step first finds which move kinds have a site, by tests on
the flat port arrays that stop at the first site (``kauffpoly fuzz``
asks the same tests of its start), and draws one of those kinds.  Only
the drawn kind's sites are then listed, by the enumeration behind that
kind's public site list (``r3_sites`` lists the sites of the flat R3
scan, and an R2 addition indexes ``cofacial_dart_pairs``); the step
draws an index below the kind's step count and applies the step at that
index at the site it found, without looking the site up again.  The
index draw, ``rng.choice(range(count))``, takes from the seeded stream
exactly what a draw from the list of that kind's steps would, so walks,
their traces and every input built from them depend only on the order
in which each kind's steps are indexed.  Every move builds its diagram
with the edges already in storage order (a kept label keeps its place,
new labels follow the highest), so nothing is sorted again, while every
structural check of the constructor still runs.

Site conventions (ports counterclockwise, face tracing as in
:meth:`kauffpoly.diagram.Diagram.faces`):

* a kink is a crossing with an edge joining two cyclically adjacent
  ports; its sign depends only on which adjacent pair and the over flag;
* an R2 bigon is a 2-gon face on two distinct crossings whose side
  strand passes over (or under) at both;
* an R3 site is a 3-gon face on three distinct crossings together with a
  side whose strand passes over both other strands or under both.  The
  slide is a pure rewiring of eight edge endpoints; crossings, over
  flags, and edge labels are untouched.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .diagram import (
    Diagram,
    DiagramError,
    EdgeRef,
    Port,
    _bigon_scan,
    _kink_site,
    _PortState,
)


class MoveSiteError(DiagramError):
    """The requested move does not apply at the given site."""


Dart = tuple[int, Port]  # (edge label, head port)


# ----------------------------------------------------------------------
# R1

def kink_sites(d: Diagram) -> tuple[tuple[int, int, tuple[int, int]], ...]:
    """(crossing, loop edge label, loop port pair) for every removable
    kink, by loop edge label."""
    proj = d._proj
    far, labels = proj.far_ports, proj.port_labels
    return tuple(_kink_site(far, labels, x) for x in sorted(proj.kinks, key=labels.__getitem__))


def kink_rule(
    d: Diagram | _PortState, site: tuple[int, int, tuple[int, int]]
) -> tuple[int, str]:
    """(sign, splice kind that undoes it) of one ``kink_sites`` entry,
    of a diagram or of the coefficient engine's port state."""
    p, _, pair = site
    over_v = d.crossings[p]
    if pair in ((1, 2), (3, 0)):
        return (1 if over_v else -1), "A"
    return (-1 if over_v else 1), "B"


def r1_add(d: Diagram, e: EdgeRef, chirality: str, side: str = "R") -> Diagram:
    """Insert a one-crossing kink on edge ``e`` (or on a free loop when
    ``e`` is None).  ``chirality`` '+'/'-' fixes the new crossing's sign
    for any orientation; ``side`` 'L'/'R' places the loop on either side
    of the strand."""
    if chirality not in ("+", "-"):
        raise MoveSiteError(f"chirality must be '+' or '-', not {chirality!r}")
    if side not in ("L", "R"):
        raise MoveSiteError(f"side must be 'L' or 'R', not {side!r}")
    k = d.c
    top = d.edges[-1][0] if d.edges else 0
    # side R puts the loop on ports (1,2), side L on (2,3); the sign of a
    # (1,2)- or (3,0)-loop kink equals over_v, of the other two its negation
    over_v = (chirality == "+") if side == "R" else (chirality == "-")
    crossings = d.crossings + (over_v,)

    # edges are built in storage order: the new crossing k comes after
    # every old port, and new labels after ``top``
    if e is None:
        if not d.free_loops:
            raise MoveSiteError("no free loop to kink")
        if side == "R":
            new = ((top + 1, (k, 0), (k, 3)), (top + 2, (k, 1), (k, 2)))
        else:
            new = ((top + 1, (k, 0), (k, 1)), (top + 2, (k, 2), (k, 3)))
        return Diagram._from_sorted(crossings, d.edges + new, d.free_loops - 1)

    edges = list(d.edges)
    i = bisect_left(edges, (e,)) if isinstance(e, int) else len(edges)
    if i == len(edges) or edges[i][0] != e:
        raise MoveSiteError(f"no edge {e}")
    label, a, b = edges[i]  # the stored label, which ``e`` only equals
    edges[i] = (label, a, (k, 0))
    if side == "R":
        edges += ((top + 1, b, (k, 3)), (top + 2, (k, 1), (k, 2)))
    else:
        edges += ((top + 1, b, (k, 1)), (top + 2, (k, 2), (k, 3)))
    return Diagram._from_sorted(crossings, tuple(edges), d.free_loops)


def r1_remove(d: Diagram, p: int) -> Diagram:
    """Undo a kink at crossing ``p``."""
    for site in kink_sites(d):
        if site[0] == p:
            return d.splice(p, kink_rule(d, site)[1])
    raise MoveSiteError(f"crossing {p} is not a kink")


# ----------------------------------------------------------------------
# R2

def cofacial_dart_pairs(d: Diagram) -> tuple[tuple[Dart, Dart], ...]:
    """Ordered dart pairs of distinct edges sharing a face: R2-add sites."""
    out = []
    for face in d.faces():
        for d1 in face:
            for d2 in face:
                if d1[0] != d2[0]:
                    out.append((d1, d2))
    return tuple(out)


def r2_add_at(d: Diagram, dart1: Dart, dart2: Dart, over_first: bool = True) -> Diagram:
    """Push the strand of ``dart1`` across the face it shares with
    ``dart2`` onto the strand of ``dart2``, creating a bigon;
    ``over_first`` sends it across on top."""
    e1, h1 = dart1
    e2, h2 = dart2
    if e1 == e2:
        raise MoveSiteError("the two edges of an R2 move must differ")
    for e, h in ((e1, h1), (e2, h2)):
        if not d.has_edge(e) or h not in d.edge_map[e]:
            raise MoveSiteError(f"dart ({e}, {h}) does not exist")
    if not any(dart1 in face and dart2 in face for face in d.faces()):
        raise MoveSiteError(f"darts {dart1} and {dart2} do not share a face")
    return _r2_push(d, dart1, dart2, over_first)


def _r2_push(d: Diagram, dart1: Dart, dart2: Dart, over_first: bool) -> Diagram:
    """``r2_add_at`` at a dart pair already known to share a face."""
    u = d.c
    v = d.c + 1
    edges = list(d.edges)
    top = edges[-1][0]
    # each pushed edge keeps its stored label and its place and now runs
    # from its tail to the new crossings, which come after every old port
    for (e, h), port in ((dart1, (u, 0)), (dart2, (v, 1))):
        i = bisect_left(edges, (e,))
        label, a, b = edges[i]
        edges[i] = (label, b if h == a else a, port)
    edges += (
        (top + 1, dart1[1], (v, 2)),
        (top + 2, dart2[1], (u, 1)),
        (top + 3, (u, 2), (v, 0)),
        (top + 4, (u, 3), (v, 3)),
    )
    over_v = not over_first  # strand 1 runs through the U ports of both crossings
    crossings = d.crossings + (over_v, over_v)
    return Diagram._from_sorted(crossings, tuple(edges), d.free_loops)


def r2_add(d: Diagram, e1: int, e2: int, over_first: bool = True) -> Diagram:
    """R2 move along the first face shared by edges ``e1`` and ``e2``."""
    for face in d.faces():
        d1 = next((dart for dart in face if dart[0] == e1), None)
        d2 = next((dart for dart in face if dart[0] == e2), None)
        if d1 is not None and d2 is not None:
            return r2_add_at(d, d1, d2, over_first)
    raise MoveSiteError(f"edges {e1} and {e2} do not share a face")


def bigon_sites(d: Diagram) -> tuple[tuple[int, int], ...]:
    """Crossing pairs (u, v) of removable R2 bigons."""
    return tuple(sorted(set(_bigon_scan(d._proj.far_ports, d.crossings))))


def r2_remove(d: Diagram, u: int, v: int) -> Diagram:
    """Undo an R2 bigon: both strands pass straight through."""
    if (min(u, v), max(u, v)) not in bigon_sites(d):
        raise MoveSiteError(f"crossings {u}, {v} do not bound a removable bigon")
    return d.erase_crossings({u, v})


# ----------------------------------------------------------------------
# R3

def _r3_scan(far: list[int], crossings: Sequence[bool]) -> Iterator[tuple[int, int, int]]:
    """The R3 sites on flat far ports, in port order: arrivals
    ``(x0, x1, x2)`` round a 3-gon face on three distinct crossings,
    where the side from ``x0``'s crossing to ``x1`` is over (or under)
    at both ends.  Each 3-gon is met from each of its arrivals, so each
    of its sides is tested once."""
    for x0 in range(len(far)):
        s0 = x0 - 3 if x0 & 3 == 3 else x0 + 1  # a face leaves along the next port
        x1 = far[s0]
        s1 = x1 - 3 if x1 & 3 == 3 else x1 + 1
        x2 = far[s1]
        if far[x2 - 3 if x2 & 3 == 3 else x2 + 1] != x0:
            continue
        c0, c1, c2 = x0 >> 2, x1 >> 2, x2 >> 2
        if c0 != c1 and c1 != c2 and c2 != c0:
            if ((s0 & 1) == crossings[c0]) == ((x1 & 1) == crossings[c1]):
                yield x0, x1, x2


def r3_sites(d: Diagram) -> tuple[tuple[tuple[Dart, Dart, Dart], int], ...]:
    """(face darts, slider side index) for every applicable triangle.

    A face's darts start where ``faces()`` starts it, at its least edge
    label (three distinct crossings make three distinct edges), and side
    ``k`` runs from the crossing of dart ``k - 1`` to that of dart ``k``;
    the sites are sorted, which is face order and then side order."""
    proj = d._proj
    labels = proj.port_labels
    out = []
    for site in _r3_scan(proj.far_ports, d.crossings):
        i = min(range(3), key=lambda j: labels[site[j]])
        face = tuple((labels[x], (x >> 2, x & 3)) for x in site[i:] + site[:i])
        out.append((face, (1 - i) % 3))  # the side from site[0] to site[1]
    return tuple(sorted(out))


def r3_apply(d: Diagram, face: Sequence[Dart], slider: int) -> Diagram:
    """Slide the strand of side ``slider`` across the opposite crossing.

    Pure rewiring: eight edge endpoints swap places; crossings, over
    flags, labels, component count, and writhe are all preserved.
    """
    if (tuple(face), slider) not in r3_sites(d):
        raise MoveSiteError("not an applicable R3 site")
    return _r3_slide(d, face, slider)


def _r3_slide(d: Diagram, face: Sequence[Dart], slider: int) -> Diagram:
    """``r3_apply`` at a site already known to be one of ``r3_sites``."""
    hy = face[(slider - 1) % 3][1]
    hz = face[slider][1]
    hx = face[(slider + 1) % 3][1]
    Y, y_b = hy[0], hy[1]
    Z, z_a = hz[0], hz[1]
    X, x_c = hx[0], hx[1]
    y_a = (y_b + 1) % 4
    z_c = (z_a + 1) % 4
    x_b = (x_c + 1) % 4

    sub: dict[Port, Port] = {
        (X, x_b): (X, (x_b + 2) % 4),
        (X, (x_b + 2) % 4): (Y, (y_b + 2) % 4),
        (Y, (y_b + 2) % 4): (X, x_b),
        (X, x_c): (X, (x_c + 2) % 4),
        (X, (x_c + 2) % 4): (Z, (z_c + 2) % 4),
        (Z, (z_c + 2) % 4): (X, x_c),
        (Y, (y_a + 2) % 4): (Z, (z_a + 2) % 4),
        (Z, (z_a + 2) % 4): (Y, (y_a + 2) % 4),
    }
    edges = []
    for label, a, b in d.edges:  # labels stay, so only a pair can fall out of order
        a, b = sub.get(a, a), sub.get(b, b)
        edges.append((label, a, b) if a < b else (label, b, a))
    return Diagram._from_sorted(d.crossings, tuple(edges), d.free_loops)


# ----------------------------------------------------------------------
# traces and walks

@dataclass(frozen=True)
class MoveStep:
    """One replayable move; ``data`` holds the site exactly as applied."""

    kind: str
    data: tuple

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, "data": _jsonify(self.data)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MoveStep":
        return cls(obj["kind"], _unjsonify(obj["data"]))


def _jsonify(x):
    if isinstance(x, tuple):
        return [_jsonify(v) for v in x]
    return x


def _unjsonify(x):
    if isinstance(x, list):
        return tuple(_unjsonify(v) for v in x)
    return x


@dataclass(frozen=True)
class MoveTrace:
    """A replayable move sequence with its net signed R1 count."""

    start_pd: str
    steps: tuple[MoveStep, ...]
    net_r1: int

    def to_json_obj(self) -> dict:
        return {
            "start": self.start_pd,
            "net_r1": self.net_r1,
            "steps": [s.to_json_obj() for s in self.steps],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MoveTrace":
        return cls(
            obj["start"],
            tuple(MoveStep.from_json_obj(s) for s in obj["steps"]),
            obj["net_r1"],
        )


def apply_step(d: Diagram, step: MoveStep) -> Diagram:
    if step.kind == "r1_add":
        e, chirality, side = step.data
        return r1_add(d, e, chirality, side)
    if step.kind == "r1_remove":
        (p,) = step.data
        return r1_remove(d, p)
    if step.kind == "r2_add":
        dart1, dart2, over_first = step.data
        return r2_add_at(d, dart1, dart2, over_first)
    if step.kind == "r2_remove":
        u, v = step.data
        return r2_remove(d, u, v)
    if step.kind == "r3":
        face, slider = step.data
        return r3_apply(d, face, slider)
    raise MoveSiteError(f"unknown move kind {step.kind!r}")


def replay(d: Diagram, steps: Iterable[MoveStep]) -> Diagram:
    for step in steps:
        d = apply_step(d, step)
    return d


#: A walk step taken: the step, its signed R1 count and the diagram after it.
_Taken = tuple[MoveStep, int, Diagram]


def _applicable_kinds(d: Diagram, max_c: int) -> list[str]:
    """The move kinds with at least one site under ``max_c`` crossings,
    sorted, each found without listing its sites.  R2 can add at any
    crossing: the face of the dart into its port ``i`` goes on along the
    edge at port ``i + 1``, so it has two distinct edges unless one edge
    joins the two ports, and then the face of the dart into ``i + 1``
    has."""
    proj = d._proj
    far, c = proj.far_ports, d.c
    kinds = []
    if c < max_c:
        kinds.append("r1_add")
    if proj.kinks:
        kinds.append("r1_remove")
    if 0 < c <= max_c - 2:
        kinds.append("r2_add")
    if next(_bigon_scan(far, d.crossings), None) is not None:
        kinds.append("r2_remove")
    if next(_r3_scan(far, d.crossings), None) is not None:
        kinds.append("r3")
    return kinds


def _draw_step(d: Diagram, kind: str, rng: random.Random) -> _Taken:
    """Draw one step of ``kind`` by its index below the kind's step count
    and take it at the site found here, which is not looked up again.
    Each kind's steps come from its site list in that list's order: an
    R2 addition is dart pair ``i // 2`` of ``cofacial_dart_pairs``, sent
    across on top when ``i`` is even, and an R3 step is one entry of
    ``r3_sites``."""
    if kind == "r1_add":
        # per edge in label order, then a free loop if there is one:
        # chirality '+', '-', each on side 'L', 'R'
        edges = d.edges
        i = rng.choice(range(4 * (len(edges) + (d.free_loops > 0))))
        e = edges[i >> 2][0] if i >> 2 < len(edges) else None
        chirality, side = "+-"[i >> 1 & 1], "LR"[i & 1]
        step = MoveStep(kind, (e, chirality, side))
        return step, (1 if chirality == "+" else -1), r1_add(d, e, chirality, side)
    if kind == "r1_remove":
        site = rng.choice(kink_sites(d))
        sign, splice = kink_rule(d, site)
        return MoveStep(kind, (site[0],)), -sign, d.splice(site[0], splice)
    if kind == "r2_add":
        pairs = cofacial_dart_pairs(d)
        i = rng.choice(range(2 * len(pairs)))
        d1, d2 = pairs[i >> 1]
        over_first = i & 1 == 0
        return MoveStep(kind, (d1, d2, over_first)), 0, _r2_push(d, d1, d2, over_first)
    if kind == "r2_remove":
        bigon = rng.choice(bigon_sites(d))
        return MoveStep(kind, bigon), 0, d.erase_crossings(bigon)
    site = rng.choice(r3_sites(d))
    return MoveStep(kind, site), 0, _r3_slide(d, *site)


def random_move_walk(
    d: Diagram, steps: int, seed: int, max_c: int
) -> tuple[Diagram, MoveTrace]:
    """Apply ``steps`` seeded random moves, never exceeding ``max_c``
    crossings; returns the end diagram and a bit-exact replayable trace."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    rng = random.Random(seed)
    taken: list[MoveStep] = []
    net_r1 = 0
    cur = d
    for _ in range(steps):
        kinds = _applicable_kinds(cur, max_c)
        if not kinds:
            continue
        step, r1, cur = _draw_step(cur, rng.choice(kinds), rng)
        net_r1 += r1
        taken.append(step)
    return cur, MoveTrace(d.to_pd(), tuple(taken), net_r1)


def random_diagram(seed: int, max_c: int, walk_steps: int = 12) -> Diagram:
    """A seeded pseudo-random planar diagram: a move walk from the
    zero-crossing unknot followed by coin-flip crossing changes."""
    start = Diagram((), (), 1)
    end, _ = random_move_walk(start, walk_steps, seed, max_c)
    rng = random.Random(f"flips:{seed}")
    for p in range(end.c):
        if rng.random() < 0.5:
            end = end.crossing_change(p)
    return end
