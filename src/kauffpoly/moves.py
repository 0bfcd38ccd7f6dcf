"""Reidemeister move generators, site detectors, and seeded random walks.

Moves produce certified-equivalent diagram pairs for invariance testing:
the coefficient tables must be invariant under R2 and R3 and scale by
``y^±1`` under R1.  Every generator preserves diagram validity (port
matching, planarity of the rotation system), every add/remove pair is an
exact inverse, and walks are fully determined by (start, steps, seed,
max crossings), so failures replay bit-exactly.

Each walk step draws a move kind among those with a site, then an index
below that kind's count, and builds only the step at that index, which
it applies at the site it found without looking the site up again.  The
index draw, ``rng.choice(range(count))``, takes from the seeded stream
exactly what a draw from the list of that kind's steps would, so walks,
their traces and every input built from them depend only on the order
in which each kind's steps are indexed.

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
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Sequence

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


def _is_over(d: Diagram, ci: int, pi: int) -> bool:
    return (pi % 2 == 1) == d.crossings[ci]


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


def _kink_rule_at(d: Diagram, p: int) -> tuple[int, str]:
    """``kink_rule`` of the kink at crossing ``p``."""
    for site in kink_sites(d):
        if site[0] == p:
            return kink_rule(d, site)
    raise MoveSiteError(f"crossing {p} is not a kink")


def kink_sign(d: Diagram, p: int) -> int:
    """Sign of a kink crossing; independent of traversal direction."""
    return _kink_rule_at(d, p)[0]


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
    top = max(d.edge_labels(), default=0)
    # side R puts the loop on ports (1,2), side L on (2,3); the sign of a
    # (1,2)- or (3,0)-loop kink equals over_v, of the other two its negation
    over_v = (chirality == "+") if side == "R" else (chirality == "-")
    crossings = d.crossings + (over_v,)

    if e is None:
        if not d.free_loops:
            raise MoveSiteError("no free loop to kink")
        if side == "R":
            new = [(top + 1, (k, 0), (k, 3)), (top + 2, (k, 1), (k, 2))]
        else:
            new = [(top + 1, (k, 0), (k, 1)), (top + 2, (k, 2), (k, 3))]
        return Diagram(crossings, list(d.edges) + new, d.free_loops - 1)

    if not d.has_edge(e):
        raise MoveSiteError(f"no edge {e}")
    a, b = d.edge_map[e]
    rest = [edge for edge in d.edges if edge[0] != e]
    if side == "R":
        new = [(e, a, (k, 0)), (top + 1, (k, 3), b), (top + 2, (k, 1), (k, 2))]
    else:
        new = [(e, a, (k, 0)), (top + 1, (k, 1), b), (top + 2, (k, 2), (k, 3))]
    return Diagram(crossings, rest + new, d.free_loops)


def r1_remove(d: Diagram, p: int) -> Diagram:
    """Undo a kink at crossing ``p``."""
    return d.splice(p, _kink_rule_at(d, p)[1])


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
    e1, h1 = dart1
    e2, h2 = dart2
    pa, pb = d.edge_map[e1]
    t1 = pb if h1 == pa else pa
    qa, qb = d.edge_map[e2]
    t2 = qb if h2 == qa else qa

    u = d.c
    v = d.c + 1
    top = max(d.edge_labels(), default=0)
    rest = [edge for edge in d.edges if edge[0] not in (e1, e2)]
    new = [
        (e1, t1, (u, 0)),
        (top + 1, (v, 2), h1),
        (top + 3, (u, 2), (v, 0)),
        (e2, t2, (v, 1)),
        (top + 2, (u, 1), h2),
        (top + 4, (v, 3), (u, 3)),
    ]
    over_v = not over_first  # strand 1 runs through the U ports of both crossings
    crossings = d.crossings + (over_v, over_v)
    return Diagram(crossings, rest + new, d.free_loops)


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

def r3_sites(d: Diagram) -> tuple[tuple[tuple[Dart, Dart, Dart], int], ...]:
    """(face darts, slider side index) for every applicable triangle."""
    out = []
    for face in d.faces():
        if len(face) != 3:
            continue
        crossings = [h[0] for _, h in face]
        edges = [e for e, _ in face]
        if len(set(crossings)) != 3 or len(set(edges)) != 3:
            continue
        for k in range(3):
            # side k runs from crossing k-1 to crossing k
            y = face[(k - 1) % 3][1]
            z = face[k][1]
            ya = (y[1] + 1) % 4
            za = z[1]
            if _is_over(d, y[0], ya) == _is_over(d, z[0], za):
                out.append((tuple(face), k))
    return tuple(out)


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
    edges = [
        (label, sub.get(a, a), sub.get(b, b)) for label, a, b in d.edges
    ]
    return Diagram(d.crossings, edges, d.free_loops)


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


def _r1_add_step(d: Diagram, refs: list[EdgeRef], i: int) -> _Taken:
    """Step ``i`` of the R1 additions: per ref, chirality '+', '-', each
    on side 'L', 'R'."""
    e, chirality, side = refs[i >> 2], "+-"[i >> 1 & 1], "LR"[i & 1]
    step = MoveStep("r1_add", (e, chirality, side))
    return step, (1 if chirality == "+" else -1), r1_add(d, e, chirality, side)


def _r1_remove_step(d: Diagram, site: tuple[int, int, tuple[int, int]]) -> _Taken:
    sign, kind = kink_rule(d, site)
    return MoveStep("r1_remove", (site[0],)), -sign, d.splice(site[0], kind)


def _r2_add_step(
    d: Diagram, faces: tuple[tuple[Dart, ...], ...], counts: list[int], i: int
) -> _Taken:
    """Step ``i`` of the R2 additions: dart pair ``i // 2`` in
    ``cofacial_dart_pairs`` order, sent across on top when ``i`` is even."""
    j = i >> 1
    for face, n in zip(faces, counts):
        if j < n:
            break
        j -= n
    pairs = ((d1, d2) for d1 in face for d2 in face if d1[0] != d2[0])
    d1, d2 = next(islice(pairs, j, None))
    over_first = i & 1 == 0
    return MoveStep("r2_add", (d1, d2, over_first)), 0, _r2_push(d, d1, d2, over_first)


def _move_kinds(d: Diagram, max_c: int) -> dict[str, tuple[int, Callable[[int], _Taken]]]:
    """(count, index -> step taken) for each move kind with at least one
    site.  A step is applied at the site found here, which is not looked
    up again."""
    out: dict[str, tuple[int, Callable[[int], _Taken]]] = {}
    if d.c + 1 <= max_c:
        refs: list[EdgeRef] = list(d.edge_labels())
        if d.free_loops:
            refs.append(None)
        out["r1_add"] = (4 * len(refs), lambda i: _r1_add_step(d, refs, i))
    kinks = kink_sites(d)
    if kinks:
        out["r1_remove"] = (len(kinks), lambda i: _r1_remove_step(d, kinks[i]))
    if d.c + 2 <= max_c:
        faces = d.faces()
        # a face of m darts on u distinct edges has m^2 - sum of mult(e)^2
        # ordered pairs of distinct edges; mult(e) is 1 or 2, so that is
        # m^2 - m - 2 (m - u)
        counts = [
            len(face) * (len(face) - 3) + 2 * len({e for e, _ in face}) for face in faces
        ]
        if any(counts):
            out["r2_add"] = (2 * sum(counts), lambda i: _r2_add_step(d, faces, counts, i))
    bigons = bigon_sites(d)
    if bigons:
        out["r2_remove"] = (
            len(bigons),
            lambda i: (MoveStep("r2_remove", bigons[i]), 0, d.erase_crossings(bigons[i])),
        )
    triangles = r3_sites(d)
    if triangles:
        out["r3"] = (
            len(triangles),
            lambda i: (MoveStep("r3", triangles[i]), 0, _r3_slide(d, *triangles[i])),
        )
    return out


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
        kinds = _move_kinds(cur, max_c)
        if not kinds:
            continue
        kind = rng.choice(sorted(kinds))
        count, take = kinds[kind]
        step, r1, cur = take(rng.choice(range(count)))
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
