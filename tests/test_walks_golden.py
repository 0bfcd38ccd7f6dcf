"""Seeded move walks stay bit-identical to a golden file.

The golden file holds ``random_diagram(s, 10, walk_steps=30)`` for
s = 0..59, the trace JSON of ``random_move_walk`` from three free loops
for s = 0..59, and walks from every catalog entry at max crossings 7
and 9.  These walks feed the fuzz CLI and the benchmark's random
inputs, so a change to how a walk draws its moves must leave every line
as it is.  A change that means to alter them rewrites the file with

    PYTHONPATH=src python tests/test_walks_golden.py --write

and says in its change notes which walks changed and why.

It also checks ``random_move_walk`` against a walk that builds every
candidate step and draws one from the list, the reference for drawing a
kind and then an index below that kind's count, and checks that the
kinds a walk draws from, found by tests that list no site, are exactly
the kinds with a candidate step on every diagram these walks visit.
"""

import json
import random
import sys
from pathlib import Path

from kauffpoly import moves
from kauffpoly.catalog import CATALOG
from kauffpoly.diagram import Diagram, parse_pd
from kauffpoly.moves import (
    MoveStep,
    MoveTrace,
    apply_step,
    bigon_sites,
    cofacial_dart_pairs,
    kink_sites,
    r3_sites,
    random_diagram,
    random_move_walk,
)
from test_moves import kink_sign, reference_r3_sites

GOLDEN = Path(__file__).parent / "data" / "walks.txt"


def _trace_line(trace) -> str:
    return json.dumps(trace.to_json_obj(), sort_keys=True, separators=(",", ":"))


def render() -> list[str]:
    """Every golden line, in file order, labelled by what produced it."""
    lines = [f"random_diagram {s}: {random_diagram(s, 10, walk_steps=30).to_pd()}" for s in range(60)]
    three_loops = parse_pd("O O O")
    for s in range(60):
        _, trace = random_move_walk(three_loops, 30, s, 10)
        lines.append(f"O O O walk {s}: {_trace_line(trace)}")
    for max_c in (7, 9):
        for name, entry in CATALOG.items():
            for s in range(5):
                _, trace = random_move_walk(entry.diagram(), 20, s, max_c)
                lines.append(f"{name} walk max_c={max_c} seed={s}: {_trace_line(trace)}")
    return lines


def test_walks_match_golden_file():
    assert render() == GOLDEN.read_text(encoding="utf-8").splitlines()


def _candidate_steps(d: Diagram, max_c: int) -> dict[str, list[MoveStep]]:
    """Every legal step, per kind, in the order the walk indexes them."""
    out: dict[str, list[MoveStep]] = {}
    if d.c + 1 <= max_c:
        refs = list(d.edge_labels())
        if d.free_loops:
            refs.append(None)
        out["r1_add"] = [
            MoveStep("r1_add", (e, ch, side))
            for e in refs
            for ch in ("+", "-")
            for side in ("L", "R")
        ]
    kinks = kink_sites(d)
    if kinks:
        out["r1_remove"] = [MoveStep("r1_remove", (ci,)) for ci, _, _ in kinks]
    if d.c + 2 <= max_c:
        pairs = cofacial_dart_pairs(d)
        if pairs:
            out["r2_add"] = [
                MoveStep("r2_add", (d1, d2, over))
                for d1, d2 in pairs
                for over in (True, False)
            ]
    bigons = bigon_sites(d)
    if bigons:
        out["r2_remove"] = [MoveStep("r2_remove", (u, v)) for u, v in bigons]
    triangles = reference_r3_sites(d)
    if triangles:
        out["r3"] = [MoveStep("r3", (face, k)) for face, k in triangles]
    return out


def reference_walk(d: Diagram, steps: int, seed: int, max_c: int) -> tuple[Diagram, MoveTrace]:
    """The walk drawn from the full candidate lists."""
    rng = random.Random(seed)
    taken = []
    net_r1 = 0
    cur = d
    for _ in range(steps):
        cands = _candidate_steps(cur, max_c)
        if not cands:
            continue
        kind = rng.choice(sorted(cands))
        step = rng.choice(cands[kind])
        if step.kind == "r1_add":
            net_r1 += 1 if step.data[1] == "+" else -1
        elif step.kind == "r1_remove":
            net_r1 -= kink_sign(cur, step.data[0])
        cur = apply_step(cur, step)
        taken.append(step)
    return cur, MoveTrace(d.to_pd(), tuple(taken), net_r1)


def test_walks_match_the_candidate_list_reference():
    starts = [parse_pd("O"), parse_pd("O O O")] + [e.diagram() for e in CATALOG.values()]
    for start in starts:
        for seed in range(10):
            for max_c in (4, 10):
                expected = reference_walk(start, 25, seed, max_c)
                assert random_move_walk(start, 25, seed, max_c) == expected, (
                    start.to_pd(),
                    seed,
                    max_c,
                )


def test_drawn_kinds_are_the_kinds_with_sites(monkeypatch):
    seen = {}
    applicable = moves._applicable_kinds

    def recording(d, max_c):
        kinds = seen[d, max_c] = applicable(d, max_c)
        return kinds

    monkeypatch.setattr(moves, "_applicable_kinds", recording)
    render()
    starts = [parse_pd("O"), parse_pd("O O O")] + [e.diagram() for e in CATALOG.values()]
    for start in starts:
        for max_c in (7, 9, 10, 12):
            for seed in range(100):
                random_move_walk(start, 6, seed, max_c)
    sites = {}  # per diagram: the kinds with a site whatever max_c is
    for d, _ in seen:
        if d not in sites:
            pairs = cofacial_dart_pairs(d)
            triangles = reference_r3_sites(d)
            # the existence test behind r2_add, and the scan behind r3, on their own
            assert bool(pairs) == (d.c > 0), d.to_pd()
            assert r3_sites(d) == triangles, d.to_pd()
            sites[d] = (bool(kink_sites(d)), bool(pairs), bool(bigon_sites(d)), bool(triangles))
    assert len(sites) > 6000 and 1000 < sum(found[3] for found in sites.values()) < len(sites)
    for (d, max_c), kinds in seen.items():
        # the kinds of _candidate_steps, from their site lists alone
        kinks, pairs, bigons, triangles = sites[d]
        found = {
            "r1_add": d.c + 1 <= max_c,
            "r1_remove": kinks,
            "r2_add": d.c + 2 <= max_c and pairs,
            "r2_remove": bigons,
            "r3": triangles,
        }
        assert kinds == sorted(kind for kind, ok in found.items() if ok), (d.to_pd(), max_c)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_walks_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(render()) + "\n", encoding="utf-8")
