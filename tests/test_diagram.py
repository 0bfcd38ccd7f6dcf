"""Diagram combinatorics, checked against an independent traversal oracle.

The oracle in this file follows strands directly on PD quadruples (label
matching only, no ports), so component counts never depend on the code
under test.
"""

import itertools
import random
import re
from typing import NamedTuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kauffpoly.diagram import (
    Diagram,
    DiagramError,
    PDSyntaxError,
    _PortState,
    _State,
    connected_sum,
    disjoint_union,
    parse_pd,
)
from kauffpoly.catalog import CATALOG
from kauffpoly.coeffs import coeff_table
from kauffpoly.moves import bigon_sites, kink_sites, random_diagram, random_move_walk
from kauffpoly.series import kauffman_F
from kauffpoly.verification import verify_diagram
from kauffpoly.warping import (
    BaseEntry,
    base_orientation,
    canonical_base,
    enumerate_bases,
    first_encounter,
)

UNKNOT = "O"
KINK = "X(1,2,2,1)"
HOPF = "X(1,4,2,3) X(3,2,4,1)"
TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIGURE8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"


class OneFlag(NamedTuple):
    """A one-field wrapper, which the constructor must not take for a bool."""

    over: bool


def brute_force_components(pd_text: str) -> int:
    """Components by union-find on edge labels, independent of Diagram.

    Two labels lie on one component exactly when some chain of
    straight-through crossing passages (quadruple entries i and i+2)
    links them.
    """
    quads = []
    loops = 0
    for token in pd_text.split():
        if token == "O":
            loops += 1
            continue
        quads.append(tuple(int(x) for x in token[2:-1].split(",")))
    parent = {label: label for quad in quads for label in quad}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for quad in quads:
        parent[find(quad[0])] = find(quad[2])
        parent[find(quad[1])] = find(quad[3])
    return len({find(x) for x in parent}) + loops


def port_map(d: Diagram) -> dict:
    """port -> (edge label, opposite endpoint of that edge), read from
    ``d.edges`` alone, so the references below do not share the flat
    port arrays that the canonical walk reads."""
    out = {}
    for label, a, b in d.edges:
        out[a] = (label, b)
        out[b] = (label, a)
    return out


def piece_diagrams(d: Diagram) -> tuple[Diagram, ...]:
    """The connected pieces of ``d`` as diagrams of their own, free loops
    left out.  Each piece keeps its edge labels and over flags; its
    crossings are renumbered in their original order."""
    out = []
    for piece in d.connected_pieces():
        order = sorted(piece)
        index = {ci: k for k, ci in enumerate(order)}
        edges = [
            (label, (index[a[0]], a[1]), (index[b[0]], b[1]))
            for label, a, b in d.edges
            if a[0] in index
        ]
        out.append(Diagram(tuple(d.crossings[ci] for ci in order), tuple(edges)))
    return tuple(out)


def state_diagram(s: _PortState) -> Diagram:
    """The crossings a port state has not removed, renumbered in order,
    with its free loops, as the public constructor builds them."""
    kept = [c for c in range(len(s.crossings)) if s.far[4 * c] >= 0]
    index = {c: k for k, c in enumerate(kept)}
    edges = [
        (s.labels[x], (index[c], x & 3), (index[y >> 2], y & 3))
        for c in kept
        for x in range(4 * c, 4 * c + 4)
        if x < (y := s.far[x])
    ]
    return Diagram(tuple(s.crossings[c] for c in kept), edges, s.loops)


def assert_node_equals(node: _State, d: Diagram, where=None) -> None:
    """A node holds the over flags, flat arrays, free loops, walk and
    kinks of the diagram it stands for."""
    proj = d._proj
    assert node.crossings == d.crossings, where
    assert node.far == tuple(proj.far_ports), where
    assert node.labels == tuple(proj.port_labels), where
    assert node.loops == d.free_loops, where
    assert node.walk == proj.walk, where
    assert sorted(node.kinks) == sorted(proj.kinks), where
    assert (node.c, node.r) == (d.c, d.r), where


class TestParse:
    def test_unknot(self):
        d = parse_pd(UNKNOT)
        assert (d.c, d.r) == (0, 1)

    def test_kink(self):
        d = parse_pd(KINK)
        assert (d.c, d.r) == (1, 1)

    def test_hopf_component_count_matches_brute_force(self):
        d = parse_pd(HOPF)
        assert (d.c, d.r) == (2, 2)
        assert d.r == brute_force_components(HOPF)

    @pytest.mark.parametrize("pd", [UNKNOT, KINK, HOPF, TREFOIL, FIGURE8])
    def test_components_match_brute_force(self, pd):
        assert parse_pd(pd).r == brute_force_components(pd)

    def test_label_count_error(self):
        with pytest.raises(PDSyntaxError):
            parse_pd("X(1,2,2,2)")
        with pytest.raises(PDSyntaxError):
            parse_pd("X(1,2,2,1) X(1,3,3,4)")

    def test_malformed_token(self):
        with pytest.raises(PDSyntaxError):
            parse_pd("X(1,2,2)")
        with pytest.raises(PDSyntaxError):
            parse_pd("Y(1,2,2,1)")
        with pytest.raises(PDSyntaxError):
            parse_pd("X(0,1,1,0)")

    def test_empty_input(self):
        with pytest.raises(PDSyntaxError, match="empty diagram"):
            parse_pd("")

    def test_non_planar_input(self):
        # crossing 1 joins opposite ports: that piece has V - E + F = 1 - 2 + 1
        with pytest.raises(PDSyntaxError, match="not planar"):
            parse_pd("X(1,1,2,2) X(4,3,4,3)")

    def test_verify_reports_a_non_planar_diagram(self):
        edges = [
            (1, (0, 0), (0, 1)),
            (2, (0, 2), (0, 3)),
            (3, (1, 1), (1, 3)),
            (4, (1, 0), (1, 2)),
        ]
        d = Diagram((True, True), edges)
        checks = verify_diagram(d)["checks"]
        assert not checks["planar_rotation_system"]
        assert not checks["pd_roundtrip"]

    def test_roundtrip_exact_for_parsed(self):
        for pd in (UNKNOT, KINK, HOPF, TREFOIL, FIGURE8, "O O X(1,2,2,1)"):
            d = parse_pd(pd)
            assert parse_pd(d.to_pd()) == d


def _walked(seed: int, c: int, mirrored: bool) -> Diagram:
    d = random_diagram(seed, c, walk_steps=30)
    return d.mirror() if mirrored else d


walked_diagrams = st.builds(_walked, st.integers(0, 10**6), st.integers(1, 10), st.booleans())


class TestParseBoundaryProperties:
    @settings(max_examples=60, deadline=None)
    @given(walked_diagrams)
    def test_pd_text_round_trips(self, d):
        # a parsed diagram has every over flag true, so it equals ``d``
        # itself only when ``d`` does too; its text and table must match
        text = d.to_pd()
        reparsed = parse_pd(text)
        assert reparsed.to_pd() == text
        assert coeff_table(reparsed) == coeff_table(d)

    @settings(max_examples=60, deadline=None)
    @given(walked_diagrams, st.data())
    def test_a_lone_label_is_rejected(self, d, data):
        assume(d.c > 0)
        text = d.to_pd()
        m = data.draw(st.sampled_from(list(re.finditer(r"\d+", text))))
        fresh = max(d.edge_labels()) + 1
        with pytest.raises(PDSyntaxError):
            parse_pd(text[: m.start()] + str(fresh) + text[m.end() :])


class TestDeltaAndSplice:
    def test_delta_p(self):
        assert parse_pd(KINK).delta_p(0) == 0
        hopf = parse_pd(HOPF)
        assert hopf.delta_p(0) == 1 and hopf.delta_p(1) == 1
        tre = parse_pd(TREFOIL)
        assert all(tre.delta_p(p) == 0 for p in range(3))

    def test_kink_splices(self):
        kink = parse_pd(KINK)
        results = {kink.splice(0, k).r for k in "AB"}
        assert results == {1, 2}
        assert all(kink.splice(0, k).c == 0 for k in "AB")

    def test_hopf_splices_to_one_crossing_unknot(self):
        hopf = parse_pd(HOPF)
        for p, kind in itertools.product(range(2), "AB"):
            s = hopf.splice(p, kind)
            assert (s.c, s.r) == (1, 1)
            assert hopf.delta_shift(p, kind) == -1

    def test_kink_delta_shifts(self):
        kink = parse_pd(KINK)
        assert {kink.delta_shift(0, k) for k in "AB"} == {0, 1}

    def test_splice_reduces_c_by_one(self):
        for seed in range(8):
            d = random_diagram(seed, 6)
            for p in range(d.c):
                for kind in "AB":
                    assert d.splice(p, kind).c == d.c - 1

    def test_delta_shift_case_split(self):
        # inter-component crossings merge either way; self-crossings
        # split one way and keep the count the other way
        for seed in range(12):
            d = random_diagram(seed, 6)
            for p in range(d.c):
                shifts = {k: d.delta_shift(p, k) for k in "AB"}
                if d.delta_p(p) == 1:
                    assert shifts == {"A": -1, "B": -1}
                else:
                    assert sorted(shifts.values()) == [0, 1]

    def test_double_splice_order_independent(self):
        for seed in range(8):
            d = random_diagram(seed, 6)
            if d.c < 2:
                continue
            for (p, q) in itertools.combinations(range(d.c), 2):
                for k1, k2 in itertools.product("AB", repeat=2):
                    first = d.splice(q, k2).splice(p, k1)  # q removed: p keeps index
                    second = d.splice(p, k1)
                    # after removing p < q, crossing q shifts down by one
                    second = second.splice(q - 1, k2)
                    assert first.r == second.r

    def test_unknown_crossing(self):
        with pytest.raises(DiagramError):
            parse_pd(KINK).splice(3, "A")
        with pytest.raises(DiagramError):
            parse_pd(KINK).delta_p(1)


class TestCrossingChange:
    def test_involution(self):
        for pd in (KINK, HOPF, TREFOIL):
            d = parse_pd(pd)
            for p in range(d.c):
                assert d.crossing_change(p).crossing_change(p) == d

    def test_preserves_structure(self):
        hopf = parse_pd(HOPF)
        flipped = hopf.crossing_change(0)
        assert flipped.c == hopf.c and flipped.r == 2
        assert flipped.edges == hopf.edges
        assert all(flipped.delta_p(p) == hopf.delta_p(p) for p in range(2))

    def test_writhe_flip_on_kink(self):
        kink = parse_pd(KINK)
        assert kink.writhe((1,)) == -kink.crossing_change(0).writhe((1,))


class TestWritheAndMirror:
    def test_positive_kink(self):
        kink = parse_pd(KINK)
        assert kink.writhe((1,)) == 1
        assert kink.writhe((-1,)) == 1  # self-crossing signs ignore direction

    def test_hopf_admits_all_positive_orientation(self):
        hopf = parse_pd(HOPF)
        writhes = {o: hopf.writhe(o) for o in itertools.product((1, -1), repeat=2)}
        assert 2 in writhes.values() and -2 in writhes.values()
        o = next(o for o, w in writhes.items() if w == 2)
        arrivals = reference_strand_arrivals(reference_orbits(hopf))
        assert all(reference_sign(hopf, arrivals, p, o) == 1 for p in range(2))

    def test_crossing_change_writhe_identity(self):
        for seed in range(10):
            d = random_diagram(seed, 6)
            arrivals = reference_strand_arrivals(reference_orbits(d))
            o = (1,) * d.r
            for p in range(d.c):
                sign = reference_sign(d, arrivals, p, o)
                assert d.crossing_change(p).writhe(o) == d.writhe(o) - 2 * sign

    def test_mirror_involution_and_fixed_points(self):
        for pd in (UNKNOT, KINK, HOPF, TREFOIL):
            d = parse_pd(pd)
            assert d.mirror().mirror() == d
        assert parse_pd(UNKNOT).mirror() == parse_pd(UNKNOT)

    def test_mirror_negates_writhe(self):
        for seed in range(10):
            d = random_diagram(seed, 6)
            o = (1,) * d.r
            assert d.mirror().writhe(o) == -d.writhe(o)

    def test_orientation_validation(self):
        with pytest.raises(DiagramError):
            parse_pd(HOPF).writhe((1,))
        with pytest.raises(DiagramError):
            parse_pd(KINK).writhe((0,))
        for bad in (True, False, 1.0, -1.0, "1", None):
            with pytest.raises(DiagramError, match="must be \\+1 or -1"):
                parse_pd(HOPF).writhe((bad, bad))
            with pytest.raises(DiagramError, match="must be \\+1 or -1"):
                kauffman_F(parse_pd(HOPF), (1, bad))
        for bad in (1, None):  # not a sequence at all
            with pytest.raises(DiagramError, match="is not a sequence"):
                parse_pd(HOPF).writhe(bad)
            with pytest.raises(DiagramError, match="is not a sequence"):
                kauffman_F(parse_pd(KINK), bad)


class TestSumsAndUnions:
    def test_disjoint_union_counts(self):
        O = parse_pd(UNKNOT)
        assert disjoint_union(O, O).r == 2
        both = disjoint_union(parse_pd(HOPF), parse_pd(TREFOIL))
        assert (both.c, both.r) == (5, 3)

    def test_piece_diagrams_undo_disjoint_union(self):
        hopf, tre = parse_pd(HOPF), parse_pd(TREFOIL)
        both = disjoint_union(disjoint_union(hopf, parse_pd("O O")), tre)
        first, second = piece_diagrams(both)
        assert first == hopf
        assert second.to_pd() == "X(5,8,6,9) X(7,10,8,5) X(9,6,10,7)"
        assert (second.c, second.r, second.free_loops) == (3, 1, 0)
        assert piece_diagrams(parse_pd(UNKNOT)) == ()

    def test_connected_sum_of_unknots(self):
        O = parse_pd(UNKNOT)
        s = connected_sum(O, O)
        assert (s.c, s.r) == (0, 1)

    def test_connected_sum_counts(self):
        tre = parse_pd(TREFOIL)
        assert connected_sum(tre, tre).c == 6
        assert connected_sum(tre, tre).r == 1
        hopf = parse_pd(HOPF)
        assert connected_sum(tre, hopf).r == 2

    def test_connected_sum_all_edges(self):
        tre = parse_pd(TREFOIL)
        hopf = parse_pd(HOPF)
        for e in tre.edge_labels():
            for e2 in hopf.edge_labels():
                s = connected_sum(tre, hopf, e, e2)
                assert (s.c, s.r) == (5, 2)
                assert s.is_planar()

    def test_connected_sum_invalid_edge(self):
        with pytest.raises(DiagramError):
            connected_sum(parse_pd(TREFOIL), parse_pd(HOPF), 99, 1)


class TestFaces:
    @pytest.mark.parametrize(
        "pd,nfaces", [(KINK, 3), (HOPF, 4), (TREFOIL, 5), (FIGURE8, 6)]
    )
    def test_face_counts(self, pd, nfaces):
        assert len(parse_pd(pd).faces()) == nfaces

    def test_euler_on_randoms(self):
        for seed in range(20):
            assert random_diagram(seed, 7).is_planar()

    def test_faces_shared_by_crossing_changes_and_mirror(self):
        d = parse_pd(FIGURE8)
        assert d.faces() is d.crossing_change(0).faces() is d.mirror().faces()

    def test_faces_match_the_dart_loop_reference(self):
        diagrams = [entry.diagram() for entry in CATALOG.values()]
        diagrams += [random_diagram(seed, 10, walk_steps=30) for seed in range(60)]
        for d in diagrams:
            assert d.faces() == reference_faces(d), d.to_pd()

    def test_is_planar_on_a_non_planar_rotation_system(self):
        # the rotation system of "X(1,1,2,2) X(4,3,4,3)", which parse_pd rejects
        edges = [
            (1, (0, 0), (0, 1)),
            (2, (0, 2), (0, 3)),
            (3, (1, 1), (1, 3)),
            (4, (1, 0), (1, 2)),
        ]
        d = Diagram((True, True), edges)
        assert d.faces() == reference_faces(d)
        assert not d.is_planar()
        assert not d.crossing_change(1).is_planar()

    def test_flat_planarity_equals_the_euler_count_over_faces(self):
        diagrams = [entry.diagram() for entry in CATALOG.values()]
        diagrams += [random_diagram(seed, 10, walk_steps=30) for seed in range(60)]
        # the rotation system of "X(1,1,2,2) X(4,3,4,3)", which parse_pd rejects
        odd = Diagram(
            (True, True),
            [(1, (0, 0), (0, 1)), (2, (0, 2), (0, 3)), (3, (1, 1), (1, 3)), (4, (1, 0), (1, 2))],
        )
        diagrams += [odd, disjoint_union(parse_pd(TREFOIL), odd), disjoint_union(odd, odd)]
        # twisted: ports 0 and 1 of crossing 0 trade their edges
        swap = {(0, 0): (0, 1), (0, 1): (0, 0)}
        diagrams += [
            Diagram(d.crossings, [(e, swap.get(a, a), swap.get(b, b)) for e, a, b in d.edges])
            for d in diagrams[:: 3]
            if d.c
        ]
        planar = [d.is_planar() for d in diagrams]
        assert planar == [euler_planar(d) for d in diagrams]
        assert 5 < planar.count(False) < len(diagrams) - 60

    def test_parsing_builds_no_faces(self):
        for pd in (KINK, HOPF, TREFOIL, FIGURE8, UNKNOT):
            proj = parse_pd(pd)._proj
            assert "faces" not in vars(proj)  # the cached property is still unset

    def test_face_darts_partition(self):
        d = parse_pd(TREFOIL)
        darts = [dart for face in d.faces() for dart in face]
        assert len(darts) == 2 * len(d.edges)
        assert len(set(darts)) == len(darts)


def reference_faces(d: Diagram) -> tuple:
    """Faces traced dart by dart from the sorted dart list: the reference
    for the face trace shared by a projection."""
    darts = sorted((label, head) for label, a, b in d.edges for head in (a, b))
    out = []
    visited = set()
    ports = port_map(d)
    for start in darts:
        if start in visited:
            continue
        face = []
        cur = start
        while True:
            face.append(cur)
            visited.add(cur)
            ci, pi = cur[1]
            cur = ports[(ci, (pi + 1) % 4)]
            if cur == start:
                break
        out.append(tuple(face))
    return tuple(out)


def euler_planar(d: Diagram) -> bool:
    """V - E + F = 2 on every connected piece, counting the faces of
    ``faces()``: the reference for the flat planarity check."""
    pieces = d.connected_pieces()
    where = {ci: k for k, piece in enumerate(pieces) for ci in piece}
    counts = [0] * len(pieces)
    for face in d.faces():
        counts[where[face[0][1][0]]] += 1
    return all(counts[k] == len(piece) + 2 for k, piece in enumerate(pieces))


class TestValidation:
    def test_port_reuse_rejected(self):
        kink = parse_pd(KINK)
        with pytest.raises(DiagramError):
            Diagram(kink.crossings, kink.edges + ((9, (0, 0), (0, 1)),), 0)

    def test_missing_port_rejected(self):
        with pytest.raises(DiagramError):
            Diagram(parse_pd(KINK).crossings, (), 0)

    @pytest.mark.parametrize(
        "bad", [OneFlag(True), (True,), [True], 1, OneFlag(False), 0, None, "no", 1.0]
    )
    def test_crossing_entries_are_checked(self, bad):
        # an over flag is a bool, not something that merely tests true
        kink = parse_pd(KINK)
        with pytest.raises(DiagramError, match="over flag .* is not a bool"):
            Diagram((bad,), kink.edges)

    @pytest.mark.parametrize("loops", [1.5, 1.0, "2", True, False, None])
    def test_free_loop_counts_are_checked(self, loops):
        with pytest.raises(DiagramError, match="free-loop count .* is not an int"):
            Diagram((), (), loops)
        kink = parse_pd(KINK)
        with pytest.raises(DiagramError, match="free-loop count .* is not an int"):
            Diagram(kink.crossings, kink.edges, loops)

    def test_a_negative_free_loop_count_is_refused(self):
        kink = parse_pd(KINK)
        with pytest.raises(DiagramError, match="nonnegative"):
            Diagram(kink.crossings, kink.edges, -1)

    @pytest.mark.parametrize("labels", [(-5, 7), (0, 3), (1.5, 7), (True, 2), ("a", "b")])
    def test_edge_labels_are_checked(self, labels):
        # parse_pd takes positive integers only; the constructor must too
        kink = parse_pd(KINK)
        a, b = labels
        with pytest.raises(DiagramError, match="positive integer"):
            Diagram(kink.crossings, ((a, (0, 0), (0, 1)), (b, (0, 2), (0, 3))))

    @pytest.mark.parametrize(
        "port", [(0, True), (False, 1), (0, 1.0), (0.0, 1), [0, 1], (0,), (0, 1, 2), "01", None]
    )
    def test_port_entries_are_checked(self, port):
        # a port is a pair of ints; a bool would be stored as an index
        with pytest.raises(DiagramError, match="edge 1 joins .*, not two pairs of ints"):
            Diagram((True,), [(1, (0, 0), port), (2, (0, 2), (0, 3))])
        with pytest.raises(DiagramError, match="edge 1 joins .*, not two pairs of ints"):
            Diagram((True,), [(1, port, (0, 0)), (2, (0, 2), (0, 3))])

    def test_constructor_refuses_the_empty_diagram(self):
        # no crossing and no free loop: outside the theory, and so no
        # diagram has the shape code (0,)
        with pytest.raises(DiagramError, match="empty diagram"):
            Diagram((), (), 0)

    def test_crossings_are_stored_as_a_tuple(self):
        kink = parse_pd(KINK)
        d = Diagram(list(kink.crossings), kink.edges)
        assert d.crossings == kink.crossings and type(d.crossings) is tuple
        assert d == kink and hash(d) == hash(kink)

    @pytest.mark.parametrize("p", [-1, 3])
    def test_pd_quadruple_of_a_missing_crossing_rejected(self, p):
        with pytest.raises(DiagramError):
            parse_pd(TREFOIL).pd_quadruple(p)

    @pytest.mark.parametrize(
        "method",
        ["splice", "crossing_change", "erase_crossings", "delta_p", "delta_shift", "pd_quadruple"],
    )
    @pytest.mark.parametrize("p", [1.0, 0.5, True, False, "1", None])
    def test_a_crossing_index_is_an_int(self, method, p):
        # a bool is an int, but True is not crossing 1
        d = parse_pd(TREFOIL)
        call = {
            "splice": lambda: d.splice(p, "A"),
            "crossing_change": lambda: d.crossing_change(p),
            "erase_crossings": lambda: d.erase_crossings({p, 2}),
            "delta_p": lambda: d.delta_p(p),
            "delta_shift": lambda: d.delta_shift(p, "A"),
            "pd_quadruple": lambda: d.pd_quadruple(p),
        }[method]
        with pytest.raises(DiagramError, match="is not an int"):
            call()


def reference_eliminate(d: Diagram, removed: set, bridges: dict) -> Diagram:
    """Crossing removal as the package did it before removal became a
    local edit: every edge is rebuilt along maximal edge-bridge chains
    between surviving ports.  Kept as the reference for ``splice`` and
    ``erase_crossings``."""
    ports = port_map(d)
    new_index = {}
    for ci in range(d.c):
        if ci not in removed:
            new_index[ci] = len(new_index)

    def remap(port):
        return (new_index[port[0]], port[1])

    new_edges = []
    done = set()
    used_internal = set()
    for label, a, b in d.edges:
        for start in (a, b):
            if start[0] in removed or start in done:
                continue
            labels = []
            cur = start
            while True:
                lab, other = ports[cur]
                labels.append(lab)
                if other[0] not in removed:
                    end = other
                    break
                used_internal.add(other)
                cur = bridges[other]
                used_internal.add(cur)
            done.add(start)
            done.add(end)
            new_edges.append((min(labels), remap(start), remap(end)))

    loops = d.free_loops
    remaining = {
        (ci, pi) for ci in removed for pi in range(4) if (ci, pi) not in used_internal
    }
    while remaining:
        start = min(remaining)
        cur = start
        while True:
            remaining.discard(cur)
            _, other = ports[cur]
            remaining.discard(other)
            nxt = bridges[other]
            remaining.discard(nxt)
            if nxt == start:
                break
            cur = nxt
        loops += 1

    crossings = tuple(x for ci, x in enumerate(d.crossings) if ci not in removed)
    return Diagram(crossings, tuple(new_edges), loops)


_REFERENCE_PAIRS = {"A": ((0, 1), (2, 3)), "B": ((0, 3), (1, 2)), "straight": ((0, 2), (1, 3))}


def reference_bridges(removed, kind: str) -> dict:
    bridges = {}
    for p in removed:
        for i, j in _REFERENCE_PAIRS[kind]:
            bridges[(p, i)] = (p, j)
            bridges[(p, j)] = (p, i)
    return bridges


@pytest.fixture(scope="module")
def removal_diagrams():
    """The catalog and two seeded 9- and 10-crossing walks per seed."""
    out = [entry.diagram() for entry in CATALOG.values()]
    for seed in range(200):
        for max_c in (9, 10):
            out.append(random_diagram(seed, max_c, walk_steps=30))
    return out


class TestLocalRemoval:
    def test_splice_matches_reference(self, removal_diagrams):
        cases = 0
        for d in removal_diagrams:
            for p in range(d.c):
                for kind in "AB":
                    expected = reference_eliminate(d, {p}, reference_bridges({p}, kind))
                    assert d.splice(p, kind) == expected
                    cases += 1
        assert cases > 4000

    def test_erase_matches_reference(self, removal_diagrams):
        cases = 0
        for d in removal_diagrams:
            erased = [set(range(d.c))]  # the whole diagram: its components become free loops
            for p in range(d.c):
                erased += [{p, (p + 1) % d.c}, {p, (p + 1) % d.c, (p + 2) % d.c}]
            for gone in erased:
                expected = reference_eliminate(d, gone, reference_bridges(gone, "straight"))
                assert d.erase_crossings(gone) == expected
                cases += 1
            assert d.erase_crossings(range(d.c)) == Diagram((), (), d.r)
        assert cases > 4000

    def test_port_state_edits_keep_their_kinks(self, removal_diagrams):
        # a state updates its kink ports at each removal and never scans
        # for them, so they must stay the kinks of the diagram it holds
        cases = 0
        for d in removal_diagrams:
            edits = [((p,), kind) for p in range(d.c) for kind in "AB"]
            edits += [(bigon, "erase") for bigon in bigon_sites(d)]
            for gone, kind in edits:
                s = _PortState(_State.of(d))
                if kind == "erase":
                    s.erase(*gone)
                    expected = d.erase_crossings(gone)
                else:
                    s.splice(gone[0], kind)
                    expected = d.splice(gone[0], kind)
                kept = [c for c in range(d.c) if c not in gone]
                assert state_diagram(s) == expected
                assert sorted(s.labels[x] for x in s.kinks) == [
                    label for _, label, _ in kink_sites(expected)
                ]
                assert_node_equals(s.node(kept, s.loops), expected)
                cases += 1
        assert cases > 4000


class TestSharedProjection:
    def test_crossing_change_shares_components(self):
        for seed in range(10):
            d = random_diagram(seed, 8)
            for p in range(d.c):
                assert d.crossing_change(p).components is d.components
            assert d.mirror().components is d.components

    def test_double_flip_is_equal_with_equal_hash(self):
        for seed in range(10):
            d = random_diagram(seed, 8)
            for p in range(d.c):
                twice = d.crossing_change(p).crossing_change(p)
                assert twice == d and hash(twice) == hash(d)
                assert d.crossing_change(p) != d
            assert d.mirror().mirror() == d and hash(d.mirror().mirror()) == hash(d)

    def test_projection_stays_out_of_equality_and_repr(self):
        d = parse_pd(TREFOIL)
        rebuilt = Diagram(d.crossings, d.edges, d.free_loops)
        assert rebuilt == d and hash(rebuilt) == hash(d)
        assert "_proj" not in repr(d)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_flip_first_encounter_matches_fresh(self, name):
        pd = CATALOG[name].pd
        d = parse_pd(pd)
        bases = list(enumerate_bases(d))[:40]
        for base in bases:
            first_encounter(d, base)  # build the components the flips share
        for p in range(d.c):
            flipped = d.crossing_change(p)
            fresh = parse_pd(pd).crossing_change(p)
            for base in bases:
                assert first_encounter(flipped, base) == first_encounter(fresh, base)

    def test_first_encounter_rejects_another_diagrams_base(self):
        hopf = parse_pd(HOPF)
        first_encounter(hopf, canonical_base(hopf))
        trefoil_base = canonical_base(parse_pd(TREFOIL))
        with pytest.raises(DiagramError):
            first_encounter(hopf.crossing_change(0), trefoil_base)


    def test_hash_is_equal_exactly_when_the_diagrams_are(self):
        # each diagram is hashed before anything is derived from it, so a
        # hash cached on one diagram and carried to a flip would show
        for seed in range(20):
            d = random_diagram(seed, 8)
            hash(d)
            mirror = d.mirror()
            hash(mirror)
            family = [d, mirror, mirror.mirror(), Diagram(d.crossings, d.edges, d.free_loops)]
            for p in range(d.c):
                flipped = d.crossing_change(p)
                hash(flipped)
                family += [
                    flipped,
                    flipped.crossing_change(p),
                    mirror.crossing_change(p),
                    Diagram(flipped.crossings, flipped.edges, flipped.free_loops),
                ]
            for x, y in itertools.product(family, repeat=2):
                assert (x == y) == (hash(x) == hash(y))


def reference_orbits(d: Diagram) -> list[tuple[tuple[int, tuple[int, int]], ...]]:
    """The canonical traversal as the package derived it before it became
    one walk over the port array: per component, in order of its lowest
    edge, the (edge label, arrival port) orbit traced through the port
    map of ``d.edges`` from that edge's lower port.  Kept as the reference
    for ``r``, the canonical first-encounter order and ``writhe``."""
    ports = port_map(d)
    orbits = []
    seen = set()
    for label, a, _ in d.edges:
        if label in seen:
            continue
        start = (label, a)
        orbit = [start]
        ci, pi = a
        cur = ports[(ci, (pi + 2) % 4)]
        while cur != start:
            orbit.append(cur)
            ci, pi = cur[1]
            cur = ports[(ci, (pi + 2) % 4)]
        seen.update(e for e, _ in orbit)
        orbits.append(tuple(orbit))
    return orbits


def reference_strand_arrivals(orbits) -> dict:
    """(crossing, strand parity) -> (component index, canonical arrival port)."""
    return {(ci, pi % 2): (k, (ci, pi)) for k, orbit in enumerate(orbits) for _, (ci, pi) in orbit}


def reference_first_encounter(orbits) -> tuple:
    seen = set()
    found = []
    for orbit in orbits:
        for _, (ci, pi) in orbit:
            if ci not in seen:
                seen.add(ci)
                found.append((ci, pi % 2))
    return tuple(found)


def reference_sign(d: Diagram, arrivals: dict, p: int, orientation) -> int:
    """Sign of crossing ``p``: +1 when the under-strand direction maps to
    the over-strand direction by a counterclockwise quarter turn."""

    def leaving(parity):
        comp, (_, pi) = arrivals[(p, parity)]
        return (pi + 2) % 4 if orientation[comp] == 1 else pi

    over = 1 if d.crossings[p] else 0
    return 1 if leaving(over) == (leaving(1 - over) + 1) % 4 else -1


def reference_writhe(d: Diagram, arrivals: dict, orientation) -> int:
    return sum(reference_sign(d, arrivals, p, orientation) for p in range(d.c))


def _spliced_down(d: Diagram, rng: random.Random) -> list[Diagram]:
    """``d`` and every diagram on one random path of splices down to no
    crossings, as the oracle meets them on the way to its leaves."""
    out = [d]
    while d.c:
        d = d.splice(rng.randrange(d.c), rng.choice("AB"))
        out.append(d)
    return out


@pytest.fixture(scope="module")
def random_set():
    """``random_diagram(s, 12, walk_steps=30)`` for s < 60, their mirror
    images, and every single crossing change of each."""
    out = []
    for seed in range(60):
        d = random_diagram(seed, 12, walk_steps=30)
        out += [d, d.mirror()] + [d.crossing_change(p) for p in range(d.c)]
    return out


@pytest.fixture(scope="module")
def walk_cases(random_set):
    """The random set, the catalog, 3-component links walked from three
    free loops, and diagrams with free loops from splicing random
    diagrams down."""
    out = list(random_set) + [entry.diagram() for entry in CATALOG.values()]
    for seed in range(40):
        link, _ = random_move_walk(parse_pd("O O O"), 30, seed, 10)
        out += [link, link.mirror()]
    rng = random.Random(11)
    for seed in range(60):
        out += _spliced_down(random_diagram(seed, 10, walk_steps=30), rng)
    return out


class TestCanonicalWalk:
    def test_cases_cover_links_and_free_loops(self, walk_cases):
        assert sum(d.r == 3 and d.c > 0 for d in walk_cases) >= 20
        assert sum(d.free_loops >= 2 and d.c > 0 for d in walk_cases) >= 20

    def test_component_count_matches_reference(self, walk_cases):
        for d in walk_cases:
            orbits = reference_orbits(d)
            assert d.r == len(orbits) + d.free_loops
            assert [comp.orbit for comp in d.components if comp.orbit] == orbits

    def test_visits_match_reference_orbits(self, walk_cases):
        for d in walk_cases:
            expected = [tuple(4 * ci + pi for _, (ci, pi) in orbit) for orbit in reference_orbits(d)]
            assert list(d._proj.walk.visits) == expected

    def test_canonical_first_encounter_matches_reference(self, walk_cases):
        for d in walk_cases:
            expected = reference_first_encounter(reference_orbits(d))
            assert d._proj.walk.encounters == expected
            assert first_encounter(d, canonical_base(d)) == expected
            assert base_orientation(d, canonical_base(d)) == (1,) * d.r

    def test_writhe_and_delta_match_reference_under_every_orientation(self, walk_cases):
        checked = 0
        for d in walk_cases:
            arrivals = reference_strand_arrivals(reference_orbits(d))
            if d.r <= 3:
                orientations = list(itertools.product((1, -1), repeat=d.r))
            else:
                orientations = [(1,) * d.r, (-1,) + (1,) * (d.r - 1)]
            for o in orientations:
                assert d.writhe(o) == reference_writhe(d, arrivals, o)
                checked += 1
            for p in range(d.c):
                assert d.delta_p(p) == int(arrivals[(p, 0)][0] != arrivals[(p, 1)][0])
        assert checked > 3000


def reference_base_walk(d: Diagram, base: tuple[BaseEntry, ...]) -> tuple[tuple, tuple]:
    """First-encounter order and component directions of a base, each
    entry's strand traced through ``port_map(d)`` from its start dart; a
    direction is +1 when that dart lies on the reference canonical orbit."""
    ports = port_map(d)
    orbits = reference_orbits(d)
    signs = [1] * d.r
    seen = set()
    found = []
    for entry in base:
        if entry.edge is None:
            continue
        start = cur = (entry.edge, entry.toward)
        if start not in orbits[entry.component]:
            signs[entry.component] = -1
        while True:
            ci, pi = cur[1]
            if ci not in seen:
                seen.add(ci)
                found.append((ci, pi % 2))
            cur = ports[(ci, (pi + 2) % 4)]
            if cur == start:
                break
    return tuple(found), tuple(signs)


class TestBaseWalk:
    def test_every_start_and_direction_in_a_permuted_order(self, walk_cases):
        rng = random.Random(5)
        checked = 0
        for d in walk_cases:
            choices = []
            for k, comp in enumerate(d.components):
                if not comp.orbit:
                    choices.append([BaseEntry(k, None, None)])
                    continue
                choices.append(
                    [BaseEntry(k, e, end) for e in comp.edges for end in d.edge_map[e]]
                )
            for j in range(max((len(c) for c in choices), default=0)):
                entries = [c[j % len(c)] for c in choices]
                rng.shuffle(entries)
                base = tuple(entries)
                encounters, signs = reference_base_walk(d, base)
                assert first_encounter(d, base) == encounters
                assert base_orientation(d, base) == signs
                checked += 1
        assert checked > 10000


class TestRemovalKeepsCanonicalStorage:
    def test_removal_stores_edges_as_the_constructor_does(self, random_set):
        cases = 0
        for d in random_set:
            for p in range(d.c):
                outs = [d.splice(p, "A"), d.splice(p, "B"), d.erase_crossings({p})]
                if d.c > 1:
                    outs.append(d.erase_crossings({p, (p + 1) % d.c}))
                    outs.append(d.erase_crossings({p, (p + 1) % d.c, (p + 2) % d.c}))
                if p == 0:
                    outs.append(d.erase_crossings(range(d.c)))
                for out in outs:
                    rebuilt = Diagram(out.crossings, out.edges, out.free_loops)
                    assert out.edges == rebuilt.edges
                    assert hash(out) == hash(rebuilt)
                    cases += 1
        assert cases > 10000


def relabelled(d: Diagram, rng: random.Random) -> Diagram:
    """An isomorphic copy of ``d``: new edge labels, shuffled crossing
    indices, and the ports of each crossing rotated by a random turn,
    with the over flag flipped wherever the turn is odd."""
    labels = rng.sample(range(1, 10 * len(d.edges) + 10), len(d.edges))
    new_label = dict(zip(d.edge_labels(), labels))
    perm = list(range(d.c))
    rng.shuffle(perm)
    turn = [rng.randrange(4) for _ in range(d.c)]

    def port(p):
        return (perm[p[0]], (p[1] - turn[p[0]]) % 4)

    crossings = [None] * d.c
    for ci, x in enumerate(d.crossings):
        crossings[perm[ci]] = x != (turn[ci] % 2 == 1)
    edges = tuple((new_label[label], port(a), port(b)) for label, a, b in d.edges)
    return Diagram(tuple(crossings), edges, d.free_loops)


def is_connected(d: Diagram) -> bool:
    return len(d.connected_pieces()) + d.free_loops <= 1


def shape_code_cases():
    for name in sorted(CATALOG):
        yield pytest.param(CATALOG[name].diagram(), id=name)
    for seed in range(30):
        yield pytest.param(random_diagram(seed, 8), id=f"random{seed}")


class TestShapeCode:
    @pytest.mark.parametrize("d", list(shape_code_cases()))
    def test_unchanged_by_relabelling(self, d):
        rng = random.Random(d.to_pd())
        if not is_connected(d):
            with pytest.raises(DiagramError):
                d.shape_code()
            with pytest.raises(DiagramError):
                relabelled(d, rng).shape_code()
        pieces = (d,) if is_connected(d) else piece_diagrams(d)
        for piece in pieces:
            code = piece.shape_code()
            for _ in range(5):
                assert relabelled(piece, rng).shape_code() == code

    def test_relabelling_helper_keeps_the_table(self):
        for seed in range(10):
            d = random_diagram(seed, 8)
            copy = relabelled(d, random.Random(seed))
            assert coeff_table(copy) == coeff_table(d)

    def test_mirror_images_differ(self):
        trefoil = parse_pd(TREFOIL)
        assert trefoil.mirror().shape_code() != trefoil.shape_code()
        kink = parse_pd(KINK)
        assert kink.mirror().shape_code() != kink.shape_code()

    def test_different_tables_give_different_codes(self):
        connected = [e.diagram() for e in CATALOG.values() if is_connected(e.diagram())]
        for d1, d2 in itertools.combinations(connected, 2):
            if coeff_table(d1) != coeff_table(d2):
                assert d1.shape_code() != d2.shape_code()

    def test_equal_codes_give_equal_tables(self):
        by_code = {}
        for seed in range(60):
            for piece in piece_diagrams(random_diagram(seed, 7)):
                by_code.setdefault(piece.shape_code(), []).append(piece)
        shared = [group for group in by_code.values() if len(group) > 1]
        assert shared
        for group in shared:
            assert len({str(coeff_table(d)) for d in group}) == 1

    def test_crossing_free_codes(self):
        assert parse_pd(UNKNOT).shape_code() == (1,)

    @pytest.mark.parametrize(
        "d",
        [
            Diagram((), (), 2),
            disjoint_union(parse_pd(TREFOIL), parse_pd(FIGURE8)),
            disjoint_union(parse_pd(HOPF), parse_pd(UNKNOT)),
        ],
        ids=["unlink2", "trefoil+figure8", "hopf+loop"],
    )
    def test_disconnected_diagram_raises(self, d):
        with pytest.raises(DiagramError):
            d.shape_code()
