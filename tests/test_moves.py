"""Move generators: exactness, invariance, determinism, replay."""

import itertools

import pytest

from kauffpoly.catalog import CATALOG
from kauffpoly.coeffs import coeff_table
from kauffpoly.diagram import Diagram, DiagramError, _PortState, _State, parse_pd
from kauffpoly.laurent import BivariatePoly
from kauffpoly.moves import (
    MoveSiteError,
    MoveStep,
    MoveTrace,
    apply_step,
    bigon_sites,
    cofacial_dart_pairs,
    kink_rule,
    kink_sites,
    r1_add,
    r1_remove,
    r2_add,
    r2_add_at,
    r2_remove,
    r3_apply,
    r3_sites,
    random_diagram,
    random_move_walk,
    replay,
)
from kauffpoly.series import kauffman_F, kauffman_L

UNKNOT = parse_pd("O")
KINK = "X(1,2,2,1)"
HOPF = "X(1,4,2,3) X(3,2,4,1)"
TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIGURE8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"


def kink_sign(d: Diagram, p: int) -> int:
    """Sign of the kink at crossing ``p``; independent of traversal direction."""
    for site in kink_sites(d):
        if site[0] == p:
            return kink_rule(d, site)[0]
    raise MoveSiteError(f"crossing {p} is not a kink")


class TestR1:
    def test_kink_on_free_loop(self):
        kinked = r1_add(UNKNOT, None, "+")
        assert (kinked.c, kinked.r, kinked.free_loops) == (1, 1, 0)
        assert kinked.writhe((1,)) == 1
        assert kink_sign(kinked, 0) == 1

    def test_chirality_fixes_writhe_for_any_orientation(self):
        tre = parse_pd(TREFOIL)
        for chirality, delta in (("+", 1), ("-", -1)):
            for side in "LR":
                kinked = r1_add(tre, 2, chirality, side)
                for o in ((1,), (-1,)):
                    assert kinked.writhe(o) == tre.writhe(o) + delta

    def test_table_scales_by_y(self):
        cache = {}
        for pd in (KINK, HOPF, TREFOIL):
            d = parse_pd(pd)
            base = coeff_table(d, cache=cache)
            for chirality, shift in (("+", 1), ("-", -1)):
                kinked = r1_add(d, d.edge_labels()[0], chirality)
                scaled = coeff_table(kinked, cache=cache)
                assert scaled.z_support() == base.z_support()
                for n in base.z_support():
                    assert scaled[n] == base[n].shift(shift)

    def test_add_remove_inverse(self):
        tre = parse_pd(TREFOIL)
        for e in tre.edge_labels():
            for chirality in "+-":
                for side in "LR":
                    kinked = r1_add(tre, e, chirality, side)
                    back = r1_remove(kinked, tre.c)
                    assert coeff_table(back) == coeff_table(tre)
                    assert back.c == tre.c
        assert r1_remove(r1_add(UNKNOT, None, "-"), 0) == UNKNOT

    def test_kink_sign_all_positions(self):
        # the four loop placements come from side choices on both ends
        seen = set()
        for chirality in "+-":
            for side in "LR":
                k = r1_add(UNKNOT, None, chirality, side)
                _, _, pair = kink_sites(k)[0]
                seen.add(pair)
                assert kink_sign(k, 0) == (1 if chirality == "+" else -1)
        assert len(seen) == 2

    def test_not_a_kink(self):
        with pytest.raises(MoveSiteError):
            r1_remove(parse_pd(HOPF), 0)
        with pytest.raises(MoveSiteError):
            kink_sign(parse_pd(HOPF), 1)

    @pytest.mark.parametrize("e", [99, 0, -1, 7, "1", 1.5, (1,)])
    def test_missing_edge_is_refused(self, e):
        with pytest.raises(MoveSiteError, match="no edge"):
            r1_add(parse_pd(TREFOIL), e, "+")

    def test_planarity_preserved(self):
        d = parse_pd(FIGURE8)
        assert r1_add(d, 3, "+", "L").is_planar()


class TestR2:
    def test_requires_shared_face(self):
        tre = parse_pd(TREFOIL)
        shared = {
            frozenset((d1[0], d2[0])) for d1, d2 in cofacial_dart_pairs(tre)
        }
        non_cofacial = [
            (e1, e2)
            for e1, e2 in itertools.combinations(tre.edge_labels(), 2)
            if frozenset((e1, e2)) not in shared
        ]
        assert non_cofacial, "trefoil should have non-cofacial edge pairs"
        with pytest.raises(MoveSiteError):
            r2_add(tre, *non_cofacial[0])

    def test_darts_on_no_common_face_are_rejected(self):
        tre = parse_pd(TREFOIL)
        darts = [dart for face in tre.faces() for dart in face]
        cofacial = set(cofacial_dart_pairs(tre))
        apart = [
            (d1, d2) for d1, d2 in itertools.permutations(darts, 2)
            if d1[0] != d2[0] and (d1, d2) not in cofacial
        ]
        assert len(apart) == 102 and ((1, (0, 0)), (3, (2, 3))) in apart
        for d1, d2 in apart:
            with pytest.raises(MoveSiteError, match="do not share a face"):
                r2_add_at(tre, d1, d2)
        step = MoveStep("r2_add", ((1, (0, 0)), (3, (2, 3)), True))
        with pytest.raises(MoveSiteError):
            apply_step(tre, step)
        with pytest.raises(MoveSiteError):
            replay(tre, [step])

    def test_add_counts_and_planarity(self):
        tre = parse_pd(TREFOIL)
        for d1, d2 in cofacial_dart_pairs(tre):
            for over in (True, False):
                out = r2_add_at(tre, d1, d2, over)
                assert (out.c, out.r) == (tre.c + 2, tre.r)
                assert out.is_planar()

    def test_tables_invariant(self):
        cache = {}
        tre = parse_pd(TREFOIL)
        expected = coeff_table(tre, cache=cache)
        for d1, d2 in cofacial_dart_pairs(tre)[:8]:
            out = r2_add_at(tre, d1, d2)
            assert coeff_table(out, cache=cache) == expected

    def test_add_remove_inverse(self):
        hopf = parse_pd(HOPF)
        for d1, d2 in cofacial_dart_pairs(hopf):
            out = r2_add_at(hopf, d1, d2)
            assert (hopf.c, hopf.c + 1) in bigon_sites(out)
            back = r2_remove(out, hopf.c, hopf.c + 1)
            assert back.c == hopf.c
            assert coeff_table(back) == coeff_table(hopf)

    def test_non_removable_bigon_rejected(self):
        tre = parse_pd(TREFOIL)
        d1, d2 = cofacial_dart_pairs(tre)[0]
        out = r2_add_at(tre, d1, d2)
        clasp = out.crossing_change(tre.c)  # now one over, one under
        assert (tre.c, tre.c + 1) not in bigon_sites(clasp)
        with pytest.raises(MoveSiteError):
            r2_remove(clasp, tre.c, tre.c + 1)

    def test_first_bigon_is_a_bigon_site(self):
        # the first bigon the coefficient engine finds on a port state
        found = missing = 0
        for seed in range(80):
            d = random_diagram(seed, 10, walk_steps=20)
            for variant in (d, d.mirror(), d.crossing_change(0) if d.c else d):
                sites = bigon_sites(variant)
                bigon = _PortState(_State.of(variant)).bigon()
                if sites:
                    assert bigon in sites, (seed, variant.to_pd())
                    found += 1
                else:
                    assert bigon is None, (seed, variant.to_pd())
                    missing += 1
        assert found and missing

    def test_bigon_sites_match_the_face_reference(self):
        found = 0
        for seed in range(80):
            d = random_diagram(seed, 10, walk_steps=20)
            variants = [d, d.mirror()] + [d.crossing_change(p) for p in range(d.c)]
            variants += [d.splice(p, kind) for p in range(d.c) for kind in "AB"]
            for variant in variants:
                sites = bigon_sites(variant)
                assert sites == face_bigon_sites(variant), (seed, variant.to_pd())
                found += bool(sites)
        assert found > 100


def face_bigon_sites(d: Diagram) -> tuple[tuple[int, int], ...]:
    """Removable R2 bigons traced face by face: the reference for the
    port scan behind ``bigon_sites`` and the engine's bigon search."""
    def over(ci, pi):
        return (pi % 2 == 1) == d.crossings[ci]

    out = []
    for face in d.faces():
        if len(face) != 2:
            continue
        (ea, ha), (eb, hb) = face
        u, v = ha[0], hb[0]
        if u == v or ea == eb:
            continue
        # side edge ea sits at port ha[1] of u and at the tail of the
        # first dart, i.e. port (hb[1]+1) of v
        if over(u, ha[1]) == over(v, (hb[1] + 1) % 4):
            out.append((min(u, v), max(u, v)))
    return tuple(sorted(set(out)))


class TestR3:
    def test_alternating_triangles_are_inadmissible(self):
        assert r3_sites(parse_pd(TREFOIL)) == ()
        assert r3_sites(parse_pd(FIGURE8)) == ()

    def test_flipped_trefoil_sites(self):
        sites = []
        for flip in range(3):
            sites.extend(r3_sites(parse_pd(TREFOIL).crossing_change(flip)))
        assert sites

    def test_apply_preserves_everything(self):
        cache = {}
        for flip in range(3):
            d = parse_pd(TREFOIL).crossing_change(flip)
            expected = coeff_table(d, cache=cache)
            for face, k in r3_sites(d):
                out = r3_apply(d, face, k)
                assert out.is_planar()
                assert (out.c, out.r) == (d.c, d.r)
                assert out.writhe((1,)) == d.writhe((1,))
                assert out.crossings == d.crossings
                assert coeff_table(out, cache=cache) == expected

    def test_involution(self):
        d = parse_pd(TREFOIL).crossing_change(0)
        for face, k in r3_sites(d):
            out = r3_apply(d, face, k)
            assert any(
                r3_apply(out, f2, k2) == d for f2, k2 in r3_sites(out)
            )

    def test_bad_site_rejected(self):
        d = parse_pd(TREFOIL).crossing_change(0)
        sites = r3_sites(d)
        face, k = sites[0]
        bad_sliders = [j for j in range(3) if (tuple(face), j) not in sites]
        assert bad_sliders, "expected some side of the triangle to be blocked"
        with pytest.raises(MoveSiteError):
            r3_apply(d, face, bad_sliders[0])

    def test_r3_sites_match_the_face_reference(self):
        diagrams = [entry.diagram() for entry in CATALOG.values()]
        starts = [UNKNOT, parse_pd("O O O")] + diagrams
        for start in starts:
            for max_c in (7, 10, 12):
                for seed in range(150):
                    diagrams.append(random_move_walk(start, 12, seed, max_c)[0])
        found = 0
        for d in diagrams:
            for variant in (d, d.mirror()):
                sites = r3_sites(variant)
                assert sites == reference_r3_sites(variant), variant.to_pd()
                found += bool(sites)
        assert len(diagrams) == 6312 and 1000 < found < 2 * len(diagrams)


def reference_r3_sites(d: Diagram) -> tuple[tuple[tuple, int], ...]:
    """R3 sites traced face by face: the reference for the port scan
    behind ``r3_sites`` and the walks' R3 test."""
    def over(ci, pi):
        return (pi % 2 == 1) == d.crossings[ci]

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
            if over(y[0], (y[1] + 1) % 4) == over(z[0], z[1]):
                out.append((tuple(face), k))
    return tuple(out)


def assert_stored_canonically(d: Diagram) -> None:
    """``d`` stores its edges as the constructor would, under int labels."""
    rebuilt = Diagram(d.crossings, d.edges, d.free_loops)
    assert d.edges == rebuilt.edges and hash(d) == hash(rebuilt), d.to_pd()
    assert all(type(label) is int for label, _, _ in d.edges), d.edges


class TestCanonicalStorage:
    def test_every_move_stores_edges_as_the_constructor_does(self):
        diagrams = [entry.diagram() for entry in CATALOG.values()]
        diagrams += [random_diagram(seed, 8, walk_steps=20) for seed in range(15)]
        cases = 0
        for d in diagrams:
            refs = list(d.edge_labels()) + ([None] if d.free_loops else [])
            outs = [r1_add(d, e, ch, side) for e in refs for ch in "+-" for side in "LR"]
            outs += [
                r2_add_at(d, d1, d2, over)
                for d1, d2 in cofacial_dart_pairs(d)
                for over in (True, False)
            ]
            outs += [r3_apply(d, face, k) for face, k in r3_sites(d)]
            for out in outs:
                assert_stored_canonically(out)
            cases += len(outs)
        assert cases > 3000

    def test_a_bool_edge_reference_stores_the_stored_label(self):
        # True equals the label 1, so it names that edge, but the move
        # must store the diagram's own int label
        tre = parse_pd(TREFOIL)
        for chirality in "+-":
            for side in "LR":
                out = r1_add(tre, True, chirality, side)
                assert out == r1_add(tre, 1, chirality, side)
                assert_stored_canonically(out)
        pushed = 0
        for d1, d2 in cofacial_dart_pairs(tre):
            if 1 not in (d1[0], d2[0]):
                continue
            as_bool = [(True, h) if e == 1 else (e, h) for e, h in (d1, d2)]
            out = r2_add_at(tre, *as_bool)
            assert out == r2_add_at(tre, d1, d2)
            assert_stored_canonically(out)
            pushed += 1
        assert pushed >= 4


class TestWalks:
    def test_zero_steps(self):
        end, trace = random_move_walk(parse_pd(TREFOIL), 0, 7, 8)
        assert end == parse_pd(TREFOIL)
        assert trace.steps == ()
        assert trace.net_r1 == 0

    def test_empty_diagram_rejected(self):
        with pytest.raises(DiagramError, match="empty diagram"):
            random_move_walk(Diagram((), (), 0), 3, 1, 5)

    def test_deterministic(self):
        tre = parse_pd(TREFOIL)
        a = random_move_walk(tre, 15, 42, 9)
        b = random_move_walk(tre, 15, 42, 9)
        assert a == b
        c = random_move_walk(tre, 15, 43, 9)
        assert a != c

    def test_replay_reproduces_end(self):
        for seed in range(12):
            start = parse_pd(FIGURE8)
            end, trace = random_move_walk(start, 14, seed, 9)
            assert replay(start, trace.steps) == end

    def test_max_crossings_respected(self):
        start = parse_pd(TREFOIL)
        for seed in range(10):
            cur = start
            for step in random_move_walk(start, 20, seed, 7)[1].steps:
                cur = apply_step(cur, step)
                assert cur.c <= 7

    def test_net_r1_matches_writhe_change_on_knots(self):
        cache = {}
        for seed in range(15):
            start = parse_pd(TREFOIL)
            end, trace = random_move_walk(start, 12, seed, 9)
            assert end.writhe((1,)) - start.writhe((1,)) == trace.net_r1

    def test_trace_json_roundtrip(self):
        _, trace = random_move_walk(parse_pd(HOPF), 10, 3, 8)
        again = MoveTrace.from_json_obj(trace.to_json_obj())
        assert again == trace
        assert replay(parse_pd(HOPF), again.steps) == replay(
            parse_pd(HOPF), trace.steps
        )

    def test_l_scaling_and_f_invariance(self):
        cache = {}
        for seed in range(10):
            start = parse_pd(FIGURE8)
            end, trace = random_move_walk(start, 10, seed, 9)
            L_start = kauffman_L(start, cache=cache)
            L_end = kauffman_L(end, cache=cache)
            assert L_end == L_start.shift_y(trace.net_r1)
            assert kauffman_F(end, (1,), cache=cache) == kauffman_F(
                start, (1,), cache=cache
            )


class TestRandomDiagrams:
    def test_deterministic(self):
        assert random_diagram(5, 6) == random_diagram(5, 6)

    def test_respects_bound_and_planarity(self):
        for seed in range(25):
            d = random_diagram(seed, 6)
            assert d.c <= 6
            assert d.is_planar()
