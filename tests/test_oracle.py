"""The whole-polynomial evaluator and the two-pipeline equality."""

import itertools
import random

import pytest

from test_coeffs import braid_closure
from test_diagram import count_builds
from test_verification import _hopf_chain

from kauffpoly import oracle
from kauffpoly.catalog import CATALOG
from kauffpoly.coeffs import BudgetExceededError, _Run
from kauffpoly.diagram import (
    Diagram,
    DiagramError,
    _PortState,
    connected_sum,
    disjoint_union,
    parse_pd,
)
from kauffpoly.laurent import BivariatePoly
from kauffpoly.moves import r1_add, random_diagram, random_move_walk
from kauffpoly.oracle import (
    _least_order,
    _least_warping,
    agree_at_y_one,
    oracle_L,
    oracle_L_with_base,
    uniqueness_check,
)
from kauffpoly.series import kauffman_L, unlink_factor
from kauffpoly.warping import (
    BaseEntry,
    enumerate_bases,
    warping_degree,
    warping_order,
)


#: Seven components, each passing over the next twice, so the canonical
#: order warps all twelve crossings and the reverse none.
SEVEN_RINGS = braid_closure(7, [1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6])


class NeverHits(dict):
    """A memo that stores but never answers: the unmemoised recursion."""

    def get(self, key, default=None):
        return None


KINK = "X(1,2,2,1)"
HOPF = "X(1,4,2,3) X(3,2,4,1)"
TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIGURE8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"

# pinned from the first verified run of the evaluator; cross-checked
# against the table pipeline and the mirror/product laws
TREFOIL_L = "-y^-1 - 2*y + y^-2*z + z + y^-1*z^2 + y*z^2"
FIGURE8_L = (
    "-y^-2 - 1 - y^2 - y^-1*z - y*z + y^-2*z^2 + 2*z^2 + y^2*z^2"
    " + y^-1*z^3 + y*z^3"
)
HOPF_L = "-y^-1*z^-1 - y*z^-1 + 1 + y^-1*z + y*z"


class TestOracleValues:
    def test_unknot(self):
        assert oracle_L(parse_pd("O")) == BivariatePoly.one()

    def test_two_component_unlink(self):
        assert oracle_L(Diagram((), (), 2)) == unlink_factor()

    @pytest.mark.parametrize("k", range(1, 6))
    def test_unlink_leaf_is_power_of_d(self, k):
        assert oracle_L(Diagram((), (), k)) == unlink_factor() ** (k - 1)

    @pytest.mark.parametrize(
        "pd,expected",
        [(TREFOIL, TREFOIL_L), (FIGURE8, FIGURE8_L), (HOPF, HOPF_L)],
    )
    def test_pinned_fixtures(self, pd, expected):
        assert str(oracle_L(parse_pd(pd))) == expected

    def test_kink_relation_on_augmented_diagrams(self):
        cache = {}
        for pd in (TREFOIL, HOPF):
            d = parse_pd(pd)
            base = oracle_L(d, cache=cache)
            for chirality, shift in (("+", 1), ("-", -1)):
                kinked = r1_add(d, d.edge_labels()[0], chirality)
                assert oracle_L(kinked, cache=cache) == base.shift_y(shift)

    def test_uses_none_of_the_engine_laws(self, monkeypatch):
        # the engine's kink, bigon, cut and split steps all run on a port
        # state; the oracle checks those laws, so it never makes one
        f8 = parse_pd(FIGURE8)
        f8f8 = connected_sum(f8, f8)
        d = disjoint_union(r1_add(f8f8, f8f8.edge_labels()[0], "+"), parse_pd(HOPF))
        expected = kauffman_L(d)

        def refuse(self, *args):
            raise AssertionError("the oracle made a port state")

        monkeypatch.setattr(_PortState, "__init__", refuse)
        assert oracle_L(d) == expected


class TestBaseInsensitivity:
    @pytest.mark.parametrize("pd", [KINK, HOPF, TREFOIL])
    def test_top_level_base_is_free(self, pd):
        d = parse_pd(pd)
        expected = oracle_L(d)
        for base in enumerate_bases(d):
            assert oracle_L_with_base(d, base) == expected


class TestUniqueness:
    @pytest.mark.parametrize("pd", [KINK, HOPF, TREFOIL, FIGURE8])
    def test_named_diagrams(self, pd):
        assert uniqueness_check(parse_pd(pd))

    def test_randoms(self):
        cache, tcache = {}, {}
        for seed in range(30):
            d = random_diagram(seed, 6)
            assert uniqueness_check(d, cache=cache, table_cache=tcache)

    def test_y_one_specialization(self):
        cache, tcache = {}, {}
        for seed in range(10):
            d = random_diagram(seed, 6)
            assert agree_at_y_one(d, cache=cache, table_cache=tcache)

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceededError):
            oracle_L(parse_pd(TREFOIL), budget=2)

    def test_cache_matches_reference_path(self):
        for seed in range(10):
            d = random_diagram(seed, 6)
            expected = oracle_L(d, cache=NeverHits())
            assert oracle_L(d, cache={}) == expected
            assert oracle_L(d) == expected

    def test_a_call_without_cache_expands_each_diagram_once(self):
        f8 = parse_pd(FIGURE8)
        d = connected_sum(f8, f8)
        cache = {}
        expected = oracle_L(d, cache=cache)
        n = len(cache)  # the distinct labelled diagrams the call expanded
        assert oracle_L(d, budget=n) == expected == oracle_L(d, cache=NeverHits())
        with pytest.raises(BudgetExceededError):
            oracle_L(d, budget=n - 1)

    def test_torus_knot_beyond_twelve_crossings(self):
        d = braid_closure(3, [1, 2] * 7)  # T(3,7), 14 crossings
        assert oracle_L(d) == kauffman_L(d)


def least(d: Diagram) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``_least_warping`` on a diagram's arrays and canonical walk."""
    proj = d._proj
    return _least_warping(d.crossings, proj.far_ports, proj.walk)


def least_degree(d: Diagram) -> int:
    """The least warping degree by brute force: every base, in every
    order of its entries."""
    return min(
        warping_degree(d, entries)
        for base in enumerate_bases(d)
        for entries in itertools.permutations(base)
    )


def base_from_starts(d: Diagram, starts) -> tuple[BaseEntry, ...]:
    """The base whose components are traversed from the given flat
    arrival ports, in that order, with the free loops after them."""
    entries = []
    for x in starts:
        port = (x >> 2, x & 3)
        edge = next(label for label, ends in d.edge_map.items() if port in ends)
        k = next(k for k, comp in enumerate(d.components) if edge in comp.edges)
        entries.append(BaseEntry(k, edge, port))
    entries += [BaseEntry(k, None, None) for k in range(len(starts), d.r)]
    return tuple(entries)


@pytest.fixture(scope="module")
def least_cases():
    """The catalog with every crossing change of its links, seeded
    random knots, and 3-component links walked from three free loops
    with every crossing change of each."""
    out = []
    for entry in CATALOG.values():
        d = entry.diagram()
        out += [d] + [d.crossing_change(p) for p in range(d.c) if d.r > 1]
    out += [random_diagram(seed, 7, walk_steps=25) for seed in range(40)]
    for seed in range(20):
        link, _ = random_move_walk(parse_pd("O O O"), 25, seed, 7)
        out += [link] + [link.crossing_change(p) for p in range(link.c)]
    return out


class TestLeastWarping:
    def test_cases_cover_three_component_links(self, least_cases):
        assert sum(d.r == 3 and d.c >= 5 for d in least_cases) >= 20

    def test_degree_is_the_least_over_all_bases_and_orders(self, least_cases):
        for d in least_cases:
            assert len(least(d)[1]) == least_degree(d), d.to_pd()

    def test_crossings_are_the_warping_order_of_their_base(self, least_cases):
        for d in least_cases:
            starts, warping = least(d)
            assert warping_order(d, base_from_starts(d, starts)) == warping, d.to_pd()

    def test_order_search_picks_the_first_least_permutation(self):
        rng = random.Random(22)
        tied = 0
        for m in range(1, oracle._MAX_PERMUTED + 1):
            for _ in range(60):
                high = rng.choice((0, 1, 2, 5))
                under = [
                    [0 if i == j else rng.randint(0, high) for j in range(m)] for i in range(m)
                ]

                def cost(perm):
                    return sum(under[i][j] for n, i in enumerate(perm) for j in perm[n + 1 :])

                perms = list(itertools.permutations(range(m)))
                least = min(map(cost, perms))
                assert tuple(_least_order(under)) == min(perms, key=cost), under
                tied += sum(cost(perm) == least for perm in perms) > 1
        assert tied > 150

    def test_beyond_the_order_search_keeps_the_canonical_order(self, monkeypatch):
        d = SEVEN_RINGS
        starts, warping = least(d)
        assert len(starts) == 7 > oracle._MAX_PERMUTED
        base = base_from_starts(d, starts)
        assert [entry.component for entry in base] == list(range(7))
        assert warping_order(d, base) == warping
        assert len(warping) == 12
        for link in [d] + [d.crossing_change(p) for p in range(d.c)]:
            assert oracle_L(link) == kauffman_L(link), link.to_pd()
        monkeypatch.setattr(oracle, "_MAX_PERMUTED", 7)
        assert least(d)[1] == ()


# ----------------------------------------------------------------------
# the recursion on array-built nodes against the one through the public API


def reference_oracle(d: Diagram, run: _Run) -> BivariatePoly:
    """The oracle's recursion through the public diagram operations: each
    node comes from ``splice`` or ``crossing_change``, is keyed in the
    memo by itself, and searches for its least base."""
    value = run.memo.get(d)
    if value is None:
        run.spend(d)
        value = run.memo[d] = reference_step(d, least(d)[1], run)
    return value


def reference_step(d: Diagram, warping: tuple[int, ...], run: _Run) -> BivariatePoly:
    if not warping:
        return (unlink_factor() ** (d.r - 1)).shift_y(d.writhe((1,) * d.r))
    p = warping[0]
    return -reference_oracle(d.crossing_change(p), run) + (
        reference_oracle(d.splice(p, "A"), run) + reference_oracle(d.splice(p, "B"), run)
    ).shift_z(1)


def random_link(seed: int) -> Diagram:
    """A 3-component link: a seeded move walk from three free loops,
    then coin-flip crossing changes."""
    d, _ = random_move_walk(parse_pd("O O O"), 30, seed, 10)
    rng = random.Random(f"flips:{seed}")
    for p in range(d.c):
        if rng.random() < 0.5:
            d = d.crossing_change(p)
    return d


CATALOG_DIAGRAMS = [entry.diagram() for entry in CATALOG.values()]
RANDOM_INPUTS = [random_diagram(s, 10, walk_steps=30) for s in range(25)] + [
    random_link(s) for s in range(25)
]
CHAINS = [_hopf_chain(rings) for rings in (6, 7, 8)]
#: Inputs, each group run with one shared memo.
GROUPS = {
    "catalog": CATALOG_DIAGRAMS,
    "random": RANDOM_INPUTS,
    **{f"chain{d.r}": [d] for d in CHAINS},
    "seven_rings": [SEVEN_RINGS] + [SEVEN_RINGS.crossing_change(p) for p in range(SEVEN_RINGS.c)],
}


@pytest.fixture(scope="module")
def reference_runs():
    """Per group: the reference values and the memo of the run."""
    out = {}
    for name, ds in GROUPS.items():
        run = _Run(ds[0], None, None)
        out[name] = ([reference_oracle(d, run) for d in ds], run.memo)
    return out


class TestFlatRecursion:
    @pytest.mark.parametrize("name", GROUPS)
    def test_values_and_memo_sizes_match_the_reference(self, name, reference_runs):
        expected, memo = reference_runs[name]
        cache = {}
        assert [oracle_L(d, cache=cache) for d in GROUPS[name]] == expected
        assert len(cache) == len(memo)

    def test_reference_node_counts(self, reference_runs):
        sizes = {name: len(memo) for name, (_, memo) in reference_runs.items()}
        assert sizes["catalog"] == 290
        assert (sizes["chain6"], sizes["chain7"], sizes["chain8"]) == (660, 3117, 12904)

    def test_with_base_matches_the_reference(self):
        cases = 0
        for d in CATALOG_DIAGRAMS:
            if d.c > 5:
                continue
            for base in enumerate_bases(d):
                cache = {}
                run = _Run(d, None, None)
                run.spend(d)
                expected = reference_step(d, warping_order(d, base), run)
                assert oracle_L_with_base(d, base, cache=cache) == expected
                assert len(cache) == len(run.memo)
                cases += 1
        assert cases >= 80

    @pytest.mark.parametrize("d", CATALOG_DIAGRAMS[4:] + RANDOM_INPUTS[::5] + CHAINS[:1])
    def test_budget_runs_out_at_the_same_node(self, d):
        run = _Run(d, None, None)
        reference_oracle(d, run)
        n = len(run.memo)
        assert oracle_L(d, budget=n) == reference_oracle(d, _Run(d, n, None))
        with pytest.raises(BudgetExceededError) as expected:
            reference_oracle(d, _Run(d, n - 1, None))
        with pytest.raises(BudgetExceededError) as got:
            oracle_L(d, budget=n - 1)
        for attr in ("crossings", "components", "at_crossings", "at_components", "limit"):
            assert getattr(got.value, attr) == getattr(expected.value, attr)
        assert str(got.value) == str(expected.value)

    def test_nodes_are_built_from_arrays_alone(self, monkeypatch):
        # a node is spliced as arrays: it runs none of the constructor's
        # checks, sorts no edges and never derives its edge tuple
        f8 = parse_pd(FIGURE8)
        d = connected_sum(f8, f8)
        expected = kauffman_L(f8) * kauffman_L(f8)
        calls = count_builds(monkeypatch)
        assert oracle_L(d) == expected
        assert calls["_from_arrays"] > 0
        calls["_from_arrays"] = 0
        assert calls == dict.fromkeys(calls, 0)
        d.crossing_change(0).splice(0, "A").edges  # the counters see these
        assert calls == dict(__post_init__=0, _from_arrays=1, crossing_change=1, edges=1)


class TestFlipChain:
    @pytest.mark.parametrize("name", GROUPS)
    def test_the_flip_keeps_the_least_base(self, name, reference_runs):
        _, memo = reference_runs[name]
        flips = 0
        for d in memo:
            starts, warping = least(d)
            if warping:
                assert least(d.crossing_change(warping[0])) == (starts, warping[1:]), d.to_pd()
                flips += 1
        assert flips >= len(memo) // 4

    def test_a_flip_expands_without_a_search(self, monkeypatch):
        # 96 of the catalog's 290 nodes are first met as the flip at their
        # parent's first warping crossing, and take its other ones
        calls = []
        real = oracle._least_warping

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(oracle, "_least_warping", counting)
        cache = {}
        for d in CATALOG_DIAGRAMS:
            oracle_L(d, cache=cache)
        assert (len(calls), len(cache)) == (194, 290)

    def test_the_seven_rings_keep_the_canonical_order(self, reference_runs):
        _, memo = reference_runs["seven_rings"]
        assert max(len(least(d)[0]) for d in memo) == 7 > oracle._MAX_PERMUTED


def array_built_cases():
    """Every splice of each catalog and random input and of each of
    their crossing changes, and the erasures of each run of one, two and
    three crossings of each input: diagrams built from port arrays."""
    for d in CATALOG_DIAGRAMS + RANDOM_INPUTS:
        for e in [d] + [d.crossing_change(p) for p in range(d.c)]:
            for p in range(e.c):
                yield e.splice(p, "A")
                yield e.splice(p, "B")
        for p in range(d.c):
            for run in range(1, min(d.c, 3) + 1):
                yield d.erase_crossings({(p + k) % d.c for k in range(run)})


class TestArrayBuiltDiagrams:
    def test_equal_to_the_rebuilt_diagram(self):
        cases = 0
        for x in array_built_cases():
            rebuilt = Diagram(x.crossings, x.edges, x.free_loops)
            assert x.edges == rebuilt.edges and repr(x) == repr(rebuilt)
            assert x == rebuilt and hash(x) == hash(rebuilt)
            assert x.to_pd() == rebuilt.to_pd()
            assert x.components == rebuilt.components
            assert x.faces() == rebuilt.faces()
            cases += 1
        assert cases >= 6_000

    def test_keys_are_equal_exactly_when_the_edges_are(self):
        pairs = {((x.crossings, x.edges, x.free_loops), x._key) for x in array_built_cases()}
        diagrams = {labelled for labelled, _ in pairs}
        keys = {key for _, key in pairs}
        assert len(pairs) == len(diagrams) == len(keys)
        assert len(pairs) < sum(1 for _ in array_built_cases())  # equal ones were met

    def test_a_flip_shares_the_projection(self):
        for d in CATALOG_DIAGRAMS:
            spliced = d.splice(0, "A") if d.c > 1 else d
            for e in (d, spliced):
                for p in range(e.c):
                    flip = e._flip(p)
                    assert flip == e.crossing_change(p)
                    assert flip._proj is e._proj

    def test_a_label_used_twice_is_refused(self):
        d = parse_pd(TREFOIL)
        proj = d._proj
        labels = list(proj.port_labels)
        x, y = 0, proj.far_ports[0]
        other = next(label for label in labels if label != labels[x])
        labels[x] = labels[y] = other
        bad = Diagram._from_arrays(d.crossings, proj.far_ports, tuple(labels), d.free_loops)
        with pytest.raises(DiagramError, match="duplicate edge label"):
            bad._proj.walk
        with pytest.raises(DiagramError, match="duplicate edge label"):
            bad.edges
        with pytest.raises(DiagramError, match="duplicate edge label"):
            oracle._oracle(bad, _Run(d, None, None))

    def test_an_unmatched_port_is_refused(self):
        d = parse_pd(TREFOIL)
        far = list(d._proj.far_ports)
        far[0] = far[1]
        bad = Diagram._from_arrays(d.crossings, tuple(far), d._proj.port_labels, d.free_loops)
        with pytest.raises(DiagramError, match="not matched"):
            bad._proj.walk
        with pytest.raises(DiagramError, match="not matched"):
            oracle._oracle(bad, _Run(d, None, None))
