"""The whole-polynomial evaluator and the two-pipeline equality."""

import itertools
import random

import pytest

from test_coeffs import braid_closure

from kauffpoly import oracle
from kauffpoly.catalog import CATALOG
from kauffpoly.coeffs import BudgetExceededError
from kauffpoly.diagram import Diagram, _PortState, connected_sum, disjoint_union, parse_pd
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
            assert len(_least_warping(d)[1]) == least_degree(d), d.to_pd()

    def test_crossings_are_the_warping_order_of_their_base(self, least_cases):
        for d in least_cases:
            starts, warping = _least_warping(d)
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
        # seven components, each passing over the next twice, so the
        # canonical order warps all twelve crossings and the reverse none
        d = braid_closure(7, [1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6])
        starts, warping = _least_warping(d)
        assert len(starts) == 7 > oracle._MAX_PERMUTED
        base = base_from_starts(d, starts)
        assert [entry.component for entry in base] == list(range(7))
        assert warping_order(d, base) == warping
        assert len(warping) == 12
        for link in [d] + [d.crossing_change(p) for p in range(d.c)]:
            assert oracle_L(link) == kauffman_L(link), link.to_pd()
        monkeypatch.setattr(oracle, "_MAX_PERMUTED", 7)
        assert _least_warping(d)[1] == ()
