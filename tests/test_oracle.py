"""The whole-polynomial evaluator and the two-pipeline equality."""

import itertools

import pytest

from kauffpoly.coeffs import BudgetExceededError
from kauffpoly.diagram import Diagram, connected_sum, parse_pd
from kauffpoly.laurent import BivariatePoly
from kauffpoly.moves import r1_add, random_diagram
from kauffpoly.oracle import (
    agree_at_y_one,
    oracle_L,
    oracle_L_with_base,
    uniqueness_check,
)
from kauffpoly.series import unlink_factor
from kauffpoly.warping import enumerate_bases


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
        # 269 distinct labelled diagrams; without a memo the tree needs 349
        assert oracle_L(d, budget=269) == oracle_L(d, cache=NeverHits())
        with pytest.raises(BudgetExceededError):
            oracle_L(d, budget=268)
