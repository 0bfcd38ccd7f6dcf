"""Coefficient engine: closed forms, skein identities, independence."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kauffpoly.coeffs import (
    BudgetExceededError,
    CoeffTable,
    coeff_table,
    coeff_table_with_base,
    skein_check,
)
from kauffpoly.catalog import CATALOG
from kauffpoly.diagram import (
    Diagram,
    DiagramError,
    _PortState,
    _State,
    connected_sum,
    disjoint_union,
    parse_pd,
)
from kauffpoly.laurent import BivariatePoly, LaurentPoly, monotone_coeff
from kauffpoly.moves import (
    cofacial_dart_pairs,
    kink_rule,
    kink_sites,
    r1_add,
    r2_add,
    random_diagram,
    random_move_walk,
)
from kauffpoly.oracle import oracle_L
from kauffpoly.series import check_L_skein, kauffman_L
from kauffpoly.warping import (
    canonical_base,
    enumerate_bases,
    induced_writhe,
    warping_order,
)
from test_diagram import assert_node_equals, piece_diagrams, state_diagram

KINK = "X(1,2,2,1)"
KINK_NEG = "X(2,2,1,1)"
HOPF = "X(1,4,2,3) X(3,2,4,1)"
TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIGURE8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"
#: Closure of the braid [1,-2,1,-2,1,-2] on 3 strands: no kink, no removable bigon.
BORROMEAN = "X(1,2,5,4) X(3,7,6,5) X(4,6,9,8) X(7,11,10,9) X(8,10,13,1) X(11,3,2,13)"
#: Closure of 16 seeded letters on 4 strands (``br4x16s2``).
BR4X16S2 = (
    "X(1,2,6,5) X(6,3,8,7) X(8,4,10,9) X(9,12,11,7) X(12,10,14,13) X(13,14,16,15) "
    "X(11,15,18,17) X(16,20,19,18) X(20,22,21,19) X(22,24,23,21) X(17,26,25,5) "
    "X(26,23,28,27) X(28,30,29,27) X(30,32,31,29) X(32,24,4,3) X(25,31,2,1)"
)


#: The loop value ``y + y^-1`` of the closed formulas.
Y_PLUS_Y_INV = LaurentPoly({1: 1, -1: 1})
#: ``y + y^-1 - z``: a split diagram's table is ``T1 * T2 * SPLIT``.
SPLIT = BivariatePoly({(1, 0): 1, (-1, 0): 1, (0, 1): -1})


def braid_closure(n: int, word) -> Diagram:
    """Closure of a braid word on ``n`` strands; generator +i / -i
    crosses positions i and i+1 (1-based)."""
    cur = list(range(1, n + 1))
    top = n
    quads = []
    for g in word:
        i = abs(g) - 1
        a, b = cur[i], cur[i + 1]
        a2, b2 = top + 1, top + 2
        top += 2
        quads.append((a, b, b2, a2) if g > 0 else (b, b2, a2, a))
        cur[i], cur[i + 1] = a2, b2
    close = dict(zip(cur, range(1, n + 1)))
    return parse_pd(" ".join("X(%d,%d,%d,%d)" % tuple(close.get(x, x) for x in q) for q in quads))


def unlink(r: int) -> Diagram:
    return Diagram((), (), r)


def reference_disjoint_union(t1: CoeffTable, t2: CoeffTable) -> CoeffTable:
    """The disjoint-union law as a convolution over the index:
    ``T[n] = (y + y^-1) * (T1 * T2)[n] - (T1 * T2)[n - 1]``."""
    conv: dict[int, LaurentPoly] = {}
    for n1 in t1.z_support():
        for n2 in t2.z_support():
            conv[n1 + n2] = conv.get(n1 + n2, LaurentPoly.zero()) + t1[n1] * t2[n2]
    out: dict[int, LaurentPoly] = {}
    for n, p in conv.items():
        out[n] = out.get(n, LaurentPoly.zero()) + Y_PLUS_Y_INV * p
        out[n + 1] = out.get(n + 1, LaurentPoly.zero()) - p
    return CoeffTable.from_dict(out)


def tables():
    entries = st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=4).map(LaurentPoly)
    return st.dictionaries(st.integers(-3, 6), entries, max_size=4).map(CoeffTable.from_dict)


class TestClosedForms:
    def test_unknot_is_kronecker_delta(self):
        assert coeff_table(parse_pd("O")) == CoeffTable.from_dict({0: LaurentPoly.one()})

    def test_two_component_unlink(self):
        expected = CoeffTable.from_dict(
            {0: LaurentPoly({1: 1, -1: 1}), 1: LaurentPoly({0: -1})}
        )
        assert coeff_table(unlink(2)) == expected

    @pytest.mark.parametrize("r", range(1, 9))
    def test_trivial_links_match_closed_form(self, r):
        table = coeff_table(unlink(r))
        for n in range(-2, r + 2):
            assert table[n] == monotone_coeff(0, n, r)

    def test_positive_kink(self):
        assert coeff_table(parse_pd(KINK)) == CoeffTable.from_dict(
            {0: LaurentPoly.monomial(1)}
        )

    def test_negative_kink(self):
        assert coeff_table(parse_pd(KINK_NEG)) == CoeffTable.from_dict(
            {0: LaurentPoly.monomial(-1)}
        )


class TestMonotoneClosedForm:
    def test_degree_zero_bases_give_closed_form(self):
        from kauffpoly.warping import (
            enumerate_bases,
            induced_writhe,
            warping_degree,
        )

        for seed in range(20):
            d = random_diagram(seed, 5)
            for base in enumerate_bases(d):
                if warping_degree(d, base) != 0:
                    continue
                w = induced_writhe(d, base)
                table = coeff_table_with_base(d, base)
                for n in range(d.r):
                    assert table[n] == monotone_coeff(w, n, d.r)

    def test_connected_sums_of_monotone_diagrams(self):
        # summands are descending under some base; their sum usually is
        # not, so the engine really recurses, yet the closed form with
        # the total writhe and component count must come out
        from kauffpoly.diagram import connected_sum
        from kauffpoly.warping import canonical_base, warping_degree

        kink_pos = parse_pd(KINK)
        kink_neg = parse_pd(KINK_NEG)
        clasp = parse_pd(HOPF).crossing_change(0)  # one strand fully on top
        summands = {
            "kink+": (kink_pos, 1),
            "kink-": (kink_neg, -1),
            "clasp": (clasp, 0),
        }
        recursed = False
        for (d1, w1), (d2, w2) in itertools.product(summands.values(), repeat=2):
            for e in d1.edge_labels():
                for e2 in d2.edge_labels():
                    total = connected_sum(d1, d2, e, e2)
                    recursed = recursed or warping_degree(
                        total, canonical_base(total)
                    ) > 0
                    table = coeff_table(total)
                    w = w1 + w2
                    for n in range(-1, total.r + 1):
                        assert table[n] == monotone_coeff(w, n, total.r)
        assert recursed, "every sum was already descending; test is vacuous"


class TestDerivedTables:
    def test_trefoil_matches_oracle_coefficients(self):
        # read entry n off the independent whole-polynomial evaluator as
        # the z^(n+1-r) coefficient
        tre = parse_pd(TREFOIL)
        reference = oracle_L(tre)
        table = coeff_table(tre)
        for n in range(-2, tre.c + tre.r + 2):
            assert table[n] == reference.z_coefficient(n + 1 - tre.r)

    @pytest.mark.parametrize("pd", [HOPF, FIGURE8])
    def test_small_diagrams_match_oracle_coefficients(self, pd):
        d = parse_pd(pd)
        reference = oracle_L(d)
        table = coeff_table(d)
        for n in range(0, d.c + d.r):
            assert table[n] == reference.z_coefficient(n + 1 - d.r)


class TestBaseIndependence:
    def test_unknot_unique_base(self):
        O = parse_pd("O")
        (base,) = enumerate_bases(O)
        assert coeff_table_with_base(O, base) == coeff_table(O)

    @pytest.mark.parametrize("pd", [KINK, HOPF, TREFOIL])
    def test_all_bases_agree(self, pd):
        d = parse_pd(pd)
        expected = coeff_table(d)
        for base in enumerate_bases(d):
            assert coeff_table_with_base(d, base) == expected

    def test_warping_crossing_choice_is_free(self):
        for seed in range(15):
            d = random_diagram(seed, 6)
            base = canonical_base(d)
            expected = coeff_table(d)
            for p in warping_order(d, base):
                assert coeff_table_with_base(d, base, warping_crossing=p) == expected

    def test_non_warping_crossing_rejected(self):
        kink = parse_pd(KINK)
        base = next(
            b for b in enumerate_bases(kink) if not warping_order(kink, b)
        )
        with pytest.raises(DiagramError):
            coeff_table_with_base(kink, base, warping_crossing=0)

    def test_component_order_permutations_agree(self):
        hopf = parse_pd(HOPF)
        expected = coeff_table(hopf)
        base = canonical_base(hopf)
        for perm in itertools.permutations(base):
            assert coeff_table_with_base(hopf, perm) == expected


class TestSkein:
    def test_kink(self):
        assert skein_check(parse_pd(KINK), 0)

    def test_hopf_and_trefoil_all_crossings(self):
        for pd in (HOPF, TREFOIL):
            d = parse_pd(pd)
            assert all(skein_check(d, p) for p in range(d.c))

    def test_randoms(self):
        cache = {}
        for seed in range(25):
            d = random_diagram(seed, 6)
            assert all(skein_check(d, p, cache=cache) for p in range(d.c))

    def test_detects_table_mismatch(self, monkeypatch):
        # a perturbed table for the input diagram must trip the comparison
        import kauffpoly.coeffs as coeffs_mod

        hopf = parse_pd(HOPF)
        real = coeffs_mod.coeff_table.__wrapped__ if hasattr(
            coeffs_mod.coeff_table, "__wrapped__"
        ) else coeffs_mod.coeff_table

        def corrupted(d, **kwargs):
            table = real(d, **kwargs)
            if d == hopf:
                return table + CoeffTable.from_dict({7: LaurentPoly.one()})
            return table

        monkeypatch.setattr(coeffs_mod, "coeff_table", corrupted)
        assert not coeffs_mod.skein_check(hopf, 0)

    def test_borromean_literal_is_the_braid_closure(self):
        assert parse_pd(BORROMEAN) == braid_closure(3, [1, -2] * 3)

    def test_leaf_corruption_caught_by_oracle(self, monkeypatch):
        # the whole-polynomial evaluator has its own base case, so it
        # notices when the table engine's closed form goes wrong; the
        # Borromean rings keep leaves with r > 1 after kinks and bigons
        # are removed
        import kauffpoly.coeffs as coeffs_mod
        from kauffpoly.oracle import uniqueness_check

        real = coeffs_mod.monotone_coeff
        linked_leaves = []

        def corrupted(w, n, r):
            if r > 1:
                linked_leaves.append(r)
                w += 1
            return real(w, n, r)

        monkeypatch.setattr(coeffs_mod, "monotone_coeff", corrupted)
        assert not uniqueness_check(parse_pd(BORROMEAN))
        assert linked_leaves, "no leaf with r > 1 was reached; test is vacuous"


def _shift_inputs():
    for name, entry in CATALOG.items():
        yield pytest.param(entry.diagram(), id=name)
    for seed in range(30):
        yield pytest.param(random_diagram(seed, 12, walk_steps=30), id=f"random:{seed}")
    for seed in range(20):
        yield pytest.param(random_move_walk(parse_pd("O O O"), 30, seed, 10)[0], id=f"OOO:{seed}")
    # closures of 2 to 5 components
    for n, word in [
        (2, [1] * 4),
        (3, [1, 2] * 3),
        (3, [1, 1, -2, -2]),
        (4, [1, 2, 3] * 4),
        (4, [1, -2, 3, 1, -2, 3]),
        (5, [1, 2, 3, 4] * 5),
        (5, [1, 1, 3, 3, -2, 4, 4]),
    ]:
        yield pytest.param(braid_closure(n, word), id=f"braid{n}:{word}")


class TestSpliceShift:
    """``delta_shift`` reads the splice's component shift off the walk;
    splicing and counting the components of the result agrees."""

    @pytest.mark.parametrize("d", list(_shift_inputs()))
    def test_closed_form_equals_the_spliced_count(self, d):
        for x in (d, *(d.crossing_change(p) for p in range(d.c))):
            for p in range(x.c):
                for kind in "AB":
                    assert x.delta_shift(p, kind) == x.splice(p, kind).r - x.r, (p, kind)

    def test_inputs_cover_every_case(self):
        # crossings between components, and self-crossings of both signs
        cases = set()
        for param in _shift_inputs():
            d = param.values[0]
            walk = d._proj.walk
            cases.update((d.delta_p(p), walk.signs[p]) for p in range(d.c))
        assert cases == {(1, 1), (1, -1), (0, 1), (0, -1)}

    def test_bad_crossing_or_kind_refused(self):
        # the Hopf link's crossings join two components, whatever the kind
        hopf = parse_pd(HOPF)
        with pytest.raises(DiagramError, match="no crossing 2"):
            hopf.delta_shift(2, "A")
        with pytest.raises(DiagramError, match="splice kind"):
            hopf.delta_shift(0, "C")


class TestSupportAndTable:
    def test_unknot_bounds(self):
        assert coeff_table(parse_pd("O")).support_bounds() == (0, 0)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_unlink_bounds(self, r):
        assert coeff_table(unlink(r)).support_bounds() == (0, r - 1)

    def test_random_tables_within_bounds(self):
        cache = {}
        for seed in range(40):
            d = random_diagram(seed, 6)
            bounds = coeff_table(d, cache=cache).support_bounds()
            assert bounds is not None
            lo, hi = bounds
            assert lo >= 0
            assert hi <= d.c + d.r - 1

    def test_lookup_outside_support_is_zero(self):
        table = coeff_table(parse_pd(KINK))
        assert table[5] == LaurentPoly.zero()
        assert table[-1] == LaurentPoly.zero()

    def test_table_json(self):
        assert coeff_table(unlink(2)).to_json_obj() == {"0": "y^-1 + y", "1": "-1"}

    def test_shift_and_add(self):
        t = coeff_table(unlink(2))
        assert (t.shift_z(2))[2] == t[0]
        assert (t + (-t)) == CoeffTable.from_dict({})

    def test_arithmetic_keeps_the_table_type(self):
        t = coeff_table(parse_pd(HOPF))
        for result in (-t, t + t, t - t, t * t * SPLIT, t.shift_z(-1), t.shift_y(2), t * 3):
            assert type(result) is CoeffTable
        assert str(t.shift_z(1)) == "1: -y^-1 - y; 2: 1; 3: y^-1 + y"
        assert str(CoeffTable.from_dict({})) == "(zero)"

    def test_table_is_not_iterable(self):
        # every index reads as a polynomial, so iteration could never end
        table = coeff_table(parse_pd(KINK))
        with pytest.raises(TypeError):
            list(table)


class HitCountingCache(dict):
    def __init__(self):
        super().__init__()
        self.lookups = self.hits = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        self.lookups += 1
        self.hits += value is not None
        return value


class NeverHits(dict):
    """A memo that stores but never answers: the unmemoised recursion."""

    def get(self, key, default=None):
        return None


class TestBudgetAndCache:
    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError) as err:
            coeff_table(parse_pd(TREFOIL), budget=2)
        assert err.value.crossings == 3
        assert err.value.limit == 2

    def test_budget_error_carries_size(self):
        with pytest.raises(BudgetExceededError) as err:
            coeff_table(parse_pd(FIGURE8), budget=1)
        assert "4 crossings" in str(err.value)

    def test_budget_error_names_where_it_ran_out(self):
        # the trefoil reports its own size; the node the budget could not
        # pay for is a smaller core of its expansion
        with pytest.raises(BudgetExceededError) as err:
            coeff_table(parse_pd(TREFOIL), budget=2)
        e = err.value
        assert (e.crossings, e.components) == (3, 1)
        assert e.at_crossings < 3
        assert f"{e.at_crossings} crossings and {e.at_components} components" in str(e)
        with pytest.raises(BudgetExceededError) as err:
            coeff_table(parse_pd(FIGURE8), budget=0)
        e = err.value
        assert (e.at_crossings, e.at_components) == (e.crossings, e.components) == (4, 1)

    def test_cache_matches_reference_path(self):
        shared = HitCountingCache()
        for seed in range(15):
            d = random_diagram(seed, 6)
            expected = coeff_table(d, cache=NeverHits())
            assert coeff_table(d) == expected
            assert coeff_table(d, cache={}) == expected
            assert coeff_table(d, cache=shared) == expected
        # cores met again under other labels are answered from the cache
        assert shared.hits > 0

    def test_a_call_without_cache_expands_each_core_once(self):
        f8 = parse_pd(FIGURE8)
        d = connected_sum(f8, f8)
        # without a memo the tree expands each core every time it meets it
        n = nodes(d)
        assert coeff_table(d, budget=n) == coeff_table(d, cache=NeverHits())
        with pytest.raises(BudgetExceededError):
            coeff_table(d, budget=n - 1)
        # both summands are one core, answered from one entry
        assert nodes(connected_sum(d, f8)) == n == nodes(f8)

    @pytest.mark.parametrize("check", [skein_check, check_L_skein])
    def test_a_skein_check_without_cache_shares_one_memo(self, check, monkeypatch):
        import kauffpoly.coeffs as coeffs_mod

        calls = [0]
        real = coeffs_mod._expand

        def counting(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(coeffs_mod, "_expand", counting)
        d = CATALOG["figure8_figure8"].diagram()
        assert check(d, 0, cache={})
        shared = calls[0]
        calls[0] = 0
        assert check(d, 0)
        assert calls[0] == shared
        # the four diagrams of the relation share cores: one memo each expands more
        calls[0] = 0
        for x in (d, d.crossing_change(0), d.splice(0, "A"), d.splice(0, "B")):
            coeff_table(x)
        assert shared < calls[0]

    def test_relabelled_cores_are_not_expanded_again(self):
        cache: dict = {}
        coeff_table(parse_pd(TREFOIL), cache=cache)
        coeff_table(parse_pd(FIGURE8), cache=cache)
        stored = len(cache)
        coeff_table(disjoint_union(parse_pd(FIGURE8), parse_pd(TREFOIL)), cache=cache)
        assert len(cache) == stored

    def test_shared_cache_across_calls(self):
        cache = {}
        tre = parse_pd(TREFOIL)
        first = coeff_table(tre, cache=cache)
        assert cache
        assert coeff_table(tre, cache=cache) == first


def kink_chain(start: Diagram, signs: str) -> Diagram:
    """``start`` with one kink per sign, each added on the lowest edge."""
    d = start
    for i, sign in enumerate(signs):
        site = min(d.edge_labels()) if d.c else None
        d = r1_add(d, site, sign, "LR"[i % 2])
    return d


def nodes(d: Diagram) -> int:
    """Recursion nodes of one ``coeff_table`` call: stores into its cache."""
    cache: dict = {}
    coeff_table(d, cache=cache)
    return len(cache)


class TestCoreReduction:
    @pytest.mark.parametrize("signs", ["+-" * 20, "++-" * 13 + "+"])
    def test_kink_chain_costs_one_node(self, signs):
        d = kink_chain(parse_pd("O"), signs)
        assert d.c == 40
        w = induced_writhe(d, canonical_base(d))
        assert w == signs.count("+") - signs.count("-")
        assert coeff_table(d, budget=1) == CoeffTable.from_dict({0: LaurentPoly.monomial(w)})

    def test_split_diagram_costs_no_more_than_its_pieces(self):
        tre, f8 = parse_pd(TREFOIL), parse_pd(FIGURE8)
        assert nodes(disjoint_union(tre, f8)) <= nodes(tre) + nodes(f8)

    def test_free_loops_cost_nothing(self):
        tre = parse_pd(TREFOIL)
        assert nodes(disjoint_union(tre, unlink(2))) <= nodes(tre)
        # once the core is cached, its split and kinked variants are free
        cache: dict = {}
        coeff_table(tre, cache=cache)
        stored = len(cache)
        for variant in (disjoint_union(tre, unlink(2)), kink_chain(tre, "+-+")):
            coeff_table(variant, cache=cache)
        assert len(cache) == stored

    def test_y_shift_and_disjoint_union(self):
        loop = coeff_table(unlink(1))
        assert loop * loop * SPLIT == coeff_table(unlink(2))
        assert coeff_table(unlink(2)) * loop * SPLIT == coeff_table(unlink(3))
        assert loop.shift_y(-2) == CoeffTable.from_dict({0: LaurentPoly.monomial(-2)})


def _braid_closures():
    yield pytest.param(braid_closure(3, [1, 2] * 7), id="T(3,7)")
    yield pytest.param(parse_pd(BR4X16S2), id="br4x16s2")


class TestBigonReduction:
    """Erasing removable R2 bigons leaves every table unchanged."""

    @pytest.fixture
    def reference(self, monkeypatch):
        # the engine with its bigon search switched off: kinks and cuts only
        cache: dict = {}

        def table(d: Diagram) -> CoeffTable:
            with monkeypatch.context() as m:
                m.setattr(_PortState, "bigon", lambda self: None)
                return coeff_table(d, cache=cache)

        return table

    def test_catalog(self, reference):
        cache: dict = {}
        for name, entry in CATALOG.items():
            d = entry.diagram()
            assert coeff_table(d, cache=cache) == reference(d), name

    def test_random_walks(self, reference):
        cache: dict = {}
        for seed in range(40):
            d = random_diagram(seed, 12, walk_steps=30)
            assert coeff_table(d, cache=cache) == reference(d), seed

    @pytest.mark.parametrize("d", list(_braid_closures()))
    def test_braid_closures(self, reference, d):
        assert nodes(d) < 200
        assert coeff_table(d) == reference(d)

    def test_added_bigon_costs_nothing(self):
        tre = parse_pd(TREFOIL)
        for e1, e2 in {(d1[0], d2[0]) for d1, d2 in cofacial_dart_pairs(tre)}:
            for over_first in (True, False):
                assert nodes(r2_add(tre, e1, e2, over_first)) == nodes(tre)

    @pytest.mark.parametrize("n", range(2, 16))
    def test_two_strand_torus_links_are_linear(self, n):
        # the flip at a crossing of [1]^n leaves a bigon with its neighbour
        d = braid_closure(2, [1] * n)
        assert (d.c, d.r) == (n, 2 - n % 2)
        assert nodes(d) <= n


def _composites():
    f8, hopf, tre = parse_pd(FIGURE8), parse_pd(HOPF), parse_pd(TREFOIL)
    yield "f8#f8#f8", connected_sum(connected_sum(f8, f8), f8)
    yield "hopf#hopf#f8", connected_sum(connected_sum(hopf, hopf), f8)
    for e in tre.edge_labels():
        for e2 in hopf.edge_labels():
            yield f"trefoil#hopf:{e},{e2}", connected_sum(tre, hopf, e, e2)
    yield "T(3,7)#trefoil", connected_sum(braid_closure(3, [1, 2] * 7), tre)


class TestConnectedSumLaw:
    """Splitting a core at a connected-sum cut leaves every table
    unchanged and never costs a node."""

    @pytest.fixture
    def reference(self, monkeypatch):
        # the engine with its cut search switched off: kinks and bigons only
        def table_and_nodes(d: Diagram) -> tuple[CoeffTable, int]:
            with monkeypatch.context() as m:
                m.setattr(_PortState, "cut", lambda self: None)
                cache: dict = {}
                return coeff_table(d, cache=cache), len(cache)

        return table_and_nodes

    @pytest.mark.parametrize(
        "d",
        [
            *(pytest.param(e.diagram(), id=name) for name, e in CATALOG.items()),
            *(pytest.param(d, id=name) for name, d in _composites()),
            *(
                pytest.param(random_diagram(s, 12, walk_steps=30), id=f"random:{s}")
                for s in range(30)
            ),
        ],
    )
    def test_tables_equal_and_nodes_no_more(self, reference, d):
        table, n = reference(d)
        assert coeff_table(d) == table
        assert nodes(d) <= n

    def test_a_cut_splits_off_one_summand(self):
        f8 = parse_pd(FIGURE8)
        d = connected_sum(connected_sum(f8, f8), f8)
        s = _PortState(_State.of(d))
        for pieces in (2, 3):
            s.rejoin(*s.cut())
            assert len(s.pieces()) == pieces
            summands = piece_diagrams(state_diagram(s))
            assert len(summands) == len(s.pieces()) == pieces
            for piece, summand in zip(s.pieces(), summands):
                assert_node_equals(s.node(piece, 0), summand)
                assert summand.r == 1
        assert s.cut() is None
        assert {s.shape_code(piece, 0) for piece in s.pieces()} == {f8.shape_code()}

    @pytest.mark.parametrize("pd", [HOPF, TREFOIL, FIGURE8, BORROMEAN, BR4X16S2])
    def test_prime_diagrams_have_no_cut(self, pd):
        assert _PortState(_State.of(parse_pd(pd))).cut() is None


def _reference_first_bigon(d: Diagram):
    """The removable R2 bigon whose first bounding port is least, traced
    face by face: a 2-gon face's two darts arrive at its bounding ports."""
    best = None
    for face in d.faces():
        if len(face) != 2:
            continue
        (ea, ha), (eb, hb) = face
        u, v = ha[0], hb[0]
        if u == v or ea == eb:
            continue
        if ((ha[1] % 2 == 1) == d.crossings[u]) != (((hb[1] + 1) % 2 == 1) == d.crossings[v]):
            continue
        first = min(4 * u + ha[1], 4 * v + hb[1])
        if best is None or first < best[0]:
            best = (first, (min(u, v), max(u, v)))
    return None if best is None else best[1]


def _reference_kink_sites(d: Diagram):
    """(crossing, loop edge label, counterclockwise loop port pair) of
    each kink, by label: an edge on two adjacent ports of one crossing."""
    out = []
    for label, a, b in d.edges:  # sorted by label
        if a[0] == b[0] and (a[1] - b[1]) % 4 in (1, 3):
            lo, hi = sorted((a[1], b[1]))
            out.append((a[0], label, (lo, hi) if hi - lo == 1 else (hi, lo)))
    return out


def _reference_cut(d: Diagram):
    """``d`` split at the connected-sum cut whose second edge has the
    least lower port, or None; a cut is two edges that bound the same two
    faces, traced face by face.  Each side's two cut ends are joined:
    the pairing tried is the one that splits the diagram.  The edge
    through the first edge's lower port keeps that edge's label, and the
    other edge the second edge's label."""
    face_of = {port: k for k, face in enumerate(d.faces()) for _, port in face}
    first = {}
    for label, a, b in sorted(d.edges, key=lambda edge: edge[1]):  # by lower port
        key = frozenset((face_of[a], face_of[b]))
        if key not in first:
            first[key] = (label, a, b)
            continue
        (l1, x, y), rest = first[key], [e for e in d.edges if e[0] not in (first[key][0], label)]
        for u, v in ((a, b), (b, a)):
            cut = Diagram(d.crossings, rest + [(l1, x, u), (label, y, v)], d.free_loops)
            if len(cut.connected_pieces()) > len(d.connected_pieces()):
                assert cut.is_planar()
                return cut
        raise AssertionError(f"edges {l1} and {label} bound the same two faces but split nothing")
    return None


def reference_cores(d: Diagram):
    """The core reduction on whole diagrams, as the engine ran it before
    its port state: the kink on the lowest edge label comes off first;
    else the first removable bigon in port order is erased; else the
    first connected-sum cut is split; then split into pieces."""
    kinks = cuts = 0
    while True:
        if sites := _reference_kink_sites(d):
            sign, kind = kink_rule(d, sites[0])
            kinks += sign
            d = d.splice(sites[0][0], kind)
        elif bigon := _reference_first_bigon(d):
            d = d.erase_crossings(bigon)
        elif cut := _reference_cut(d):
            d = cut
            cuts += 1
        else:
            break
    if len(d.connected_pieces()) + d.free_loops <= 1:
        return kinks, 0, 0, (d,)
    return kinks, d.free_loops, cuts, piece_diagrams(d)


def reference_table(d: Diagram, memo: dict) -> CoeffTable:
    """The engine on whole diagrams, with ``reference_cores``: every
    splice and reduction step builds a diagram.  A summand joins the
    product as it is, a disjoint piece with the factor ``SPLIT``."""
    kinks, loops, cuts, cores = reference_cores(d)
    tables = [_reference_core_table(core, memo) for core in cores] + [CoeffTable.one()] * loops
    table = tables[0]
    for k, other in enumerate(tables[1:]):
        table = table * other if k < cuts else table * other * SPLIT
    return table.shift_y(kinks) if kinks else table


def _reference_core_table(d: Diagram, memo: dict) -> CoeffTable:
    key = d.shape_code()
    if key not in memo:
        base = canonical_base(d)
        warping = warping_order(d, base)
        if not warping:
            w = induced_writhe(d, base)
            memo[key] = CoeffTable.from_dict({n: monotone_coeff(w, n, d.r) for n in range(d.r)})
        else:
            p = warping[0]
            da, db = d.splice(p, "A"), d.splice(p, "B")
            memo[key] = (
                -reference_table(d.crossing_change(p), memo)
                + reference_table(da, memo).shift_z(1 - (da.r - d.r))
                + reference_table(db, memo).shift_z(1 - (db.r - d.r))
            )
    return memo[key]


def _kernel_inputs():
    def param(d, name):
        return pytest.param(d, id=name)

    for name, entry in CATALOG.items():
        d = entry.diagram()
        yield param(d, name)
        yield param(d.mirror(), f"{name}:mirror")
        for p in range(d.c):
            yield param(d.crossing_change(p), f"{name}:flip{p}")
    for seed in range(60):
        yield param(random_diagram(seed, 12, walk_steps=30), f"random:{seed}")
    for seed in range(20):
        yield param(random_move_walk(parse_pd("O O O"), 30, seed, 10)[0], f"OOO:{seed}")
    yield param(braid_closure(3, [1, 2] * 7), "T(3,7)")
    yield param(braid_closure(4, [1, 2, 3] * 5), "T(4,5)")
    yield param(parse_pd(BR4X16S2), "br4x16s2")
    for name, d in _composites():
        yield param(d, name)



class TestPortStateKernel:
    """The engine reduces on a port state exactly as it reduced whole
    diagrams: same kink sums, free loops, cores and component counts on
    every diagram it looks up, and so the same node count."""

    @staticmethod
    def assert_same_reduction(s: _PortState, d: Diagram, where: str):
        import kauffpoly.coeffs as coeffs_mod

        # removals commute, so only the first choice can show the kink rule;
        # the state has not renumbered its crossings, so compare the edge
        site, sites = s.kink(), _reference_kink_sites(d)
        assert (site[1:] if site else None) == (sites[0][1:] if sites else None), where
        kinks, loops, cuts, cores = coeffs_mod._cores(s)
        ref_kinks, ref_loops, ref_cuts, ref_cores = reference_cores(d)
        assert (kinks, loops, cuts) == (ref_kinks, ref_loops, ref_cuts), where
        nodes = [s.node(*core) for core in cores]
        assert len(nodes) == len(ref_cores), where
        for node, ref in zip(nodes, ref_cores):
            assert_node_equals(node, ref, where)
        assert [s.shape_code(*core) for core in cores] == [c.shape_code() for c in ref_cores]
        # each cut splits one component in two
        assert sum(node.r for node in nodes) + loops == d.r + cuts, where

    @pytest.mark.parametrize("d", list(_kernel_inputs()))
    def test_cores_and_nodes_match_the_reference(self, d):
        self.assert_same_reduction(_PortState(_State.of(d)), d, "as given")
        for p in range(d.c):
            flipped = d.crossing_change(p)
            self.assert_same_reduction(_PortState(_State.of(flipped)), flipped, f"flip {p}")
            for kind in "AB":
                s = _PortState(_State.of(d))
                s.splice(p, kind)
                self.assert_same_reduction(s, d.splice(p, kind), f"{kind} at {p}")
        memo: dict = {}
        assert coeff_table(d) == reference_table(d, memo)
        assert nodes(d) == len(memo)

    @staticmethod
    def spliced_figure8() -> _PortState:
        s = _PortState(_State.of(parse_pd(FIGURE8)))
        s.splice(0, "A")  # crossings 1-3 are left, on ports 4-15
        s.pieces()
        return s

    def test_structural_checks_run_on_the_state(self):
        s = self.spliced_figure8()
        s.labels[s.far[4]] += 100  # the two ends of one edge disagree
        with pytest.raises(DiagramError, match="different labels"):
            s.pieces()
        s = self.spliced_figure8()
        s.labels[4] = s.labels[s.far[4]] = s.labels[5]  # one label on two edges
        with pytest.raises(DiagramError, match="duplicate"):
            s.pieces()
        s = self.spliced_figure8()
        s.far[s.far[4]] = -1  # an edge end points nowhere
        with pytest.raises(DiagramError, match="matched"):
            s.pieces()
        s = self.spliced_figure8()
        s.far[s.far[4]] = 0  # an edge end points into the removed crossing
        with pytest.raises(DiagramError, match="matched"):
            s.pieces()
        s = self.spliced_figure8()
        s.loops = -1
        with pytest.raises(DiagramError, match="free_loops"):
            s.pieces()


def _probe_inputs():
    from test_bench_references import load_workloads

    for name, entry in CATALOG.items():
        yield name, entry.diagram()
    for seed in range(40):
        yield f"random:{seed}", random_diagram(seed, 12, walk_steps=30)
    for name, pd in load_workloads().ladder_pds():
        yield f"ladder:{name}", parse_pd(pd)
    yield "T(3,7)", braid_closure(3, [1, 2] * 7)
    yield "T(4,5)", braid_closure(4, [1, 2, 3] * 5)


class TestMemoProbe:
    """A small core is first looked up by the code from one start; only
    if that misses is its least code computed.  Any start's code
    describes the core completely, so a hit is exact, and the memo only
    ever stores least codes."""

    @staticmethod
    def run_all(inputs) -> tuple[list[CoeffTable], HitCountingCache]:
        memo = HitCountingCache()
        return [coeff_table(d, cache=memo) for _, d in inputs], memo

    def test_tables_keys_and_counts_equal_with_the_probe_off(self, monkeypatch):
        import kauffpoly.coeffs as coeffs_mod

        inputs = list(_probe_inputs())
        tables, memo = self.run_all(inputs)
        with monkeypatch.context() as m:
            m.setattr(coeffs_mod, "_PROBE_MAX", 0)
            ref_tables, ref_memo = self.run_all(inputs)
        for (name, _), table, ref in zip(inputs, tables, ref_tables):
            assert table == ref, name
        assert sorted(memo) == sorted(ref_memo)
        assert (memo.lookups, memo.hits) == (ref_memo.lookups, ref_memo.hits)

    @pytest.mark.parametrize(
        "d", [parse_pd(TREFOIL), braid_closure(2, [1] * 7)], ids=["trefoil", "T(2,7)"]
    )
    def test_warm_hits_skip_the_least_code_search(self, d, monkeypatch):
        # every start of these cores is carried onto every other by a
        # symmetry of the sphere, so the first start's code is the least
        import kauffpoly.diagram as diagram_mod
        from test_diagram import relabelled

        memo: dict = {}
        table = coeff_table(d, cache=memo)
        stored = sorted(memo)

        def search(*args):
            raise AssertionError("a memo hit ran the least-code search")

        monkeypatch.setattr(diagram_mod, "_shape_code", search)
        rng = random.Random(7)
        for _ in range(20):
            assert coeff_table(relabelled(d, rng), cache=memo) == table
        assert sorted(memo) == stored

    def test_lookups_still_refuse_what_has_no_shape_code(self):
        import kauffpoly.coeffs as coeffs_mod

        tre = parse_pd(TREFOIL)
        memo: dict = {}
        coeff_table(tre, cache=memo)
        run = coeffs_mod._Run(tre, None, memo)
        s = _PortState(_State.of(disjoint_union(tre, parse_pd(HOPF))))
        with pytest.raises(DiagramError, match="connected"):
            coeffs_mod._core_table(s, tuple(range(5)), 0, run)  # two pieces as one
        with pytest.raises(DiagramError, match="connected"):
            coeffs_mod._core_table(_PortState(_State.of(tre)), (0, 1, 2), 1, run)  # a loop beside it


class TestWarpingCrossingGuard:
    """``coeff_table_with_base`` takes a warping crossing only as an int:
    ``True == 1`` and ``1.0 == 1``, so a membership test alone would
    take either as crossing 1."""

    def test_a_pick_that_is_not_an_int_is_refused(self):
        tre = parse_pd(TREFOIL)
        base = next(b for b in enumerate_bases(tre) if 1 in warping_order(tre, b))
        assert coeff_table_with_base(tre, base, warping_crossing=1) == coeff_table(tre)
        for pick in (True, 1.0):
            with pytest.raises(DiagramError, match="not a warping crossing"):
                coeff_table_with_base(tre, base, warping_crossing=pick)


class TestNodesBelowTheTop:
    """Below the top of a call the engine expands ``_State`` nodes and
    builds no ``Diagram``; every node still passes the structural checks."""

    @pytest.mark.parametrize(
        "d",
        [CATALOG["figure8_figure8"].diagram(), braid_closure(2, [1] * 7)],
        ids=["figure8#figure8", "T(2,7)"],
    )
    def test_no_diagram_is_built(self, d, monkeypatch):
        base = canonical_base(d)
        expected = coeff_table(d), coeff_table_with_base(d, base)
        calls = dict.fromkeys(["_from_sorted", "__post_init__", "crossing_change"], 0)
        real_from_sorted = Diagram._from_sorted.__func__
        real_post_init, real_change = Diagram.__post_init__, Diagram.crossing_change

        def from_sorted(cls, *args):
            calls["_from_sorted"] += 1
            return real_from_sorted(cls, *args)

        def post_init(self):
            calls["__post_init__"] += 1
            real_post_init(self)

        def crossing_change(self, p):
            calls["crossing_change"] += 1
            return real_change(self, p)

        monkeypatch.setattr(Diagram, "_from_sorted", classmethod(from_sorted))
        monkeypatch.setattr(Diagram, "__post_init__", post_init)
        monkeypatch.setattr(Diagram, "crossing_change", crossing_change)
        assert (coeff_table(d), coeff_table_with_base(d, base)) == expected
        assert coeff_table(d, cache={}) == expected[0]
        assert calls == {"_from_sorted": 0, "__post_init__": 0, "crossing_change": 0}
        Diagram(d.crossings, d.edges).crossing_change(0).splice(0, "A")  # the counters see these
        assert calls == {"_from_sorted": 1, "__post_init__": 1, "crossing_change": 1}

    def test_a_cut_out_node_is_checked_before_its_walk(self):
        import kauffpoly.coeffs as coeffs_mod

        s = _PortState(_State.of(parse_pd(TREFOIL)))
        node = s.node((0, 1), 0)  # crossing 2 left out: its neighbours' ports dangle
        with pytest.raises(DiagramError, match="not matched"):
            node.walk
        tre = parse_pd(TREFOIL)
        with pytest.raises(DiagramError, match="not matched"):
            coeffs_mod._core_table(s, (0, 1), 0, coeffs_mod._Run(tre, None, {}))


def reference_least_code(far, over, loops, n, starts):
    """The breadth-first code search as it was written with a loop over
    each crossing's four ports, kept to pin the codes byte for byte."""
    size = len(over)
    live = []
    for s, q in starts:
        index = [-1] * size
        rot = [0] * size
        index[s] = 0
        rot[s] = q
        live.append((index, rot, [s]))
    code = [loops]
    for k in range(n):
        if len(live[0][2]) == k:
            raise DiagramError("shape codes exist only for connected diagrams")
        least = keep = None
        for state in live:
            index, rot, order = state
            c = order[k]
            r = rot[c]
            block = [over[c] ^ (r & 1)]
            for j in (r, (r + 1) & 3, (r + 2) & 3, (r + 3) & 3):
                f = far[4 * c + j]
                c2 = f >> 2
                i = index[c2]
                if i < 0:
                    i = index[c2] = len(order)
                    rot[c2] = f & 3
                    order.append(c2)
                block.append(4 * i + ((f - rot[c2]) & 3))
            if least is None or block < least:
                least = block
                keep = [state]
            elif block == least:
                keep.append(state)
        live = keep
        code += least
    return tuple(code)


def _code_inputs():
    for name, entry in CATALOG.items():
        d = entry.diagram()
        yield f"{name}", d
        yield f"{name}:mirror", d.mirror()
    for seed in range(300):
        yield f"random:{seed}", random_diagram(seed, 12, walk_steps=40)
    for n in range(3, 14):
        yield f"T(2,{n})", braid_closure(2, [1] * n)
    f8 = parse_pd(FIGURE8)
    yield "figure8#figure8", connected_sum(f8, f8)
    yield "figure8#figure8#figure8", connected_sum(connected_sum(f8, f8), f8)


class TestShapeCodeReference:
    def test_codes_are_byte_identical_to_the_reference(self):
        from kauffpoly.diagram import _shape_code

        pieces = 0
        for name, d in _code_inputs():
            s = _PortState(_State.of(d))
            over = list(map(int, s.crossings))
            for piece in s.pieces():
                n = len(piece)
                starts = [(c, q) for c in piece for q in (over[c], over[c] + 2)]
                expected = reference_least_code(s.far, over, 0, n, starts)
                assert repr(_shape_code(s.far, s.crossings, 0, piece)) == repr(expected), name
                assert repr(s.shape_code(piece, 0)) == repr(expected), name
                first = [(piece[0], over[piece[0]])]
                expected = reference_least_code(s.far, over, 0, n, first)
                assert repr(s.start_code(piece, 0)) == repr(expected), name
                pieces += 1
            if d.c and len(s.pieces()) == 1 and not d.free_loops:
                expected = reference_least_code(s.far, over, 0, d.c, starts)
                assert repr(d.shape_code()) == repr(expected), name
        assert pieces > 320


class TestSplitLaw:
    """``T1 * T2 * (y + y^-1 - z)`` is the convolution form of the law."""

    @settings(max_examples=80)
    @given(tables(), tables())
    def test_product_matches_reference_convolution(self, t1, t2):
        assert t1 * t2 * SPLIT == reference_disjoint_union(t1, t2)

    def test_catalog_pairs(self):
        cache: dict = {}
        for n1, n2 in itertools.combinations_with_replacement(CATALOG, 2):
            d1, d2 = CATALOG[n1].diagram(), CATALOG[n2].diagram()
            t1, t2 = coeff_table(d1, cache=cache), coeff_table(d2, cache=cache)
            expected = reference_disjoint_union(t1, t2)
            assert t1 * t2 * SPLIT == expected, (n1, n2)
            assert coeff_table(disjoint_union(d1, d2), cache=cache) == expected, (n1, n2)


def _split_pairs():
    names = ("unknot", "unlink2", "kink_pos", "hopf", "trefoil", "figure8")
    for n1, n2 in itertools.combinations_with_replacement(names, 2):
        yield f"{n1}+{n2}", disjoint_union(CATALOG[n1].diagram(), CATALOG[n2].diagram())


def _kinked_trefoils():
    for signs in ("+", "-", "+-", "++", "-+-", "++-+", "--+-+-"):
        yield f"trefoil{signs}", kink_chain(parse_pd(TREFOIL), signs)


def _walks():
    for i, name in enumerate(("trefoil", "figure8", "unlink2", "hopf_unknot") * 3):
        end, _ = random_move_walk(CATALOG[name].diagram(), 10, seed=500 + i, max_c=8)
        yield f"walk:{name}:{500 + i}", end


@pytest.mark.parametrize(
    "d",
    [
        pytest.param(d, id=name)
        for name, d in (*_split_pairs(), *_kinked_trefoils(), *_walks())
    ],
)
def test_core_reduction_matches_oracle(d):
    # the oracle applies neither table law, so it checks both independently
    assert kauffman_L(d) == oracle_L(d)
