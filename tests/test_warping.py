"""Base sequences, first encounters, and warping degree."""

import itertools
import sys

import pytest

from kauffpoly.coeffs import coeff_table, coeff_table_with_base
from kauffpoly.diagram import Diagram, DiagramError, parse_pd
from kauffpoly.moves import random_diagram
from kauffpoly.oracle import oracle_L, oracle_L_with_base
from kauffpoly.series import kauffman_L
from kauffpoly.warping import (
    BaseEntry,
    base_orientation,
    canonical_base,
    enumerate_bases,
    first_encounter,
    induced_writhe,
    is_monotone,
    validate_base,
    warping_degree,
    warping_order,
)

KINK = "X(1,2,2,1)"
HOPF = "X(1,4,2,3) X(3,2,4,1)"
TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"


def kink_base(toward):
    return (BaseEntry(0, toward[0], toward[1]),)


class TestFirstEncounter:
    def test_kink_over_arc_first(self):
        kink = parse_pd(KINK)
        # heading at port (0,3) meets the over strand (V) first
        enc = first_encounter(kink, kink_base((1, (0, 3))))
        assert enc == ((0, 1),)

    def test_kink_under_arc_first(self):
        kink = parse_pd(KINK)
        enc = first_encounter(kink, kink_base((1, (0, 0))))
        assert enc == ((0, 0),)

    def test_hopf_first_component_always_first(self):
        hopf = parse_pd(HOPF)
        strand_component = {
            (ci, pi % 2): k
            for k, comp in enumerate(hopf.components)
            for _, (ci, pi) in comp.orbit
        }
        for base in enumerate_bases(hopf):
            for ci, parity in first_encounter(hopf, base):
                assert strand_component[(ci, parity)] == 0  # traversal follows tuple order

    def test_unchanged_by_crossing_change(self):
        for seed in range(10):
            d = random_diagram(seed, 6)
            base = canonical_base(d)
            enc = first_encounter(d, base)
            for p in range(d.c):
                assert first_encounter(d.crossing_change(p), base) == enc


class TestWarpingDegree:
    def test_zero_crossing_monotone(self):
        assert is_monotone(parse_pd("O"), canonical_base(parse_pd("O")))
        assert warping_degree(parse_pd("O O"), canonical_base(parse_pd("O O"))) == 0

    def test_kink_depends_on_base(self):
        kink = parse_pd(KINK)
        degrees = [warping_degree(kink, b) for b in enumerate_bases(kink)]
        assert sorted(degrees) == [0, 0, 1, 1]
        assert is_monotone(kink, kink_base((1, (0, 3))))
        assert warping_degree(kink, kink_base((1, (0, 0)))) == 1

    def test_trefoil_never_monotone(self):
        tre = parse_pd(TREFOIL)
        degrees = {warping_degree(tre, b) for b in enumerate_bases(tre)}
        assert degrees == {1, 2}

    def test_bounded_by_crossings(self):
        for seed in range(12):
            d = random_diagram(seed, 6)
            for base in itertools.islice(enumerate_bases(d), 8):
                assert 0 <= warping_degree(d, base) <= d.c

    def test_crossing_change_at_warping_drops_degree(self):
        for seed in range(12):
            d = random_diagram(seed, 6)
            base = canonical_base(d)
            ws = warping_order(d, base)
            assert len(set(ws)) == len(ws)
            for p in ws:
                flipped = d.crossing_change(p)
                assert warping_degree(flipped, base) == len(ws) - 1
                assert warping_order(flipped, base) == tuple(q for q in ws if q != p)

    def test_complexity_pair(self):
        # the induction measure (crossing count, warping degree) at the canonical base
        tre = parse_pd(TREFOIL)
        c, s = tre.c, warping_degree(tre, canonical_base(tre))
        assert c == 3 and s in (1, 2)


class TestBases:
    def test_unknot_unique_empty_base(self):
        O = parse_pd("O")
        bases = list(enumerate_bases(O))
        assert bases == [(BaseEntry(0, None, None),)]
        assert canonical_base(O) == bases[0]

    def test_kink_has_four_bases(self):
        assert len(list(enumerate_bases(parse_pd(KINK)))) == 4

    def test_hopf_base_count(self):
        # 2 components x (2 edges x 2 directions) each, fixed tuple order
        assert len(list(enumerate_bases(parse_pd(HOPF)))) == 16

    def test_canonical_base_is_shadow_determined(self):
        for seed in range(10):
            d = random_diagram(seed, 6)
            base = canonical_base(d)
            for p in range(d.c):
                assert canonical_base(d.crossing_change(p)) == base
            assert canonical_base(d.mirror()) == base

    def test_validate_rejects_wrong_component(self):
        hopf = parse_pd(HOPF)
        base = canonical_base(hopf)
        swapped = (BaseEntry(0, base[1].edge, base[1].toward), base[1])
        with pytest.raises(DiagramError):
            validate_base(hopf, swapped)

    def test_validate_rejects_missing_component(self):
        hopf = parse_pd(HOPF)
        base = canonical_base(hopf)
        with pytest.raises(DiagramError):
            validate_base(hopf, base[:1])

    def test_permuted_entry_order_is_valid(self):
        hopf = parse_pd(HOPF)
        base = canonical_base(hopf)
        validate_base(hopf, base[::-1])


class TestPlainTupleBases:
    """A base is a plain tuple of ``BaseEntry`` values: one built by hand
    answers every question as the canonical base does."""

    @pytest.mark.parametrize(
        "d",
        [
            pytest.param(parse_pd(KINK), id="kink"),
            pytest.param(parse_pd(HOPF), id="hopf"),
            pytest.param(parse_pd(TREFOIL), id="trefoil"),
            pytest.param(parse_pd("X(1,4,2,3) X(3,2,4,1) O"), id="hopf+loop"),
            *(pytest.param(random_diagram(s, 6), id=f"random:{s}") for s in range(4)),
        ],
    )
    def test_hand_built_base_answers_as_the_canonical_one(self, d):
        by_hand = []
        for k, comp in enumerate(d.components):
            edge, toward = comp.orbit[0] if comp.orbit else (None, None)
            by_hand.append(BaseEntry(k, edge, toward))
        by_hand = tuple(by_hand)
        base = canonical_base(d)
        assert type(base) is tuple and base == by_hand
        validate_base(d, by_hand)
        for query in (
            first_encounter,
            warping_order,
            warping_degree,
            is_monotone,
            base_orientation,
            induced_writhe,
        ):
            assert query(d, by_hand) == query(d, base), query.__name__
        assert coeff_table_with_base(d, by_hand) == coeff_table_with_base(d, base)
        assert coeff_table_with_base(d, by_hand) == coeff_table(d)
        assert oracle_L_with_base(d, by_hand) == oracle_L_with_base(d, base) == oracle_L(d)


class TestValidationAtTheBoundary:
    """The recursions read the canonical walk and build no base, so they
    validate nothing; every base a caller hands in is validated."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]

        def counting(d, base):
            count[0] += 1
            validate_base(d, base)

        # every kauffpoly module that holds the name, so a new caller is counted too
        for name, module in list(sys.modules.items()):
            if name.startswith("kauffpoly.") and hasattr(module, "validate_base"):
                monkeypatch.setattr(module, "validate_base", counting)
        return count

    def test_canonical_recursion_validates_nothing(self, calls):
        for seed in range(6):
            d = random_diagram(seed, 7)
            coeff_table(d)
            kauffman_L(d)
            oracle_L(d)
        assert calls[0] == 0

    def test_caller_base_is_validated(self, calls):
        tre = parse_pd(TREFOIL)
        base = next(b for b in enumerate_bases(tre) if b != canonical_base(tre))
        assert coeff_table_with_base(tre, base) == coeff_table(tre)
        assert calls[0] == 1
        assert oracle_L_with_base(tre, base) == oracle_L(tre)
        assert calls[0] == 2

    def test_invalid_base_raises(self):
        hopf = parse_pd(HOPF)
        canonical_base(hopf)
        trefoil_base = canonical_base(parse_pd(TREFOIL))
        for walk in (first_encounter, base_orientation):
            with pytest.raises(DiagramError):
                walk(hopf.crossing_change(0), trefoil_base)


class TestOrientation:
    def test_base_orientation_signs(self):
        kink = parse_pd(KINK)
        plus = base_orientation(kink, canonical_base(kink))
        assert plus == (1,)
        other = kink_base((1, (0, 3)))
        assert base_orientation(kink, other) in ((1,), (-1,))

    def test_induced_writhe_matches_direct(self):
        for seed in range(10):
            d = random_diagram(seed, 6)
            base = canonical_base(d)
            assert induced_writhe(d, base) == d.writhe(base_orientation(d, base))

    def test_writhe_direction_independent_when_monotone(self):
        # stacked descending diagrams have zero linking between components,
        # so every base direction induces the same writhe
        for seed in range(30):
            d = random_diagram(seed, 5)
            for base in itertools.islice(enumerate_bases(d), 16):
                if warping_degree(d, base) == 0:
                    w = induced_writhe(d, base)
                    for base2 in itertools.islice(enumerate_bases(d), 16):
                        if warping_degree(d, base2) == 0:
                            assert induced_writhe(d, base2) == w
