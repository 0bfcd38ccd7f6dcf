"""Series assembly, normalization, product laws, mirror symmetry."""

import itertools

import pytest

from kauffpoly.coeffs import CoeffTable, coeff_table
from kauffpoly.diagram import Diagram, connected_sum, disjoint_union, parse_pd
from kauffpoly.laurent import BivariatePoly, LaurentPoly
from kauffpoly.moves import random_diagram
from kauffpoly.series import (
    check_L_skein,
    check_product_laws,
    kauffman_F,
    kauffman_L,
    series_from_table,
    unlink_factor,
)
from kauffpoly.warping import base_orientation, canonical_base

KINK = "X(1,2,2,1)"
KINK_NEG = "X(2,2,1,1)"
HOPF = "X(1,4,2,3) X(3,2,4,1)"
TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIGURE8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"


def unlink(r: int) -> Diagram:
    return Diagram((), (), r)


class TestNormalizations:
    def test_unknot(self):
        assert kauffman_L(parse_pd("O")) == BivariatePoly.one()

    def test_two_component_unlink_is_unlink_factor(self):
        assert kauffman_L(unlink(2)) == unlink_factor()

    def test_positive_kink(self):
        assert kauffman_L(parse_pd(KINK)) == BivariatePoly.monomial(1, 0)

    def test_kink_normalizes_to_one(self):
        kink = parse_pd(KINK)
        for o in ((1,), (-1,)):
            assert kauffman_F(kink, o) == BivariatePoly.one()

    @pytest.mark.parametrize("r", range(1, 9))
    def test_unlinks_normalize_to_unlink_factor_power(self, r):
        assert kauffman_F(unlink(r), (1,) * r) == unlink_factor() ** (r - 1)

    def test_trefoil_f_matches_oracle_normalization(self):
        from kauffpoly.oracle import oracle_L

        tre = parse_pd(TREFOIL)
        w = tre.writhe((1,))
        assert kauffman_F(tre, (1,)) == oracle_L(tre).shift_y(-w)

    def test_orientation_length_enforced(self):
        from kauffpoly.diagram import DiagramError

        with pytest.raises(DiagramError):
            kauffman_F(parse_pd(HOPF), (1,))


class TestUnlinkFactor:
    def test_times_L_unknot_gives_unlink(self):
        assert unlink_factor() * kauffman_L(parse_pd("O")) == kauffman_L(unlink(2))

    def test_rearrangement(self):
        z = BivariatePoly.monomial(0, 1)
        assert unlink_factor() * z + z == BivariatePoly({(1, 0): 1, (-1, 0): 1})

    def test_term_count(self):
        assert len(list(unlink_factor().items())) == 3


class TestSeriesSkein:
    def test_kink(self):
        assert check_L_skein(parse_pd(KINK), 0)

    @pytest.mark.parametrize("pd", [HOPF, FIGURE8])
    def test_all_crossings(self, pd):
        d = parse_pd(pd)
        assert all(check_L_skein(d, p) for p in range(d.c))

    def test_randoms(self):
        cache = {}
        for seed in range(15):
            d = random_diagram(seed, 6)
            assert all(check_L_skein(d, p, cache=cache) for p in range(d.c))


class TestProductLaws:
    def test_unknots(self):
        O = parse_pd("O")
        assert check_product_laws(O, O)
        assert kauffman_L(disjoint_union(O, O)) == unlink_factor()

    def test_kink_pair_value(self):
        kink = parse_pd(KINK)
        assert check_product_laws(kink, kink)
        doubled = connected_sum(kink, kink)
        assert kauffman_L(doubled) == BivariatePoly.monomial(2, 0)

    def test_trefoil_hopf(self):
        cache = {}
        assert check_product_laws(
            parse_pd(TREFOIL), parse_pd(HOPF), cache=cache
        )

    def test_detects_wrong_product(self):
        # sanity: the checker is not vacuous
        kink = parse_pd(KINK)
        assert kauffman_L(connected_sum(kink, kink)) != kauffman_L(kink)


class TestResultTypes:
    """A table prints as ``n: poly; ...`` and L as polynomial text, so
    neither may come back as the other's type."""

    @pytest.mark.parametrize("pd", ["O", KINK, HOPF, TREFOIL, "O O"])
    def test_exact_types(self, pd):
        d = parse_pd(pd)
        table = coeff_table(d)
        assert type(table) is CoeffTable
        assert type(series_from_table(table, d.r)) is BivariatePoly
        assert type(kauffman_L(d)) is BivariatePoly
        assert type(kauffman_F(d, (1,) * d.r)) is BivariatePoly

    def test_text_forms(self):
        d = parse_pd(HOPF)
        assert str(coeff_table(d)) == "0: -y^-1 - y; 1: 1; 2: y^-1 + y"
        assert str(kauffman_L(d)) == "-y^-1*z^-1 - y*z^-1 + 1 + y^-1*z + y*z"


class TestStructure:
    def test_z_span_within_bounds(self):
        cache = {}
        for seed in range(20):
            d = random_diagram(seed, 6)
            support = kauffman_L(d, cache=cache).z_support()
            if support:
                assert support[0] >= 1 - d.r
                assert support[-1] <= d.c

    def test_coefficient_extraction_consistency(self):
        cache = {}
        for seed in range(15):
            d = random_diagram(seed, 6)
            L = kauffman_L(d, cache=cache)
            table = coeff_table(d, cache=cache)
            for n in range(0, d.c + d.r):
                assert L.z_coefficient(n + 1 - d.r) == table[n]

    def test_mirror_symmetry_on_small_diagrams(self):
        cache = {}
        for pd in (KINK, KINK_NEG, HOPF, TREFOIL, FIGURE8):
            d = parse_pd(pd)
            o = (1,) * d.r
            f = kauffman_F(d, o, cache=cache)
            assert kauffman_F(d.mirror(), o, cache=cache) == f.subst_y_inverse()

    def test_figure8_amphichiral(self):
        f = kauffman_F(parse_pd(FIGURE8), (1,))
        assert f == f.subst_y_inverse()

    def test_trefoil_chiral(self):
        f = kauffman_F(parse_pd(TREFOIL), (1,))
        assert f != f.subst_y_inverse()

    def test_writhe_orientation_cancels_in_f_for_knots(self):
        for pd in (KINK, TREFOIL, FIGURE8):
            d = parse_pd(pd)
            assert kauffman_F(d, (1,)) == kauffman_F(d, (-1,))

    def test_f_on_hopf_orientations(self):
        # reversing one component changes the writhe by twice the linking
        # number; F changes by the matching power of y
        hopf = parse_pd(HOPF)
        L = kauffman_L(hopf)
        for o in itertools.product((1, -1), repeat=2):
            assert kauffman_F(hopf, o) == L.shift_y(-hopf.writhe(o))
