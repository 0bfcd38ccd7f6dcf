"""Exact polynomial arithmetic: fixtures, ring axioms, closed forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kauffpoly.coeffs import CoeffTable
from kauffpoly.laurent import BivariatePoly, LaurentPoly, Y_PLUS_Y_INV, monotone_coeff
from kauffpoly.series import unlink_factor

Y = LaurentPoly.monomial(1)
Y_INV = LaurentPoly.monomial(-1)


def laurents(max_terms=6, max_exp=6, max_coeff=9):
    return st.dictionaries(
        st.integers(-max_exp, max_exp),
        st.integers(-max_coeff, max_coeff),
        max_size=max_terms,
    ).map(LaurentPoly)


def bivariates(max_terms=5):
    return st.dictionaries(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        st.integers(-9, 9),
        max_size=max_terms,
    ).map(BivariatePoly)


class TestLaurentBasics:
    def test_monomial_sum(self):
        assert Y + Y_INV == Y_PLUS_Y_INV

    def test_additive_identity(self):
        p = LaurentPoly({3: 2, -1: 5})
        assert p + LaurentPoly.zero() == p

    def test_additive_inverse(self):
        assert Y_PLUS_Y_INV + (-Y_PLUS_Y_INV) == LaurentPoly.zero()
        assert not (Y_PLUS_Y_INV - Y_PLUS_Y_INV)

    def test_binomial_square(self):
        assert Y_PLUS_Y_INV * Y_PLUS_Y_INV == LaurentPoly({2: 1, 0: 2, -2: 1})

    def test_multiplicative_identity(self):
        p = LaurentPoly({5: -3, 0: 7, -2: 1})
        assert p * LaurentPoly.one() == p

    def test_binomial_cube(self):
        assert Y_PLUS_Y_INV**3 == LaurentPoly({3: 1, 1: 3, -1: 3, -3: 1})

    def test_int_coercion(self):
        assert Y + 0 == Y
        assert 2 * Y == LaurentPoly({1: 2})
        assert Y - 1 == LaurentPoly({1: 1, 0: -1})
        z = BivariatePoly.monomial(0, 1)
        assert z + 0 == z and 0 + z == z
        assert z + 2 == BivariatePoly({(0, 1): 1, (0, 0): 2})
        assert z - 1 == BivariatePoly({(0, 1): 1, (0, 0): -1})
        assert 1 - z == BivariatePoly({(0, 1): -1, (0, 0): 1})
        assert 3 * z == z * 3 == BivariatePoly({(0, 1): 3})
        assert z * 0 == BivariatePoly.zero() == 0
        assert BivariatePoly.one() * -2 == -2 and -2 == BivariatePoly({(0, 0): -2})
        assert z != 1 and BivariatePoly.one() != 2

    @pytest.mark.parametrize("cls", [LaurentPoly, BivariatePoly, CoeffTable])
    @pytest.mark.parametrize("c", [0, 1, -3])
    def test_constant_hashes_as_its_int(self, cls, c):
        p = cls.one() * c
        assert p == c and hash(p) == hash(c)
        assert len({c, p}) == 1

    def test_zero_coefficients_dropped(self):
        assert LaurentPoly({3: 0, 1: 2}) == LaurentPoly({1: 2})
        assert LaurentPoly({1: 1}) + LaurentPoly({1: -1}) == LaurentPoly.zero()

    def test_subst_y_inverse(self):
        p = LaurentPoly({2: 3, -1: 1})
        assert p.subst_y_inverse() == LaurentPoly({-2: 3, 1: 1})

    def test_shift(self):
        assert Y.shift(2) == LaurentPoly.monomial(3)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: LaurentPoly({1: 0.5}),
            lambda: LaurentPoly({1.0: 1}),
            lambda: BivariatePoly({(1, 0): 0.5}),
            lambda: BivariatePoly({(1.0, 0): 1}),
            lambda: BivariatePoly({(1, "z"): 1}),
        ],
    )
    def test_requires_ints(self, make):
        with pytest.raises(TypeError):
            make()


class TestSerialization:
    def test_ascending_terms(self):
        p = LaurentPoly({2: 2, 0: -1, -4: 1})
        assert str(p) == "y^-4 - 1 + 2*y^2"

    def test_unit_exponent_and_constants(self):
        assert str(Y + Y_INV) == "y^-1 + y"
        assert str(LaurentPoly.zero()) == "0"
        assert str(LaurentPoly({0: -1})) == "-1"
        assert str(LaurentPoly({1: -1})) == "-y"

    def test_bivariate_sorted_by_z_then_y(self):
        assert str(unlink_factor()) == "y^-1*z^-1 + y*z^-1 - 1"

    def test_bivariate_coefficient_star(self):
        p = BivariatePoly({(2, 1): 3, (0, 0): 1})
        assert str(p) == "1 + 3*y^2*z"


class TestBivariateOps:
    def test_shift_z_monomial(self):
        assert BivariatePoly.one().shift_z(-1) == BivariatePoly.monomial(0, -1)

    def test_unlink_factor_times_z(self):
        # d*z = (y + y^-1) - z
        expected = BivariatePoly({(1, 0): 1, (-1, 0): 1, (0, 1): -1})
        assert unlink_factor() * BivariatePoly.monomial(0, 1) == expected

    def test_unlink_factor_times_z_plus_z(self):
        z = BivariatePoly.monomial(0, 1)
        y_sum = BivariatePoly({(1, 0): 1, (-1, 0): 1})
        assert unlink_factor() * z + z == y_sum

    def test_unlink_factor_term_count(self):
        assert len(list(unlink_factor().items())) == 3

    def test_subst_y_inverse(self):
        p = BivariatePoly({(1, 0): 1, (-2, 1): 1})  # y + z*y^-2
        assert p.subst_y_inverse() == BivariatePoly({(-1, 0): 1, (2, 1): 1})

    def test_subst_y_one_merges_terms(self):
        p = BivariatePoly({(1, 1): 1, (-1, 1): 1})  # (y + y^-1) z
        assert p.subst_y_one() == BivariatePoly({(0, 1): 2})

    def test_z_coefficient(self):
        p = BivariatePoly({(1, 2): 4, (0, 2): -1, (3, 0): 9})
        assert p.z_coefficient(2) == LaurentPoly({1: 4, 0: -1})
        assert p.z_coefficient(5) == LaurentPoly.zero()

    def test_rings_do_not_mix(self):
        one, two = LaurentPoly.one(), BivariatePoly.one()
        for a, b in ((one, two), (two, one)):
            for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
                with pytest.raises(TypeError):
                    op(a, b)
            assert a != b and not a == b

    def test_coeff_table_keeps_its_type(self):
        t = CoeffTable({(1, 0): 2, (-1, 1): -1})
        results = [
            t + t, t + 1, 1 + t, t - t, t - 1, 1 - t, -t, t * t, 2 * t, t * 0, t**2,
            t.shift_y(1), t.shift_z(-1), t.subst_y_inverse(), t.subst_y_one(),
        ]
        assert all(type(x) is CoeffTable for x in results)
        b = BivariatePoly.monomial(1, 1)
        assert type(b + t) is BivariatePoly
        assert b + t == t + b


class TestRingAxioms:
    @settings(max_examples=60)
    @given(laurents(), laurents())
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @settings(max_examples=60)
    @given(laurents(), laurents())
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @settings(max_examples=40)
    @given(laurents(3, 4, 5), laurents(3, 4, 5), laurents(3, 4, 5))
    def test_mul_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=40)
    @given(laurents(3, 4, 5), laurents(3, 4, 5), laurents(3, 4, 5))
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40)
    @given(bivariates(), bivariates())
    def test_bivariate_commutes(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @settings(max_examples=30)
    @given(bivariates(3), bivariates(3), bivariates(3))
    def test_bivariate_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60)
    @given(laurents())
    def test_hash_consistent_with_eq(self, a):
        b = LaurentPoly(dict(a.items()))
        assert a == b and hash(a) == hash(b)


class TestMonotoneCoeff:
    def test_single_component_delta(self):
        assert monotone_coeff(0, 0, 1) == LaurentPoly.one()
        assert monotone_coeff(0, 1, 1) == LaurentPoly.zero()

    def test_two_component_top_entry(self):
        assert monotone_coeff(0, 1, 2) == LaurentPoly({0: -1})
        assert monotone_coeff(0, 0, 2) == Y_PLUS_Y_INV

    def test_writhe_prefactor(self):
        assert monotone_coeff(3, 0, 1) == LaurentPoly.monomial(3)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_vanishing_exactly_outside_range(self, r):
        for n in range(-3, r + 3):
            value = monotone_coeff(0, n, r)
            assert bool(value) == (0 <= n <= r - 1)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_generating_series_is_unlink_factor_power(self, r):
        series = BivariatePoly.zero()
        for n in range(r):
            series = series + BivariatePoly.from_laurent(
                monotone_coeff(0, n, r), z_exp=n + 1 - r
            )
        assert series == unlink_factor() ** (r - 1)

    def test_explicit_formula(self):
        # r=3, n=1: -C(2,1) (y+y^-1)^1 = -2y - 2y^-1
        assert monotone_coeff(0, 1, 3) == LaurentPoly({1: -2, -1: -2})

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            monotone_coeff(0, 0, 0)
