"""``verify_diagram`` asks the engine each question once, and the checks
that share an answer still see every fault in it."""

import itertools
import random
import sys

import pytest

import kauffpoly.coeffs as coeffs_mod
import kauffpoly.verification as verification
import kauffpoly.warping as warping_mod
from kauffpoly.catalog import CATALOG
from kauffpoly.coeffs import CoeffTable
from kauffpoly.diagram import connected_sum, parse_pd
from kauffpoly.laurent import BivariatePoly, LaurentPoly
from kauffpoly.moves import random_diagram
from kauffpoly.verification import BASE_SAMPLE, FULL_BASE_LIMIT_C, _bases_to_try, verify_diagram
from kauffpoly.warping import canonical_base, enumerate_bases, warping_order

#: Added to a table to corrupt it; no table of these diagrams reaches z^9.
WRONG = CoeffTable.from_dict({9: LaurentPoly.one()})


def _diagram(name: str):
    if name.startswith("random "):
        return random_diagram(int(name.split()[1]), 6)
    return CATALOG[name].diagram()


def _corrupt_with_base(monkeypatch, corrupt_if):
    """Make ``coeff_table_with_base`` in ``verify_diagram`` return a wrong
    table for the bases ``corrupt_if(d, base)`` picks; returns the list
    of corrupted calls."""
    real = verification.coeff_table_with_base
    corrupted = []

    def fake(d, base, **kwargs):
        table = real(d, base, **kwargs)
        if corrupt_if(d, base):
            corrupted.append(base)
            return table + WRONG
        return table

    monkeypatch.setattr(verification, "coeff_table_with_base", fake)
    return corrupted


class TestSharingHidesNoFault:
    @pytest.mark.parametrize("name", ["trefoil", "granny", "figure8_figure8"])
    def test_base_whose_first_warping_crossing_is_the_last(self, name, monkeypatch):
        d = _diagram(name)
        order = warping_order(d, canonical_base(d))
        assert len(order) >= 2
        last = order[-1]
        # some tried base warps first at the crossing the canonical base warps last
        assert any(warping_order(d, b)[:1] == (last,) for b in _bases_to_try(d))
        corrupted = _corrupt_with_base(
            monkeypatch, lambda x, b: warping_order(x, b)[:1] == (last,)
        )
        report = verify_diagram(d)
        assert corrupted
        assert not report["checks"]["base_independence"]
        assert not report["ok"]

    @pytest.mark.parametrize("name", ["kink_pos", "random 0", "random 3"])
    def test_bases_with_no_warping_crossing(self, name, monkeypatch):
        d = _diagram(name)
        assert any(not warping_order(d, b) for b in _bases_to_try(d))
        assert warping_order(d, canonical_base(d))
        corrupted = _corrupt_with_base(monkeypatch, lambda x, b: not warping_order(x, b))
        report = verify_diagram(d)
        assert corrupted
        assert not report["checks"]["base_independence"]
        assert report["checks"]["warping_choice_independence"]

    @pytest.mark.parametrize("name", ["hopf", "trefoil", "figure8", "granny"])
    def test_b_splice_at_one_crossing(self, name, monkeypatch):
        d = _diagram(name)
        target = d.splice(d.c - 1, "B")
        real = coeffs_mod.coeff_table
        corrupted = []

        def fake(x, **kwargs):
            table = real(x, **kwargs)
            if x == target:
                corrupted.append(x)
                return table + WRONG
            return table

        monkeypatch.setattr(coeffs_mod, "coeff_table", fake)
        checks = verify_diagram(d)["checks"]
        assert corrupted
        assert not checks["skein_coefficients"]
        assert not checks["skein_series"]
        assert checks["base_independence"] and checks["warping_choice_independence"]


class TestEachQuestionOnce:
    @pytest.mark.parametrize("name", ["trefoil", "figure8", "granny"])
    def test_counts(self, name, monkeypatch):
        d = _diagram(name)
        # one top-level expansion per warping crossing met first by a tried
        # base or picked under the canonical base, and one per base that
        # has no warping crossing (its closed form reads its own writhe)
        firsts = [warping_order(d, b)[:1] for b in _bases_to_try(d)]
        decisions = len(
            {f[0] for f in firsts if f} | set(warping_order(d, canonical_base(d)))
        ) + sum(1 for f in firsts if not f)

        with_base_calls = []
        real_with_base = verification.coeff_table_with_base

        def counting_with_base(x, base, **kwargs):
            with_base_calls.append(base)
            return real_with_base(x, base, **kwargs)

        looked_up = []
        real_table = coeffs_mod.coeff_table

        def counting_table(x, **kwargs):
            looked_up.append(x)
            return real_table(x, **kwargs)

        monkeypatch.setattr(verification, "coeff_table_with_base", counting_with_base)
        monkeypatch.setattr(coeffs_mod, "coeff_table", counting_table)
        assert verify_diagram(d)["ok"]
        assert len(with_base_calls) == decisions
        # the skein pair: the flip and the two splices at each crossing, once
        assert looked_up == [
            x
            for p in range(d.c)
            for x in (d.crossing_change(p), d.splice(p, "A"), d.splice(p, "B"))
        ]


class TestOracleChecks:
    """Both oracle checks read one ``oracle_L`` value and verify's own ``L``."""

    @pytest.mark.parametrize("name", ["hopf", "trefoil", "figure8", "granny"])
    def test_one_oracle_call_and_no_second_L(self, name, monkeypatch):
        d = _diagram(name)
        oracle_calls = []
        real_oracle = verification.oracle_L

        def counting_oracle(x, **kwargs):
            oracle_calls.append(x)
            return real_oracle(x, **kwargs)

        l_calls = []

        def counting_l(real):
            def wrapped(x, **kwargs):
                l_calls.append(x)
                return real(x, **kwargs)

            return wrapped

        # every kauffpoly module that holds the name, so a new caller is counted too
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("kauffpoly.") and hasattr(module, "kauffman_L"):
                monkeypatch.setattr(module, "kauffman_L", counting_l(module.kauffman_L))
        monkeypatch.setattr(verification, "oracle_L", counting_oracle)
        assert verify_diagram(d)["ok"]
        assert oracle_calls == [d]
        assert d not in l_calls

    @pytest.mark.parametrize(
        "wrong, exact, at_y1",
        [
            pytest.param(BivariatePoly.monomial(0, 9), False, False, id="z^9"),
            pytest.param(BivariatePoly({(1, 0): 1, (0, 0): -1}), False, True, id="y-1"),
            pytest.param(BivariatePoly.zero(), True, True, id="none"),
        ],
    )
    def test_a_wrong_oracle_value_fails_its_checks(self, wrong, exact, at_y1, monkeypatch):
        d = _diagram("trefoil")
        real_oracle = verification.oracle_L
        monkeypatch.setattr(
            verification, "oracle_L", lambda x, **kwargs: real_oracle(x, **kwargs) + wrong
        )
        checks = verify_diagram(d)["checks"]
        assert checks["oracle_equality"] is exact
        assert checks["oracle_equality_at_y1"] is at_y1


def _hopf_chain(rings: int):
    """A chain of ``rings`` rings: connected sums of Hopf links, each
    cut at the highest edge of the chain so far."""
    hopf = parse_pd("X(1,4,2,3) X(3,2,4,1)")
    d = hopf
    for _ in range(rings - 2):
        d = connected_sum(d, hopf, max(d.edge_labels()))
    return d


def _old_bases_to_try(d):
    """Reference rule: list every base, then sample from the list."""
    bases = list(enumerate_bases(d))
    if d.c <= FULL_BASE_LIMIT_C or len(bases) <= BASE_SAMPLE:
        return bases
    return random.Random("bases:" + d.to_pd()).sample(bases, BASE_SAMPLE)


class TestBaseSample:
    @pytest.mark.parametrize(
        "d",
        [
            *(pytest.param(e.diagram(), id=name) for name, e in CATALOG.items()),
            *(
                pytest.param(random_diagram(s, 12, walk_steps=30), id=f"random:{s}")
                for s in range(20)
            ),
            pytest.param(_hopf_chain(5), id="chain5"),
        ],
    )
    def test_picks_equal_the_old_rule(self, d):
        assert _bases_to_try(d) == _old_bases_to_try(d)

    def test_long_chain_builds_only_the_sample(self, monkeypatch):
        # the chain has 9 437 184 bases; only the 16 drawn are built, each
        # decoded from its index, so nothing enumerates the bases
        d = _hopf_chain(10)
        assert (d.c, d.r) == (18, 10)

        def refuse(*args):
            raise AssertionError("the bases were enumerated")

        monkeypatch.setattr(warping_mod, "enumerate_bases", refuse)
        monkeypatch.setattr(itertools, "product", refuse)
        bases = _bases_to_try(d)
        assert len(bases) == len(set(bases)) == BASE_SAMPLE
