"""Acceptance suite: one test per exit criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion, or end-to-end via ``kauffpoly verify --catalog``.
"""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kauffpoly.catalog import CATALOG
from kauffpoly.coeffs import coeff_table, coeff_table_with_base, skein_check
from kauffpoly.diagram import Diagram, connected_sum, disjoint_union, parse_pd
from kauffpoly.laurent import monotone_coeff
from kauffpoly.moves import random_diagram, random_move_walk
from kauffpoly.oracle import uniqueness_check
from kauffpoly.series import (
    check_L_skein,
    check_product_laws,
    kauffman_F,
    kauffman_L,
    unlink_factor,
)
from kauffpoly.warping import (
    canonical_base,
    enumerate_bases,
    warping_order,
)

ROOT = Path(__file__).resolve().parent.parent
TABLE_CACHE: dict = {}
ORACLE_CACHE: dict = {}


def _criterion(num: int, description: str, ok: bool, elapsed: float, limit: float):
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    print(
        f"ACCEPTANCE {num}: {verdict} - {description} "
        f"({elapsed:.2f}s, limit {limit:.0f}s)"
    )
    assert ok, f"criterion {num} failed: {description}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def catalog_diagrams(max_c=None):
    for entry in CATALOG.values():
        d = entry.diagram()
        if max_c is None or d.c <= max_c:
            yield entry.name, d


def test_criterion_1_trivial_link_closed_form():
    t0 = time.time()
    ok = True
    for r in range(1, 9):
        table = coeff_table(Diagram((), (), r))
        for n in range(-2, r + 2):
            ok = ok and table[n] == monotone_coeff(0, n, r)
    _criterion(1, "trivial-link closed form for 1 <= r <= 8", ok, time.time() - t0, 1)


def test_criterion_2_skein_identity_suite():
    t0 = time.time()
    ok = True
    for _, d in catalog_diagrams(max_c=8):
        for p in range(d.c):
            ok = ok and skein_check(d, p, cache=TABLE_CACHE)
            ok = ok and check_L_skein(d, p, cache=TABLE_CACHE)
    for seed in range(200):
        d = random_diagram(seed, 6)
        for p in range(d.c):
            ok = ok and skein_check(d, p, cache=TABLE_CACHE)
            ok = ok and check_L_skein(d, p, cache=TABLE_CACHE)
    _criterion(
        2,
        "four-term identities on catalog (c<=8) and 200 random diagrams (c<=6)",
        ok,
        time.time() - t0,
        300,
    )


def test_criterion_3_base_and_warping_independence():
    t0 = time.time()
    targets = list(catalog_diagrams(max_c=5))
    targets += [(f"random{seed}", random_diagram(seed, 5)) for seed in range(20)]
    ok = True
    perm_ok = True
    for _, d in targets:
        expected = coeff_table(d, cache=TABLE_CACHE)
        for base in enumerate_bases(d):
            ok = ok and coeff_table_with_base(d, base, cache=TABLE_CACHE) == expected
        base = canonical_base(d)
        for p in warping_order(d, base):
            ok = (
                ok
                and coeff_table_with_base(
                    d, base, warping_crossing=p, cache=TABLE_CACHE
                )
                == expected
            )
        for permuted in itertools.permutations(base):
            perm_ok = (
                perm_ok
                and coeff_table_with_base(d, permuted, cache=TABLE_CACHE) == expected
            )
    elapsed = time.time() - t0
    print(
        "ACCEPTANCE 3 (component-order permutations, reported separately): "
        + ("PASS" if perm_ok else "FAIL")
    )
    _criterion(
        3,
        "base and warping-crossing independence on all diagrams with c<=5",
        ok and perm_ok,
        elapsed,
        120,
    )


def test_criterion_4_reidemeister_walks():
    t0 = time.time()
    starts = [
        CATALOG[name].diagram()
        for name in ("unknot", "kink_pos", "kink_neg", "trefoil", "figure8")
    ]
    ok = True
    for i in range(500):
        start = starts[i % len(starts)]
        end, trace = random_move_walk(start, 12, seed=10_000 + i, max_c=10)
        L_start = kauffman_L(start, cache=TABLE_CACHE)
        L_end = kauffman_L(end, cache=TABLE_CACHE)
        ok = ok and L_end == L_start.shift_y(trace.net_r1)
        f_start = str(kauffman_F(start, (1,) * start.r, cache=TABLE_CACHE))
        f_end = str(kauffman_F(end, (1,) * end.r, cache=TABLE_CACHE))
        ok = ok and f_start == f_end
    _criterion(
        4,
        "500 random move walks (max_c=10): L scales by net R1, F bit-identical",
        ok,
        time.time() - t0,
        300,
    )


def test_criterion_5_uniqueness_oracle_equivalence():
    t0 = time.time()
    ok = True
    for _, d in catalog_diagrams(max_c=8):
        ok = ok and uniqueness_check(
            d, cache=ORACLE_CACHE, table_cache=TABLE_CACHE
        )
    for seed in range(100):
        d = random_diagram(seed, 6)
        ok = ok and uniqueness_check(
            d, cache=ORACLE_CACHE, table_cache=TABLE_CACHE
        )
    _criterion(
        5,
        "table pipeline equals whole-polynomial evaluator on catalog + 100 randoms",
        ok,
        time.time() - t0,
        600,
    )


def test_criterion_6_product_laws():
    t0 = time.time()
    names = ("kink_pos", "kink_neg", "hopf", "trefoil")
    ok = True
    for n1, n2 in itertools.combinations_with_replacement(names, 2):
        d1 = CATALOG[n1].diagram()
        d2 = CATALOG[n2].diagram()
        # every summing-edge choice, plus the disjoint union law
        ok = ok and check_product_laws(d1, d2, cache=TABLE_CACHE)
    _criterion(
        6,
        "connected-sum and disjoint-union product laws over all edge choices",
        ok,
        time.time() - t0,
        120,
    )


def test_criterion_7_vanishing_bounds():
    t0 = time.time()
    ok = True
    for _, d in catalog_diagrams():
        bounds = coeff_table(d, cache=TABLE_CACHE).support_bounds()
        lo, hi = bounds
        ok = ok and lo >= 0 and hi <= d.c + d.r - 1
    for seed in range(200):
        d = random_diagram(seed, 6)
        bounds = coeff_table(d, cache=TABLE_CACHE).support_bounds()
        ok = ok and bounds is not None and bounds[0] >= 0
        ok = ok and bounds[1] <= d.c + d.r - 1
    _criterion(
        7,
        "every computed table supported within [0, c+r-1]",
        ok,
        time.time() - t0,
        60,
    )


def test_criterion_8_mirror_property():
    t0 = time.time()
    ok = True
    for _, d in catalog_diagrams():
        o = (1,) * d.r
        f = kauffman_F(d, o, cache=TABLE_CACHE)
        f_mirror = kauffman_F(d.mirror(), o, cache=TABLE_CACHE)
        ok = ok and f_mirror == f.subst_y_inverse()
    fig8 = CATALOG["figure8"].diagram()
    f = kauffman_F(fig8, (1,), cache=TABLE_CACHE)
    ok = ok and f == f.subst_y_inverse()
    _criterion(
        8,
        "F(mirror) = F with y -> y^-1 on the catalog; figure-eight self-dual",
        ok,
        time.time() - t0,
        60,
    )


def test_criterion_9_end_to_end_verify():
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "kauffpoly", "verify", "--catalog"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
    )
    ok = proc.returncode == 0
    _criterion(
        9,
        "`kauffpoly verify --catalog` exits 0",
        ok,
        time.time() - t0,
        900,
    )
