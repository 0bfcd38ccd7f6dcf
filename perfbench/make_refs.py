"""Regenerate the benchmark's reference data in ``data/``.

The references pin the program's answers and inputs at the commit they
were made from; later commits are measured against them.  Run from the
root of a checkout::

    python3 perfbench/make_refs.py ladder    # tables, cross-checked with oracle_L
    python3 perfbench/make_refs.py catalog   # byte-exact verify --catalog lines
    python3 perfbench/make_refs.py pool      # random pool with node counts (minutes)
"""

from __future__ import annotations

import argparse
import json
import sys

from workloads import (
    DATA,
    MAX_C,
    NODE_CAP,
    POOL_SIZE,
    WALK_STEPS,
    CountingCache,
    kp,
    ladder_pds,
    pd_tag,
    random_input,
    sha256_lines,
    verification,
)


def write(name: str, obj) -> None:
    with open(DATA / name, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
    print(f"wrote {DATA / name}", file=sys.stderr)


def make_ladder() -> None:
    inputs = ladder_pds()
    tables = {}
    for name, pd in inputs:
        d = kp.parse_pd(pd)
        cache = CountingCache()
        table = kp.coeff_table(d, cache=cache)
        if kp.series_from_table(table, d.r) != kp.oracle_L(d):
            raise SystemExit(f"{name}: coefficient table disagrees with oracle_L")
        tables[name] = {"pd": pd, "nodes": cache.stores, "alpha": table.to_json_obj()}
        print(f"{name}: c={d.c} nodes={cache.stores}", file=sys.stderr)
    write("ladder_tables.json", {"digest": sha256_lines(pd for _, pd in inputs), "tables": tables})


def make_catalog() -> None:
    ok, reports = verification.verify_catalog(cache={}, oracle_cache={})
    if not ok:
        raise SystemExit("verify_catalog reports a failed check")
    write(
        "catalog_reports.json",
        {
            "digest": sha256_lines(entry.pd for entry in kp.CATALOG.values()),
            "lines": [json.dumps(rep) for rep in reports],
        },
    )


def make_pool() -> None:
    """Node counts of ``kauffman_L`` on random knots and links; diagrams
    that need more than ``NODE_CAP`` nodes are left out of the pool."""
    pool = {"max_c": MAX_C, "walk_steps": WALK_STEPS, "node_cap": NODE_CAP}
    for kind in ("knot", "link"):
        entries = []
        for s in range(POOL_SIZE):
            # Counted on the parsed PD, as the benchmark runs it: parsing
            # renumbers ports, which can change the canonical base.
            pd = random_input(kind, s).to_pd()
            d = kp.parse_pd(pd)
            cache = CountingCache()
            try:
                kp.coeff_table(d, budget=NODE_CAP, cache=cache)
            except kp.BudgetExceededError:
                continue
            entries.append([s, cache.stores, pd_tag(pd)])
        pool[kind] = entries
        print(f"{kind}: {len(entries)} of {POOL_SIZE} within {NODE_CAP} nodes", file=sys.stderr)
    write("random_pool.json", pool)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="what", required=True)
    sub.add_parser("ladder")
    sub.add_parser("catalog")
    sub.add_parser("pool")
    args = ap.parse_args()
    if args.what == "ladder":
        make_ladder()
    elif args.what == "catalog":
        make_catalog()
    else:
        make_pool()


if __name__ == "__main__":
    main()
