"""The benchmark's workloads: how each builds its inputs, runs one pass
through the public API, and checks every answer.

Each pass is closed-loop on one thread: the next diagram starts when the
previous call returns.  Inputs reach the program only as PD text through
``parse_pd``.  Every table or polynomial the program returns is compared
with a reference; a raised exception or a wrong answer counts as one
failed operation and the pass keeps going.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def import_kauffpoly():
    """Import kauffpoly from ``<checkout>/src``, never an installed copy."""
    if not (SRC / "kauffpoly" / "__init__.py").is_file():
        raise ImportError(f"no kauffpoly package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    kp = importlib.import_module("kauffpoly")
    if SRC not in Path(kp.__file__).resolve().parents:
        raise ImportError(f"kauffpoly resolved to {kp.__file__}, outside {SRC}")
    return kp


kp = import_kauffpoly()
# Module access, not names imported from it, so traced rebinding is seen.
from kauffpoly import verification  # noqa: E402

#: Failure messages kept per pass; the count is always exact.
MAX_FAILURE_MESSAGES = 5


class InputDriftError(RuntimeError):
    """The program built different inputs than the references were made from."""


class CountingCache(dict):
    """Diagram -> result memo that counts lookups, hits and stores.

    The engine and the oracle store each expanded recursion node exactly
    once, so ``stores`` is the node count of the calls that used this map.
    """

    def __init__(self):
        super().__init__()
        self.lookups = 0
        self.hits = 0
        self.stores = 0

    def get(self, key, default=None):
        self.lookups += 1
        value = dict.get(self, key, default)
        if value is not None:
            self.hits += 1
        return value

    def __setitem__(self, key, value):
        self.stores += 1
        dict.__setitem__(self, key, value)


@dataclass
class PassResult:
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    coeff_lookups: int = 0
    coeff_hits: int = 0
    coeff_stores: int = 0
    oracle_lookups: int = 0
    oracle_hits: int = 0
    oracle_stores: int = 0
    checks: int = 0
    checks_failed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def nodes(self) -> int:
        return self.coeff_stores + self.oracle_stores

    def count(self, coeff: list[CountingCache], oracle: list[CountingCache]) -> None:
        for c in coeff:
            self.coeff_lookups += c.lookups
            self.coeff_hits += c.hits
            self.coeff_stores += c.stores
        for c in oracle:
            self.oracle_lookups += c.lookups
            self.oracle_hits += c.hits
            self.oracle_stores += c.stores

    def merge(self, other: PassResult) -> None:
        """Add ``other``'s counts and failures to this result."""
        for name, value in vars(other).items():
            if name == "failures":
                room = MAX_FAILURE_MESSAGES - len(self.failures)
                self.failures.extend(value[: max(room, 0)])
            else:
                setattr(self, name, getattr(self, name) + value)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(what)


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def load_json(name: str):
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    name = ""
    #: Per-call node budget, a few times the largest count at the commit
    #: the references come from, so a blow-up fails within seconds.
    budget = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs: list[tuple[str, str]] = self.build()
        self.digest = sha256_lines(pd for _, pd in self.inputs)

    def build(self) -> list[tuple[str, str]]:
        """(name, PD text) pairs; raises InputDriftError if they differ
        from the inputs the references were made from."""
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def n_units(self) -> int:
        """A pass is units 0 to n_units() - 1 in turn; by default one per input."""
        return len(self.inputs)

    def run_unit(self, i: int) -> PassResult:
        res = PassResult()
        t0 = time.perf_counter()
        self._unit(res, i)
        res.wall_s = time.perf_counter() - t0
        return res

    def run_pass(self) -> PassResult:
        res = PassResult()
        t0 = time.perf_counter()
        for i in range(self.n_units()):
            self._unit(res, i)
        res.wall_s = time.perf_counter() - t0
        return res

    def _unit(self, res: PassResult, i: int) -> None:
        self._one(res, *self.inputs[i])

    def _one(self, res: PassResult, name: str, pd: str) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# ladder: `kauffpoly coeffs` on a few deep, fixed inputs


def torus_pd(n: int) -> str:
    """T(2, n) as ``X(2i+1, 2i+1+n, 2i+2, 2i+2+n)`` with labels mod 2n."""
    label = lambda k: (k - 1) % (2 * n) + 1  # noqa: E731
    return " ".join(
        "X(%d,%d,%d,%d)"
        % (label(2 * i + 1), label(2 * i + 1 + n), label(2 * i + 2), label(2 * i + 2 + n))
        for i in range(n)
    )


def kink_chain_pd(k: int) -> str:
    """Unknot with ``k`` kinks of alternating sign, each added on the
    lowest-labelled edge."""
    d = kp.parse_pd("O")
    for i in range(k):
        site = min(d.edge_labels()) if d.c else None
        d = kp.r1_add(d, site, "+-"[i % 2])
    return d.to_pd()


def ladder_pds() -> list[tuple[str, str]]:
    f8 = kp.parse_pd(kp.CATALOG["figure8"].pd)
    f8f8 = kp.connected_sum(f8, f8)
    return [
        *((f"T(2,{n})", torus_pd(n)) for n in (5, 7, 9, 11)),
        ("f8#f8", f8f8.to_pd()),
        ("f8#f8#f8", kp.connected_sum(f8f8, f8).to_pd()),
        ("kinks12", kink_chain_pd(12)),
        ("kinks16", kink_chain_pd(16)),
    ]


class Ladder(Workload):
    """Fixed inputs; the seed is ignored."""

    name = "ladder"
    budget = 60_000  # its largest call, T(2,11), expands 14 273 nodes

    def build(self):
        refs = load_json("ladder_tables.json")
        inputs = ladder_pds()
        if sha256_lines(pd for _, pd in inputs) != refs["digest"]:
            raise InputDriftError("ladder PD inputs differ from data/ladder_tables.json")
        self.expected = {name: json.dumps(ref["alpha"]) for name, ref in refs["tables"].items()}
        return inputs

    def _one(self, res: PassResult, name: str, pd: str) -> None:
        cache = CountingCache()
        res.attempted += 1
        try:
            table = kp.coeff_table(kp.parse_pd(pd), budget=self.budget, cache=cache)
            if json.dumps(table.to_json_obj()) != self.expected[name]:
                res.fail(f"{name}: table differs from reference")
        except Exception as exc:  # a failed operation is counted, not fatal
            res.fail(f"{name}: {type(exc).__name__}: {exc}")
        res.count([cache], [])

    def warm_up(self):
        self._one(PassResult(), *self.inputs[0])


# ----------------------------------------------------------------------
# kauffman_random: `kauffpoly kauffman` on seeded random knots and links

#: Generation parameters of the random pool (see make_refs.py): diagram
#: seeds 0 to POOL_SIZE - 1 of each kind, kept if ``kauffman_L`` needs at
#: most NODE_CAP nodes.
MAX_C = 10
WALK_STEPS = 30
POOL_SIZE = 600
NODE_CAP = 1000
#: The pool, per kind, is sorted by node count and cut into this many
#: equal strata; a seed picks two diagrams of mirrored rank from each, so
#: it changes which diagrams run but hardly how much work a pass holds.
STRATA = 12


def random_link(seed: int, max_c: int = MAX_C, walk_steps: int = WALK_STEPS):
    """A 3-component link built like ``random_diagram``: a seeded move
    walk from three free loops, then coin-flip crossing changes."""
    d, _ = kp.random_move_walk(kp.parse_pd("O O O"), walk_steps, seed, max_c)
    rng = random.Random(f"flips:{seed}")
    for p in range(d.c):
        if rng.random() < 0.5:
            d = d.crossing_change(p)
    return d


def random_input(kind: str, seed: int):
    if kind == "knot":
        return kp.random_diagram(seed, MAX_C, walk_steps=WALK_STEPS)
    return random_link(seed)


def pd_tag(pd: str) -> str:
    return hashlib.sha256(pd.encode()).hexdigest()[:16]


def strata(entries: list, n: int) -> list[list]:
    """Cut ``entries`` (already sorted) into ``n`` contiguous, near-equal groups."""
    q, r = divmod(len(entries), n)
    out, start = [], 0
    for i in range(n):
        size = q + (1 if i < r else 0)
        out.append(entries[start : start + size])
        start += size
    return out


def pick_random_inputs(pool: dict, seed: int) -> list[tuple[str, int, int, str]]:
    """(kind, diagram seed, reference nodes, PD tag) for one benchmark seed."""
    rng = random.Random(f"kauffman_random:{seed}")
    picks = []
    for kind in ("knot", "link"):
        ranked = sorted(pool[kind], key=lambda e: (e[1], e[0]))
        for group in strata(ranked, STRATA):
            i = rng.randrange(len(group) // 2)
            for s, nodes, tag in (group[i], group[-1 - i]):
                picks.append((kind, s, nodes, tag))
    return picks


class KauffmanRandom(Workload):
    """Seeded: the seed picks two diagrams from each node-count stratum
    of a pool of random knots and 3-component links."""

    name = "kauffman_random"
    budget = 4 * NODE_CAP

    def build(self):
        pool = load_json("random_pool.json")
        inputs = []
        for kind, s, _, tag in pick_random_inputs(pool, self.seed):
            pd = random_input(kind, s).to_pd()
            if pd_tag(pd) != tag:
                raise InputDriftError(f"{kind} seed {s} differs from data/random_pool.json")
            inputs.append((f"{kind}:{s}", pd))
        return inputs

    def _one(self, res: PassResult, name: str, pd: str) -> None:
        cl, cf, co = CountingCache(), CountingCache(), CountingCache()
        res.attempted += 1
        try:
            d = kp.parse_pd(pd)
            L = kp.kauffman_L(d, budget=self.budget, cache=cl)
            F = kp.kauffman_F(d, (1,) * d.r, budget=self.budget, cache=cf)
            L_oracle = kp.oracle_L(d, budget=self.budget, cache=co)
            agrees = L == L_oracle
            json.dumps(  # the record `kauffpoly kauffman` prints
                {
                    "L": str(L),
                    "F": str(F),
                    "orientation": ["+"] * d.r,
                    "L_oracle": str(L_oracle),
                    "agrees_with_coeff_pipeline": agrees,
                }
            )
            if not agrees:
                res.fail(f"{name}: L differs from oracle_L")
        except Exception as exc:  # a failed operation is counted, not fatal
            res.fail(f"{name}: {type(exc).__name__}: {exc}")
        res.count([cl, cf], [co])

    def warm_up(self):
        self._one(PassResult(), *self.inputs[0])


# ----------------------------------------------------------------------
# verify_catalog: `kauffpoly verify --catalog`, many small calls on one cache


class VerifyCatalog(Workload):
    """Fixed inputs (the built-in catalog); the seed is ignored."""

    name = "verify_catalog"
    budget = 7_000  # its largest single call expands 1 680 nodes

    def build(self):
        refs = load_json("catalog_reports.json")
        inputs = [(entry.name, entry.pd) for entry in kp.CATALOG.values()]
        if sha256_lines(pd for _, pd in inputs) != refs["digest"]:
            raise InputDriftError("catalog PDs differ from data/catalog_reports.json")
        self.expected = refs["lines"]
        return inputs

    def warm_up(self):
        verification.verify_diagram(kp.parse_pd(kp.CATALOG["trefoil"].pd), cache={}, oracle_cache={})

    def n_units(self):
        return 1  # one verify_catalog call over the whole catalog

    def _unit(self, res, i):
        cache, oracle_cache = CountingCache(), CountingCache()
        res.attempted += len(self.expected)
        error = ""
        try:
            _, reports = verification.verify_catalog(
                budget=self.budget, cache=cache, oracle_cache=oracle_cache
            )
        except Exception as exc:  # the pass is one call: every report fails
            reports, error = [], f"{type(exc).__name__}: {exc}"
        lines = [json.dumps(rep) for rep in reports]
        for i, want in enumerate(self.expected):
            if i >= len(lines):
                res.fail(f"report {i}: missing {error}")
            elif lines[i] != want:
                res.fail(f"report {i} ({reports[i]['name']}): differs from reference")
        if len(lines) > len(self.expected):
            res.fail(f"{len(lines) - len(self.expected)} reports more than the reference")
        for rep in reports:
            res.checks += len(rep["checks"])
            res.checks_failed += sum(1 for ok in rep["checks"].values() if not ok)
        res.count([cache], [oracle_cache])


WORKLOADS = {w.name: w for w in (Ladder, KauffmanRandom, VerifyCatalog)}
