"""kauffpoly benchmark: run one workload, check every answer, print metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Workloads are ``ladder``, ``kauffman_random`` and ``verify_catalog``
(see README.md); ``all`` runs the three in turn.  With ``--trace 0`` the
run starts fresh worker processes one after another, in four rounds:
for about a second processes that only set up, then one that sets up and
runs units (single inputs) in turn for its share of ``--seconds``; the
first of these starts with one whole pass.  It reports the end-to-end
metrics.  ``wall_rel`` is the pass time, summed over units from each
unit's median, with each unit's time taken in units of a fixed piece of
reference work run next to it.  With ``--trace 1`` one worker runs
untraced passes and then traced passes, and the run reports per-layer
metrics.  The load is one process and one thread at a time, closed
loop.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it are a readable table and the full record, which is also saved
under ``perfbench/out/``.  Without a result the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
OUT = BENCH_DIR / "out"
WORKLOADS = ("ladder", "kauffman_random", "verify_catalog")
#: An untraced run is ROUNDS rounds.  Each starts fresh processes that
#: only set up, for SETUP_ROUND_S, then one that sets up and runs units
#: (single inputs; for verify_catalog the whole catalog) in turn for its
#: share of the run.  Wall time is the sum over units of each unit's
#: median time, so a slow spell of the shared host spoils only the few
#: units it overlaps.  wall_rel is the same sum with each unit run's
#: time divided by the mean time of the reference work run just before
#: and just after it (worker.reference_work), which cancels much of the
#: slower swings of the host's speed.  Set-up time is the median over
#: rounds of the mean set-up time of the round's processes: one set-up
#: is short and the host's speed shifts for seconds at a time, so single
#: set-ups cluster in two modes and their median jumps between them
#: from run to run.
ROUNDS = 4
SETUP_ROUND_S = 1.0
#: Every run ends within this many seconds, or fails without a result.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_rel": "ratio",
    "nodes": "count",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> (span names, field); "calls" and "self_s" read the
#: spans of one traced pass, the other fields read its counters.
PER_LAYER = {
    "diagram.splice.calls": (["diagram.splice"], "calls"),
    "diagram.splice.self_s": (["diagram.splice"], "self_s"),
    "diagram.crossing_change.calls": (["diagram.crossing_change"], "calls"),
    "diagram.crossing_change.self_s": (["diagram.crossing_change"], "self_s"),
    "diagram.components.calls": (["diagram.components"], "calls"),
    "diagram.components.self_s": (["diagram.components"], "self_s"),
    "diagram.validate.calls": (["diagram.validate"], "calls"),
    "diagram.validate.self_s": (["diagram.validate"], "self_s"),
    "diagram.parse_pd.self_s": (["diagram.parse_pd"], "self_s"),
    "diagram.self_s": (["diagram."], "self_s"),
    "warping.first_encounter.calls": (["warping.first_encounter"], "calls"),
    "warping.first_encounter.self_s": (["warping.first_encounter"], "self_s"),
    "warping.canonical_base.calls": (["warping.canonical_base"], "calls"),
    "warping.canonical_base.self_s": (["warping.canonical_base"], "self_s"),
    "warping.validate_base.calls": (["warping.validate_base"], "calls"),
    "warping.validate_base.self_s": (["warping.validate_base"], "self_s"),
    "warping.self_s": (["warping."], "self_s"),
    "coeffs.nodes": ([], "coeff_stores"),
    "coeffs.cache_hits": ([], "coeff_hits"),
    "coeffs.cache_hit_ratio": ([], "coeff_hit_ratio"),
    "coeffs.self_s": (["coeffs."], "self_s"),
    "oracle.nodes": ([], "oracle_stores"),
    "oracle.cache_hits": ([], "oracle_hits"),
    "oracle.self_s": (["oracle."], "self_s"),
    "laurent.add.calls": (["laurent.add"], "calls"),
    "laurent.mul.calls": (["laurent.mul"], "calls"),
    "laurent.bivariate_mul.calls": (["laurent.bivariate_mul"], "calls"),
    "laurent.self_s": (["laurent."], "self_s"),
    "series.self_s": (["series."], "self_s"),
    "verification.checks": ([], "checks"),
    "verification.checks_failed": ([], "checks_failed"),
    "verification.self_s": (["verification."], "self_s"),
    "moves.walk.self_s": (["moves.walk"], "setup_self_s"),
    "moves.r1_add.calls": (["moves.r1_add"], "calls"),
}
UNITS = {"calls": "count", "self_s": "s", "setup_self_s": "s", "coeff_hit_ratio": "ratio"}


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def host() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def spread(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values), "samples": values}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def run_worker(mode: str, args, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(WORKER), mode,
        "--workload", args.workload, "--seed", str(args.seed), *extra,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a worker could start")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {args.workload} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_passes(passes: list[dict], notes: list[str]) -> tuple[int, int]:
    """(attempted, failed) over passes; node counts must repeat exactly."""
    for p in passes:
        notes.extend(p["failures"])
    if len({p["coeff_stores"] + p["oracle_stores"] for p in passes}) > 1:
        notes.append("node counts differ between passes of the same inputs")
    return sum(p["attempted"] for p in passes), sum(p["failed"] for p in passes)


def measure(args, deadline: float) -> dict:
    """ROUNDS rounds, each of set-up-only workers for SETUP_ROUND_S and
    then one measure worker that runs units for its share of what is
    left of ``--seconds``.  The first measure worker starts with one
    whole pass (for the peak RSS); each later one starts at the unit
    where the one before stopped, so the units are run in turn over
    the whole run and each is run about equally often."""
    t_end = time.monotonic() + args.seconds
    rounds, measured, start = [], [], 0
    for r in range(ROUNDS):
        t_slot_end = time.monotonic() + (t_end - time.monotonic()) / (ROUNDS - r)
        t_round = time.monotonic()
        workers = [run_worker("setup", args, deadline)]
        while time.monotonic() - t_round < SETUP_ROUND_S:
            workers.append(run_worker("setup", args, deadline))
        own_setup = statistics.mean(w["setup_s"] for w in workers)
        seconds = max(t_slot_end - time.monotonic() - own_setup, 0.0)
        extra = ["--seconds", repr(seconds), "--start", str(start)]
        worker = run_worker("measure", args, deadline, *extra, *(["--full-pass"] if r == 0 else []))
        start = worker["next"]
        rounds.append(workers + [worker])
        measured.append(worker)
    if len({w["digest"] for r in rounds for w in r}) != 1:
        raise BenchError("workers built different inputs from the same seed")
    notes: list[str] = []
    per_unit: dict[int, list[float]] = {}
    per_unit_rel: dict[int, list[float]] = {}
    unit_nodes: dict[int, set[int]] = {}
    for w in measured:
        notes.extend(w["totals"]["failures"])
        refs = w["reference_s"]
        for unit, wall, nodes, k in w["samples"]:
            # the reference work run just before and just after the unit
            ref = statistics.mean(refs[k : k + 2] if k >= 0 else refs[:1])
            per_unit.setdefault(unit, []).append(wall)
            per_unit_rel.setdefault(unit, []).append(wall / ref)
            unit_nodes.setdefault(unit, set()).add(nodes)
    if any(len(n) > 1 for n in unit_nodes.values()):
        notes.append("node counts differ between runs of the same unit")
    attempted = sum(w["totals"]["attempted"] for w in measured)
    failed = sum(w["totals"]["failed"] for w in measured)
    wall = unit_sums(per_unit)
    reference = spread([t for w in measured for t in w["reference_s"]])
    setup = spread([statistics.mean(w["setup_s"] for w in r) for r in rounds])
    values = {
        "setup_s": setup["median"],
        "wall_rel": unit_sums(per_unit_rel)["median"],
        "nodes": sum(min(n) for n in unit_nodes.values()),
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": measured[0]["peak_rss_mb"],
    }
    return {
        "digest": measured[0]["digest"],
        "inputs": measured[0]["inputs"],
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "fail_frac": failed / attempted,
        "wall_s": wall,
        "reference_s": reference,
        "setup_s": setup,
        "setup_samples": [[w["setup_s"] for w in r] for r in rounds],
        "measured": [{k: w[k] for k in ("samples", "reference_s")} for w in measured],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()},
    }


def unit_sums(per_unit: dict[int, list[float]]) -> dict:
    """One pass's time as the sum over units of each unit's median time,
    with the sums of their quartiles; ``n`` counts unit runs and
    ``passes`` the whole passes they add up to."""
    quart = [statistics.quantiles(v, n=4) if len(v) >= 2 else [v[0]] * 3 for v in per_unit.values()]
    n = sum(len(v) for v in per_unit.values())
    return {
        "median": sum(statistics.median(v) for v in per_unit.values()),
        "q1": sum(q[0] for q in quart),
        "q3": sum(q[2] for q in quart),
        "n": n,
        "passes": n / len(per_unit),
    }


def layer_value(rec: dict, spans: list[str], field: str) -> float:
    n = len(rec["traced"])
    if field in ("calls", "self_s", "setup_self_s"):
        layers = rec["setup_layers"] if field == "setup_self_s" else rec["pass_layers"]
        col = 0 if field == "calls" else 1
        total = sum(
            (v[col] for name, v in layers.items() if any(name.startswith(s) for s in spans)),
            0.0,
        )
        return total if field == "setup_self_s" else total / n
    if field == "coeff_hit_ratio":
        lookups = sum(p["coeff_lookups"] for p in rec["traced"])
        return sum(p["coeff_hits"] for p in rec["traced"]) / lookups if lookups else 0.0
    return sum(p[field] for p in rec["traced"]) / n


def trace(args, deadline: float) -> dict:
    rec = run_worker("trace", args, deadline, "--seconds", repr(args.seconds))
    notes: list[str] = []
    attempted, failed = check_passes(rec["passes"] + rec["traced"], notes)
    metrics = {
        name: {"value": layer_value(rec, names, field), "unit": UNITS.get(field, "count")}
        for name, (names, field) in PER_LAYER.items()
    }
    untraced = statistics.median(p["wall_s"] for p in rec["passes"])
    traced = statistics.median(p["wall_s"] for p in rec["traced"])
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    return {
        "digest": rec["digest"],
        "inputs": rec["inputs"],
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "fail_frac": failed / attempted,
        "spans": rec["spans"],
        "spans_file": rec["spans_file"],
        "wall_s_untraced": untraced,
        "wall_s_traced": traced,
        "metrics": metrics,
    }


def run_one(args, deadline: float) -> dict:
    started = host()
    rec = trace(args, deadline) if args.trace else measure(args, deadline)
    rec = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": started,
        "loadavg_end": list(os.getloadavg()),
        **rec,
    }
    rec["correct"] = rec["failed"] == 0 and not rec["notes"]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(rec, fh, indent=1)
    shown = dict(rec["metrics"])
    if "wall_s" in rec:
        shown["wall_s"] = {"value": rec["wall_s"]["median"], "unit": "s"}
        shown["reference_s"] = {"value": rec["reference_s"]["median"], "unit": "s"}
    for name, m in shown.items():
        extra = ""
        if name in ("wall_s", "reference_s", "setup_s") and "q1" in rec[name]:
            s = rec[name]
            extra = f"  (q1 {s['q1']:.4g}, q3 {s['q3']:.4g}, n={s['n']})"
        print(f"{args.workload:16} {name:32} {m['value']:.6g} {m['unit']}{extra}")
    print(f"{args.workload:16} {'fail_frac':32} {rec['fail_frac']:.6g} ratio"
          f"  ({rec['failed']} of {rec['attempted']})")
    print(f"{args.workload:16} {'input_sha256':32} {rec['digest']}")
    for note in rec["notes"]:
        print(f"{args.workload:16} FAILED: {note}")
    print(json.dumps(rec))
    return rec


def main() -> int:
    ap = argparse.ArgumentParser(description="kauffpoly benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_one(argparse.Namespace(**{**vars(args), "workload": name}), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, rec in results.items() for k, m in rec["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(rec["correct"] for rec in results.values()),
                "attempted": sum(rec["attempted"] for rec in results.values()),
                "failed": sum(rec["failed"] for rec in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
