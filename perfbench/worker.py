"""One fresh benchmark process: set up a workload, run passes, print JSON.

``run.py`` starts this script; it is not meant to be run by hand.

    worker.py setup --workload W --seed N
        set up only: import kauffpoly, build and parse the inputs, warm up.
    worker.py measure --workload W --seed N --seconds S --start K [--full-pass]
        set up; with --full-pass run one pass and read the peak RSS; then
        run units in turn from unit K (wrapping round) while the next one
        is expected to end within S seconds of the first.  At least one
        unit runs.  Each unit's time, node count and checks are reported,
        and the times of reference_work() run between units.
    worker.py trace --workload W --seed N --seconds S
        set up and run untraced passes for about S/2 seconds; then install
        the spans, build the inputs again and run traced passes for about
        S/2 seconds.  The spans are written to ``out/spans-W.gz``.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from before kauffpoly is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"
#: A measure worker times reference_work() once before its first unit and
#: then after any unit that ends at least this long after the last one.
REFERENCE_EVERY_S = 1.0


def reference_work() -> float:
    """Seconds taken by a fixed piece of pure-Python work that does not
    touch kauffpoly: fill a dict of 60 000 tuple keys (about 15 MB) and
    read it back in shuffled order, with the garbage collector off.

    The shared host's speed swings by up to half for tens of seconds at a
    time.  This work slows with those swings much as the program does (a
    small loop that stays in cache follows them less well), and it is the
    same code on every commit, so a unit's time divided by the time of
    the reference work next to it cancels much of the swing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        rng = random.Random(1)
        table = {}
        for i in range(60_000):
            table[(rng.randrange(1 << 20), i & 7, (i * 31) % 1009)] = (i, str(i))
        keys = list(table)
        rng.shuffle(keys)
        acc = 0
        for k in keys:
            acc += table[k][0] + k[1]
        del table, keys
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def run_passes(workload, seconds: float) -> list:
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - t_start
        if elapsed + passes[-1].wall_s > seconds:
            return passes


def cycle_units(
    workload, i: int, seconds: float, samples: list, totals, refs: list,
    min_units: int = 0, references: bool = True,
) -> int:
    """Run units in turn from unit ``i`` (wrapping round): at least
    ``min_units``, then more while the next is expected to end within
    ``seconds`` of the start.  Appends [unit, wall_s, nodes, k] per unit
    run to ``samples``, where ``refs[k]`` is the last reference run before
    the unit (k = -1: none yet), and adds the counters to ``totals``.
    With ``references``, runs reference_work() first if ``refs`` is empty
    and then as REFERENCE_EVERY_S says, appending its times to ``refs``.
    Returns the next unit."""
    n = workload.n_units()
    last = {unit: wall for unit, wall, _, _ in samples}
    t_start = time.perf_counter()
    t_ref = t_start - REFERENCE_EVERY_S if not refs else t_start
    ran = 0
    while ran < min_units or time.perf_counter() - t_start + last.get(i, 0.0) <= seconds:
        if references and time.perf_counter() - t_ref >= REFERENCE_EVERY_S:
            refs.append(reference_work())
            t_ref = time.perf_counter()
        r = workload.run_unit(i)
        samples.append([i, r.wall_s, r.nodes, len(refs) - 1])
        last[i] = r.wall_s
        totals.merge(r)
        ran += 1
        i = (i + 1) % n
    return i


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--start", type=int, default=0, help="measure mode only")
    ap.add_argument("--full-pass", action="store_true", help="measure mode only")
    args = ap.parse_args()

    from workloads import WORKLOADS, PassResult

    cls = WORKLOADS[args.workload]
    workload = cls(args.seed)
    workload.warm_up()
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s, "digest": workload.digest, "inputs": len(workload.inputs)}

    if args.mode == "setup":
        sys.stdout.write(json.dumps(out) + "\n")
        return 0
    if args.mode == "measure":
        t_units = time.perf_counter()
        samples, totals, refs, i = [], PassResult(), [], args.start
        if args.full_pass:  # no reference work before the peak RSS is read
            i = cycle_units(workload, 0, 0.0, samples, totals, refs, workload.n_units(), False)
            out["peak_rss_mb"] = peak_rss_mb()
            refs.append(reference_work())  # the pass's units are read against this one
        left = args.seconds - (time.perf_counter() - t_units)
        out["next"] = cycle_units(workload, i, left, samples, totals, refs, 0 if args.full_pass else 1)
        out["samples"] = samples
        out["reference_s"] = refs
        out["totals"] = asdict(totals)
        sys.stdout.write(json.dumps(out) + "\n")
        return 0

    from tracing import Tracer

    passes = run_passes(workload, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced_setup = cls(args.seed)  # charges the input walks to their layers
        setup_spans = len(tracer)
        traced = run_passes(traced_setup, args.seconds / 2)
    finally:
        tracer.uninstall()
    if traced_setup.digest != workload.digest:
        raise RuntimeError("traced set-up built different inputs")
    out["setup_layers"] = tracer.summary(0, setup_spans)
    out["pass_layers"] = tracer.summary(setup_spans)
    out["spans"] = len(tracer)
    out["traced"] = [asdict(p) for p in traced]
    spans = OUT / f"spans-{args.workload}.gz"
    OUT.mkdir(exist_ok=True)
    tracer.write(spans)
    out["spans_file"] = str(spans.relative_to(OUT.parent.parent))

    out["passes"] = [asdict(p) for p in passes]
    out["peak_rss_mb"] = peak_rss_mb()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
