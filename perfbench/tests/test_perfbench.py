"""Tests of the benchmark itself: counting, span arithmetic, checks, wiring.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import workloads
from tracing import Tracer, read_spans
from worker import cycle_units, reference_work
from workloads import CountingCache, Ladder, KauffmanRandom, PassResult, kp


def small_ladder() -> Ladder:
    w = Ladder(0)
    w.inputs = [(n, pd) for n, pd in w.inputs if n in ("T(2,5)", "T(2,7)", "f8#f8")]
    return w


def test_counting_cache_counts_lookups_hits_and_stores():
    cache = CountingCache()
    assert cache.get("a") is None
    cache["a"] = 1
    assert cache.get("a") == 1
    assert (cache.lookups, cache.hits, cache.stores) == (2, 1, 1)


def test_counting_cache_stores_equal_engine_nodes():
    d = kp.parse_pd(workloads.torus_pd(5))
    cache = CountingCache()
    kp.coeff_table(d, cache=cache)
    assert cache.stores == 120  # recorded in data/ladder_tables.json
    assert cache.lookups == cache.hits + cache.stores
    # A second call on the same map is one hit and no new node.
    kp.coeff_table(d, cache=cache)
    assert cache.stores == 120 and cache.hits == cache.lookups - 120


def test_self_time_of_nested_spans_adds_up():
    tracer = Tracer()
    leaf = tracer.wrap("t.leaf", lambda: time.sleep(0.002))

    def middle():
        leaf()
        leaf()
        time.sleep(0.001)

    middle = tracer.wrap("t.middle", middle)
    root = tracer.wrap("t.root", lambda: (middle(), leaf()))
    root()
    summary = tracer.summary()
    assert {name: calls for name, (calls, _) in summary.items()} == {
        "t.root": 1, "t.middle": 1, "t.leaf": 3
    }
    total = tracer.end[0] - tracer.start[0]
    assert sum(s for _, s in summary.values()) == pytest.approx(total, abs=1e-9)
    assert summary["t.leaf"][1] >= 0.006
    assert 0.001 <= summary["t.middle"][1] < summary["t.leaf"][1]


def test_generator_spans_cover_each_resumption():
    tracer = Tracer()

    def gen():
        yield 1
        time.sleep(0.002)
        yield 2

    assert list(tracer.wrap("t.gen", gen)()) == [1, 2]
    calls, self_s = tracer.summary()["t.gen"]
    assert calls == 3 and self_s >= 0.002


def test_units_add_up_to_a_pass():
    w = small_ladder()
    units = [w.run_unit(i) for i in range(w.n_units())]
    whole = w.run_pass()
    assert [u.attempted for u in units] == [1, 1, 1]
    assert sum(u.nodes for u in units) == whole.nodes == 120 + 621 + 269
    total = PassResult()
    for u in units:
        total.merge(u)
    assert (total.attempted, total.failed, total.nodes) == (3, 0, whole.nodes)


def test_merge_keeps_exact_counts_and_few_messages():
    total = PassResult()
    for k in range(workloads.MAX_FAILURE_MESSAGES + 3):
        one = PassResult(attempted=1)
        one.fail(f"f{k}")
        total.merge(one)
    assert total.failed == total.attempted == workloads.MAX_FAILURE_MESSAGES + 3
    assert total.failures == [f"f{k}" for k in range(workloads.MAX_FAILURE_MESSAGES)]


class FakeUnits:
    """Three units that take no time and expand 10, 20 and 30 nodes."""

    def n_units(self):
        return 3

    def run_unit(self, i):
        return PassResult(attempted=1, coeff_stores=10 * (i + 1))


def test_cycle_units_wraps_round_and_runs_at_least_the_minimum():
    samples, totals, refs = [], PassResult(), []
    nxt = cycle_units(FakeUnits(), 2, -1.0, samples, totals, refs, min_units=4)
    assert [s[0] for s in samples] == [2, 0, 1, 2] and nxt == 0
    assert [s[2] for s in samples] == [30, 10, 20, 30]
    assert totals.attempted == 4
    assert len(refs) == 1  # the reference runs first, then once a second
    # Out of time, no minimum: nothing runs and the next unit is unchanged.
    assert cycle_units(FakeUnits(), 1, -1.0, samples, totals, refs) == 1 and len(samples) == 4


def test_reference_work_times_itself_and_restores_the_collector():
    assert gc.isenabled()
    assert reference_work() > 0 and gc.isenabled()
    gc.disable()
    try:
        assert reference_work() > 0 and not gc.isenabled()
    finally:
        gc.enable()


def test_pass_time_is_the_sum_of_unit_medians():
    wall = run.unit_sums({0: [1.0, 3.0, 2.0], 1: [5.0]})
    assert wall["median"] == 7.0 and wall["n"] == 4 and wall["passes"] == 2.0
    assert wall["q1"] <= wall["median"] <= wall["q3"]


def test_corrupted_reference_counts_as_failure():
    w = small_ladder()
    assert w.run_pass().failed == 0
    w.expected["T(2,7)"] = w.expected["T(2,5)"]
    res = w.run_pass()
    assert (res.attempted, res.failed) == (3, 1)
    assert "T(2,7)" in res.failures[0]


def test_wrong_oracle_counts_as_failure(monkeypatch):
    w = KauffmanRandom(7)
    w.inputs = w.inputs[:2]
    assert w.run_pass().failed == 0
    monkeypatch.setattr(kp, "oracle_L", lambda d, **kw: kp.BivariatePoly.one())
    assert w.run_pass().failed == 2


def test_budget_overrun_counts_as_failure():
    w = small_ladder()
    w.budget = 200  # T(2,5) needs 120 nodes, T(2,7) 621, f8#f8 269
    res = w.run_pass()
    assert res.failed == 2 and "BudgetExceededError" in res.failures[0]


def test_input_drift_is_refused(monkeypatch):
    refs = workloads.load_json("ladder_tables.json")
    refs["digest"] = "0" * 64
    monkeypatch.setattr(workloads, "load_json", lambda name: refs)
    with pytest.raises(workloads.InputDriftError):
        Ladder(0)


def test_same_seed_same_inputs_other_seed_other_inputs():
    a, b, c = KauffmanRandom(3), KauffmanRandom(3), KauffmanRandom(4)
    assert a.digest == b.digest != c.digest
    assert len(a.inputs) == 4 * workloads.STRATA


def test_traced_pass_passes_the_same_checks(tmp_path):
    w = small_ladder()
    plain = w.run_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced = w.run_pass()
    finally:
        tracer.uninstall()
    assert traced.failed == plain.failed == 0
    assert traced.nodes == plain.nodes
    summary = tracer.summary()
    for name in ("diagram.splice", "diagram.components", "diagram.validate",
                 "warping.first_encounter", "coeffs.coeff_table", "laurent.add"):
        assert summary[name][0] > 0, name
    # Every node reads the canonical base once; components run once per diagram.
    assert summary["warping.canonical_base"][0] == plain.nodes
    # Uninstalling restores the originals.
    assert "traced" not in kp.coeff_table.__code__.co_name
    assert kp.Diagram.__dict__["components"].func.__name__ == "components"
    path = tmp_path / "spans.gz"
    tracer.write(path)
    header, arrays = read_spans(path)
    assert header["spans"] == len(tracer) and list(arrays["end"]) == list(tracer.end)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(workloads.DATA.parent, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith('{"correct"') for line in proc.stdout.splitlines())
    assert not (bench / "out").exists() or not list((bench / "out").iterdir())


def test_result_line_has_exactly_the_contract_keys():
    proc = subprocess.run(
        [sys.executable, str(workloads.DATA.parent / "run.py"), "--workload", "verify_catalog",
         "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["verification.checks"]["value"] > 0
    assert result["metrics"]["moves.r1_add.calls"]["value"] > 0
