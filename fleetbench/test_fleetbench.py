"""Tests of the fleet benchmark's pure parts, plus a seconds-scale smoke.

Run with ``python -m pytest fleetbench`` from the repository root; the
smoke tests are marked ``slow`` (they boot ``repro serve``).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import ledger  # noqa: E402
import run  # noqa: E402
from ledger import (BANDS, DELTA_EVERY, METRIC_NAME,  # noqa: E402
                    accounting_violations, band_violations, by_label,
                    check_metrics, closed_after, closure_op, grew,
                    is_correct, is_delta_position, median, metric,
                    parse_scrape, percentile, ratio, shard_skew,
                    stage_sum_ms, total)


# ----------------------------------------------------------------------
# Percentiles and ratios
# ----------------------------------------------------------------------
def test_percentile_interpolates_between_closest_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert median(values) == 2.5
    assert percentile(values, 95) == pytest.approx(3.85)
    assert percentile([7.0], 95) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_ratio_and_skew():
    assert ratio(3, 4) == 0.75
    assert ratio(5, 0) == 0.0
    assert shard_skew([50, 50]) == 1.0
    assert shard_skew([75, 25]) == 1.5
    assert shard_skew([10, 0]) == 2.0
    assert shard_skew([]) == 0.0


# ----------------------------------------------------------------------
# Scrapes
# ----------------------------------------------------------------------
BEFORE = """\
# TYPE ikrq_shard_answer_hits gauge
ikrq_shard_answer_hits{shard="0"} 10
ikrq_shard_answer_hits{shard="1"} 5
ikrq_shard_answer_hits{generation="1",shard="0",venue="default"} 10
ikrq_stage_latency_seconds_sum{stage="engine",venue="default"} 0.5
ikrq_stage_latency_seconds_sum{stage="engine",venue="b\\"x"} 0.25
ikrq_request_latency_seconds_count 100
"""
AFTER = """\
ikrq_shard_answer_hits{shard="0"} 30
ikrq_shard_answer_hits{shard="1"} 15
ikrq_shard_answer_hits{generation="1",shard="0",venue="default"} 30
ikrq_stage_latency_seconds_sum{stage="engine",venue="default"} 1.5
ikrq_stage_latency_seconds_sum{stage="engine",venue="b\\"x"} 0.25
ikrq_request_latency_seconds_count 1.5e2
"""


def test_scrape_deltas_filter_labels():
    before, after = parse_scrape(BEFORE), parse_scrape(AFTER)
    # venue=None keeps only the shard-level aggregate rows.
    assert grew(before, after, "ikrq_shard_answer_hits", venue=None) == 30
    assert grew(before, after, "ikrq_shard_answer_hits") == 50
    assert total(after, "ikrq_shard_answer_hits", shard="1",
                 venue=None) == 15
    assert by_label(after, "ikrq_shard_answer_hits", "shard",
                    venue=None) == {"0": 30.0, "1": 15.0}
    assert stage_sum_ms(before, after, "engine") == pytest.approx(1000.0)
    assert grew(before, after, "ikrq_request_latency_seconds_count") == 50
    assert total(after, "ikrq_stage_latency_seconds_sum",
                 venue='b\\"x') == 0.25


def test_scrape_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scrape("not a metric line at all {")


# ----------------------------------------------------------------------
# Position-based delta placement
# ----------------------------------------------------------------------
def test_delta_positions_are_every_fiftieth():
    positions = [i for i in range(500) if is_delta_position(i)]
    assert positions == list(range(DELTA_EVERY - 1, 500, DELTA_EVERY))
    assert not is_delta_position(0)


def test_closure_sets_are_all_distinct_and_small():
    doors = list(range(100, 160))
    seen = {closed_after(0, doors)}
    for steps in range(1, 100):
        closed = closed_after(steps, doors)
        assert 1 <= len(closed) <= 2
        assert closed not in seen, steps
        seen.add(closed)
    assert closure_op(0, doors) == {"op": "close_door", "did": 100}
    assert closure_op(2, doors) == {"op": "open_door", "did": 100}


def test_zipf_ops_place_deltas_by_position_and_repeat_per_seed():
    import traffic
    a = traffic.zipf_ops(64, 1000, seed=5, churn=True)
    assert a == traffic.zipf_ops(64, 1000, seed=5, churn=True)
    assert a != traffic.zipf_ops(64, 1000, seed=6, churn=True)
    deltas = [i for i, op in enumerate(a) if op.delta is not None]
    assert deltas == [i for i in range(1000) if is_delta_position(i)]
    assert [a[i].delta for i in deltas] == list(range(len(deltas)))
    hot = traffic.zipf_ops(64, 1000, seed=5, churn=False)
    assert all(op.search is not None for op in hot)
    # Rank 0 is the most popular query.
    counts = [sum(1 for op in hot if op.search == r) for r in range(64)]
    assert counts[0] == max(counts)


# ----------------------------------------------------------------------
# Validity bands
# ----------------------------------------------------------------------
GOOD = {
    "kiosk-hot": {"answer_hit_frac": 1.0, "distinct_queries": 64,
                  "deltas_applied": 0, "shard_skew": 1.5,
                  "gen_lag_p50_ms": 0.02},
    "explore-cold": {"answer_hit_frac": 0.0, "repeated_queries": 0,
                     "deltas_applied": 0, "shard_skew": 1.02,
                     "gen_lag_p50_ms": 0.02},
    "closure-churn": {"answer_hit_frac": 0.63, "distinct_queries": 64,
                      "deltas_missing": 0, "shard_skew": 1.5,
                      "gen_lag_p50_ms": 0.02},
}


@pytest.mark.parametrize("workload", sorted(BANDS))
def test_bands_accept_a_typical_run(workload):
    assert band_violations(workload, GOOD[workload]) == []


@pytest.mark.parametrize("workload,guard,value", [
    ("kiosk-hot", "answer_hit_frac", 0.85),
    ("kiosk-hot", "distinct_queries", 65),
    ("explore-cold", "answer_hit_frac", 0.01),
    ("explore-cold", "repeated_queries", 1),
    ("closure-churn", "deltas_missing", 1),
    ("closure-churn", "answer_hit_frac", 0.99),
    ("explore-cold", "gen_lag_p50_ms", 5.0),
])
def test_bands_reject_a_run_outside_them(workload, guard, value):
    guards = dict(GOOD[workload], **{guard: value})
    (reason,) = band_violations(workload, guards)
    assert reason.startswith(guard)


def test_bands_reject_an_unrecorded_guard():
    guards = dict(GOOD["kiosk-hot"])
    del guards["shard_skew"]
    assert band_violations("kiosk-hot", guards) == ["shard_skew: not recorded"]


def test_layer_accounting_must_be_within_ten_percent():
    for frac in (0.91, 0.97, 1.0, 1.09):
        assert accounting_violations(frac) == [], frac
    for frac in (0.89, 1.11, 0.0):
        (reason,) = accounting_violations(frac)
        assert reason.startswith("accounted_frac="), reason


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def test_any_failed_operation_makes_a_run_incorrect():
    assert is_correct(32, [], [])
    # Nothing checked is not a pass.
    assert not is_correct(0, [], [])
    assert not is_correct(32, ["KoE answer differs"], [])
    # A shed or an error status fails the run like a wrong answer, even
    # when every answer that came back ok matched.
    assert not is_correct(32, [], ["search 7 not ok: shed"])
    assert not is_correct(32, [], ["delta 49 not ok: 503"])


# ----------------------------------------------------------------------
# Names and units
# ----------------------------------------------------------------------
def test_every_metric_name_matches_the_regex():
    for name, _ in run.END_TO_END + run.PER_LAYER:
        assert METRIC_NAME.fullmatch(name), name
    for bad in ("a b", "_lead", "x" * 65, "p95%", ""):
        assert not METRIC_NAME.fullmatch(bad), bad


def test_check_metrics_enforces_units_and_values():
    spec = (("qps", "1/s"), ("p50_ms", "ms"))
    good = {"qps": metric(10, "1/s"), "p50_ms": metric(1.5, "ms")}
    check_metrics(good, spec)
    for broken in ({"qps": metric(10, "1/s")},
                   dict(good, p50_ms=metric(1.5, "s")),
                   dict(good, extra=metric(1, "ms")),
                   dict(good, qps={"value": math.nan, "unit": "1/s"}),
                   dict(good, qps={"value": 3, "unit": "1/s"})):
        with pytest.raises(ValueError):
            check_metrics(broken, spec)


def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    # kiosk-hot stays runnable but is not benchmarked: its figures
    # follow the host's speed by more than the bound allows.
    assert [w["name"] for w in doc["workloads"]] == \
        [w for w in run.WORKLOADS if w != "kiosk-hot"]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(run.PER_LAYER)
    assert set(ledger.BANDS) == set(run.WORKLOADS)


# ----------------------------------------------------------------------
# Seconds-scale smoke
# ----------------------------------------------------------------------
def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "fleetbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.slow
@pytest.mark.parametrize("workload,trace", [
    ("kiosk-hot", "0"), ("explore-cold", "0"), ("closure-churn", "1")])
def test_smoke_run_prints_a_checked_result(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    check_metrics(result["metrics"],
                  run.PER_LAYER if trace == "1" else run.END_TO_END)
    if trace == "1":
        assert abs(result["metrics"]["accounted_frac"]["value"] - 1) <= 0.1


def test_without_the_repository_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "fleetbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "fleetbench/run.py", "--workload", "kiosk-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
