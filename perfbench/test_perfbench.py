"""Tests for the benchmark's own arithmetic and checks."""

from __future__ import annotations

import math
from dataclasses import asdict

import pytest

import calibrate
import inputs
import run
import spans
import workloads
from cfsig import replica


def test_self_time_subtracts_nested_children():
    # 0 [0, 100) has children 1 [10, 40) and 2 [50, 70); 1 has child 3 [20, 30).
    parents = [spans.NO_PARENT, 0, 0, 1]
    starts = [0, 10, 50, 20]
    ends = [100, 40, 70, 30]
    assert spans.self_times(parents, starts, ends) == [50, 20, 20, 10]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # Children [10, 40) and [30, 60) overlap; [90, 120) runs past the parent's end.
    parents = [spans.NO_PARENT, 0, 0, 0]
    starts = [0, 10, 30, 90]
    ends = [100, 40, 60, 120]
    assert spans.self_times(parents, starts, ends)[0] == 100 - 50 - 10


def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))  # order must not matter
    assert run.percentile(samples, 0.5) == 50
    assert run.percentile(samples, 0.9) == 90


def test_percentile_needs_ten_samples_beyond_it():
    assert run.percentile(list(range(run.MIN_SAMPLES)), 0.9) == 89
    with pytest.raises(ValueError, match="10 samples beyond"):
        run.percentile(list(range(run.MIN_SAMPLES - 1)), 0.9)
    with pytest.raises(ValueError):
        run.percentile([1.0] * 200, 1.0)


def test_wrong_expected_verdict_counts_as_failure():
    workload = workloads.make_workload("round-mesh", seed=0)
    label = sorted(workload.graphs)[0]
    workload.schedule = [(label, None, "CLEAN"), (label, None, "INTRUSION node=1")]
    workload.cycle = 2
    tally = workloads.Tally()
    workloads.run_cycles(workload, math.inf, tally, max_cycles=1, calibrator=calibrate.Calibrator())
    assert (tally.attempted, tally.failed, len(tally.latencies_ns), len(tally.call_ns)) == (2, 1, 1, 1)
    assert "expected 'INTRUSION node=1'" in tally.problems[0]
    run_tally = run.merged([{"untraced": asdict(tally)}], "untraced")
    assert run.ratio(run_tally["failed"], run_tally["attempted"]) == 0.5


def test_scaled_time_is_in_nominal_reference_calls():
    # An operation as long as 15 reference calls takes 15 nominal calls.
    assert calibrate.scaled(30e6, 2e6) == 15 * calibrate.NOMINAL_NS


def test_calibrator_fills_its_window_then_runs_only_when_owed():
    calibrator = calibrate.Calibrator()
    calls = 0
    task = calibrator.task

    def counted():
        nonlocal calls
        calls += 1
        return task()

    calibrator.task = counted
    first = calibrator.call_ns(0)
    assert calls >= calibrate.WINDOW and len(calibrator.recent) == calibrate.WINDOW
    assert first == sorted(calibrator.recent)[(calibrate.WINDOW - 1) // 2]
    calls = 0
    calibrator.call_ns(0)  # nothing owed: the window answers
    assert calls == 0
    calibrator.call_ns(4 * first / calibrate.SHARE)  # owes about four calls
    assert calls >= 1


def test_round_schedule_tampers_one_round_in_four():
    labels = [f"g{i}" for i in range(16)]
    candidates = {label: ["B2", "B3"] for label in labels}
    schedule = inputs.round_schedule(labels, candidates, 9, seed=3, cycles=2, tamper_every=4)
    assert schedule == inputs.round_schedule(labels, candidates, 9, seed=3, cycles=2, tamper_every=4)
    assert sorted(label for label, _, _ in schedule[:16]) == sorted(labels)
    tampered = [(t, expected) for _, t, expected in schedule if t is not None]
    assert len(tampered) == 8
    assert all(expected == f"INTRUSION node={t[0]}" for t, expected in tampered)


def test_traced_cycle_records_nested_spans_and_restores_originals():
    original = replica.parse_dot
    workload = workloads.make_workload("sign-deep", seed=0)
    workload.items = [i for i in workload.items if i["v"] == 100][:1]
    workload.cycle = 1
    workload.max_cycles = 2  # one untraced cycle, then one traced cycle
    tracer = spans.Tracer(max_spans=1000)
    plain, traced = workloads.run_alternating(workload, math.inf, tracer)
    assert replica.parse_dot is original
    assert (plain.failed, traced.failed, len(traced.latencies_ns)) == (0, 0, 1)
    totals = spans.layer_totals(tracer)
    assert totals["arborescence.find_arborescence"][0] == 2
    peel = tracer.names.index("arborescence.peel_edge_disjoint")
    for _, parent, _, name, _, _ in tracer.records():
        if name == "arborescence.find_arborescence":
            assert tracer.name_ids[parent] == peel
