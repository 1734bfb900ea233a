"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench

They check that the metric names the benchmark emits are the ones
BENCHMARK.json declares, that the reference check and the audit catch a
perturbed result, that a non-default seed passes the audit on its own, and
that traced counts repeat exactly.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from sodfeeder.demand import RequestState  # noqa: E402

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
EVAL = harness.WORKLOADS["eval"]
PEAK = harness.WORKLOADS["peak"]
TRAIN = harness.WORKLOADS["train-offpeak"]


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def emitted(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


def run_ops(wl, seed, reference, n_ops):
    ledger = harness.Ledger(wl, seed, reference)
    ctx = wl.setup()
    for k in range(n_ops):
        ledger.add(ctx, k, lambda: harness.timed_call(wl.run, ctx, seed, k))
    return ledger


@pytest.fixture(scope="module")
def reference():
    return harness.load_reference()


@pytest.fixture(scope="module")
def traced_eval(reference):
    return harness.run_traced(EVAL, 0, reference, n_ops=EVAL.group)


def test_declared_workloads_are_the_benchmark_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)


def test_untraced_run_emits_exactly_the_end_to_end_metrics(reference):
    metrics, ledger, _ = harness.run_untraced(EVAL, 0, 1e-9, reference,
                                              min_ops=EVAL.group)
    assert emitted(metrics) == declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    assert (ledger.attempted, ledger.failed) == (EVAL.group, 0)


def test_traced_run_emits_exactly_the_per_layer_metrics(traced_eval):
    metrics, ledger, _ = traced_eval
    assert emitted(metrics) == declared("per_layer")
    assert ledger.failed == 0


def test_tracing_puts_the_original_functions_back(traced_eval):
    from sodfeeder import corridor, env, fleet, matching
    assert matching.retime is fleet.retime
    assert env.match_step is matching.match_step
    assert corridor.Network.travel_time.__name__ == "travel_time"


def test_traced_counts_repeat_exactly(traced_eval, reference):
    again, _, _ = harness.run_traced(EVAL, 0, reference, n_ops=EVAL.group)
    counts = {k: v for k, (v, unit) in traced_eval[0].items()
              if unit == "count"}
    assert counts["matching.candidates_built"] > 0
    assert counts == {k: v for k, (v, unit) in again.items()
                      if unit == "count"}


def test_reference_check_flags_a_perturbed_episode(reference):
    ctx = EVAL.setup()
    m, world = EVAL.run(ctx, 0, 1)
    rec, problems = EVAL.record(ctx, 1, (m, world))
    assert problems == []
    assert harness.reference_mismatch("eval", 1, rec, reference) is None
    nudged = dataclasses.replace(m, total_wait=m.total_wait + 1e-9)
    rec, _ = EVAL.record(ctx, 1, (nudged, world))
    assert harness.reference_mismatch("eval", 1, rec, reference)


def test_a_perturbed_reference_makes_the_op_fail(reference):
    broken = json.loads(json.dumps(reference))
    broken["eval"][0]["digest"] = "0" * 16
    assert run_ops(EVAL, 0, broken, 1).failed == 1
    assert run_ops(EVAL, 0, reference, 1).failed == 0


def test_update_reference_check_is_exact_on_reward_and_close_on_params(
        reference):
    ledger = run_ops(TRAIN, 0, reference, 1)
    assert (ledger.attempted, ledger.failed) == (1, 0)
    want = reference["train-offpeak"][0]
    close = dict(want, param_abs_sum=want["param_abs_sum"] * (1 + 1e-12))
    assert harness.reference_mismatch("train-offpeak", 0, close,
                                      reference) is None
    drifted = dict(want, param_abs_sum=want["param_abs_sum"] * (1 + 1e-8))
    assert harness.reference_mismatch("train-offpeak", 0, drifted, reference)
    other = dict(want, mean_episode_reward=want["mean_episode_reward"] - 1)
    assert harness.reference_mismatch("train-offpeak", 0, other, reference)


def test_nondefault_seed_passes_the_audit_without_a_reference():
    ledger = run_ops(PEAK, 3, {}, 1)
    assert not ledger.check_reference
    assert (ledger.attempted, ledger.failed) == (1, 0)
    ledger = run_ops(EVAL, 7, {}, EVAL.group)
    assert (ledger.attempted, ledger.failed) == (EVAL.group, 0)


def test_audit_flags_a_late_pickup():
    ctx = EVAL.setup()
    _, world = EVAL.run(ctx, 0, 1)
    assert harness.audit_world(world) == []
    r = next(r for r in world.requests if r.state is RequestState.SERVED)
    r.pickup_time = r.t_r + world.params.limits.max_wait + 1.0
    assert any("waited" in p for p in harness.audit_world(world))
