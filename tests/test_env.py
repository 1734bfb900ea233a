import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sodfeeder.corridor import CorridorSpec
from sodfeeder.demand import RequestState, forecast_demand
from sodfeeder.env import (N_ACTIONS, STATE_DIM, STATE_LAYOUT_VERSION,
                           ZonalDispatchEnv)
from sodfeeder.fleet import FleetClass, VehicleStatus
from sodfeeder.scenario import NormalizationRanges, Scenario

from oracles import oracle_category, oracle_observe
from worldgen import (available_vehicles, denormalize, normalize, restore,
                      scenarios, snapshot)


def test_layout_constants():
    assert STATE_DIM == 18
    assert N_ACTIONS == 4
    assert STATE_LAYOUT_VERSION == "sod-state-v1"


def test_normalize_round_trip():
    ranges = [(0.0, 10.0), (-5.0, 5.0), (0.0, 1.0)]
    raw = [2.5, 0.0, 0.75]
    x = normalize(raw, ranges)
    assert x == pytest.approx([0.25, 0.5, 0.75])
    back = denormalize(x, ranges)
    assert back == pytest.approx(raw)


def test_normalize_clamps():
    x = normalize([20.0, -20.0], [(0.0, 10.0), (0.0, 10.0)])
    assert x == pytest.approx([1.0, 0.0])
    with pytest.raises(ValueError):
        normalize([0.0], [(1.0, 1.0)])


def test_reset_deterministic(scenario):
    env = ZonalDispatchEnv(scenario)

    def trips():
        return [(r.t_r, r.origin, r.destination) for r in env.world.requests]

    a = env.reset(12)
    first = trips()
    b = env.reset(12)
    assert first and trips() == first
    assert np.allclose(a, b)
    assert a.shape == (18,)
    assert np.all((a >= 0.0) & (a <= 1.0))
    assert env.episode_len == 180


def test_episode_runs_to_done(scenario):
    env = ZonalDispatchEnv(scenario)
    env.reset(0)
    total = 0.0
    steps = 0
    while not env.done:
        obs, r, done, info = env.step(3)
        total += r
        steps += 1
        assert obs.shape == (18,)
        assert r <= 0.0
    assert steps == env.episode_len
    with pytest.raises(RuntimeError):
        env.step(0)


def test_overrides_keep_their_headway_whatever_the_rl_period(scenario):
    # each simulation step of a decision period runs the departures due, so
    # the reserved override leaves every 600 s, not at the next decision
    def override_steps(rl_period):
        env = ZonalDispatchEnv(dataclasses.replace(scenario,
                                                   rl_period=rl_period))
        env.reset(0)
        while not env.done:
            env.step(3)
        return [k for k, _, source, _ in env.world.dispatch_log
                if source == "override"]

    assert override_steps(3) == override_steps(1) == list(range(0, 180, 10))


def test_reward_is_negative_new_rejections(scenario):
    env = ZonalDispatchEnv(scenario)
    env.reset(0)
    total = 0.0
    while not env.done:
        _, r, _, _ = env.step(3)
        total += r
    # holding forever: reserved overrides still serve some, rest rejected
    assert total == -float(env.world.rejected_total)
    assert total < 0


def test_initial_observation_values(scenario):
    env = ZonalDispatchEnv(scenario)
    obs = env.reset(0)
    raw = denormalize(obs, env.ranges)
    assert raw[0] == 0.0          # nothing running yet
    assert raw[1] == 4.0          # all controllable vehicles available
    expect = forecast_demand(scenario.demand, scenario.horizon, 0.0, 900.0)
    assert raw[2] == pytest.approx(expect)
    # no unassigned requests, commitments or processes at t=0
    assert np.allclose(raw[3:12], 0.0)
    # never-departed categories saturate the time feature
    assert np.allclose(raw[12:15], scenario.norm.time_cap)


def test_category_forecasts_sum_to_total(scenario):
    env = ZonalDispatchEnv(scenario)
    obs = env.reset(0)
    raw = denormalize(obs, env.ranges)
    assert raw[15:18].sum() == pytest.approx(raw[2])


def test_dispatch_action_changes_state(scenario):
    env = ZonalDispatchEnv(scenario)
    env.reset(0)
    obs, _, _, _ = env.step(1)
    raw = denormalize(obs, env.ranges)
    # override took one reserved, the action took one controllable
    assert raw[0] == 2.0
    assert raw[1] == 3.0
    assert raw[13] == pytest.approx(60.0)   # zone-1 departure one step ago
    # zone-1 flexible commitment is on the books
    assert raw[4 + 3] > 0.0


@pytest.mark.parametrize("action", [2.7, True, "3", None, 4, -1])
def test_an_action_that_is_not_an_integer_in_range_is_refused(action):
    # int() would take 2.7 as 2, True as 1 and "3" as a hold; the refusal
    # comes before the reserved override due at step 10 is dispatched
    env = ZonalDispatchEnv(Scenario(n_vehicles=4, n_reserved=2))
    env.reset(0)
    for _ in range(10):
        env.step(3)
    w = env.world
    before = w.step_k, list(w.dispatch_log), list(w.rl_actions)
    with pytest.raises(ValueError, match="action must be an integer"):
        env.step(action)
    assert (w.step_k, w.dispatch_log, w.rl_actions) == before
    assert env.t == 10
    # numpy integers are integers
    env.step(np.int64(2))
    assert w.rl_actions[-1] == 2 and type(w.rl_actions[-1]) is int
    assert [(source, z) for _, _, source, z in w.dispatch_log[-2:]] == [
        ("override", 0), ("rl", 2)]


def test_snapshot_restore_markov(scenario):
    env = ZonalDispatchEnv(scenario)
    env.reset(4)
    for _ in range(20):
        env.step(0 if env.t % 4 == 0 else 3)
    snap = snapshot(env)
    plan = [1, 2, 3, 0, 3, 3, 1, 3]
    rollout_a = [env.step(a) for a in plan]
    restore(env, snap)
    rollout_b = [env.step(a) for a in plan]
    for (oa, ra, da, _), (ob, rb, db, _) in zip(rollout_a, rollout_b):
        assert np.allclose(oa, ob)
        assert ra == rb and da == db


def _zero_demand():
    sc = Scenario()
    return dataclasses.replace(sc, demand=dataclasses.replace(
        sc.demand, base_rate=0.0, end_rate=0.0))


def _observes_like_the_oracle(env, obs):
    assert obs.tobytes() == oracle_observe(env).tobytes()


@pytest.mark.parametrize("make", [
    Scenario,
    lambda: Scenario(n_vehicles=12, n_reserved=4),
    lambda: Scenario(n_vehicles=4, n_reserved=4),
    _zero_demand,
    # small caps, so that the upper clamp is exercised
    lambda: Scenario(norm=NormalizationRanges(request_cap=2.0, time_cap=120.0,
                                              forecast_cap=5.0)),
], ids=["default", "12-vehicles-4-reserved", "all-reserved", "zero-demand",
        "small-caps"])
def test_observe_equals_the_oracle_over_an_episode(make):
    env = ZonalDispatchEnv(make())
    rng = np.random.default_rng(3)
    _observes_like_the_oracle(env, env.reset(5))
    while not env.done:
        obs, _, _, _ = env.step(int(rng.integers(N_ACTIONS)))
        _observes_like_the_oracle(env, obs)


@given(sc=scenarios(min_demand=0.0), seed=st.integers(0, 10**4))
@example(sc=dataclasses.replace(_zero_demand(), horizon=3600.0, warmup=0.0),
         seed=0)
@example(sc=Scenario(n_vehicles=4, n_reserved=4, horizon=3600.0, warmup=0.0),
         seed=1)
@example(sc=Scenario(corridor=CorridorSpec(side_depth=0.0), horizon=3600.0,
                     warmup=0.0), seed=2)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_observe_equals_the_oracle_on_random_scenarios(sc, seed):
    # random actions through a whole episode; at its end, a departure stamp
    # in the future and a pile of open processes push features below 0 and
    # above 1, which the clamp must cut as np.clip does
    env = ZonalDispatchEnv(sc)
    rng = np.random.default_rng(seed)
    _observes_like_the_oracle(env, env.reset(seed))
    while not env.done:
        obs, _, _, _ = env.step(int(rng.integers(N_ACTIONS)))
        _observes_like_the_oracle(env, obs)
    w = env.world
    w.last_departure = {c: w.now + 60.0 * c for c in (0, 1, 2)}
    w.open_processes = [10**6, 0, 10**6]
    obs = env.observe()
    _observes_like_the_oracle(env, obs)
    assert obs[12:15].tolist() == [0.0, 0.0, 0.0]
    assert obs[[5, 8, 11]].tolist() == [1.0, 0.0, 1.0]


def test_observe_equals_the_oracle_after_restore(scenario):
    env = ZonalDispatchEnv(scenario)
    rng = np.random.default_rng(4)
    env.reset(6)
    for _ in range(60):
        env.step(int(rng.integers(N_ACTIONS)))
    snap = snapshot(env)
    for _ in range(30):
        env.step(3)
    restore(env, snap)
    _observes_like_the_oracle(env, env.observe())
    while not env.done:
        obs, _, _, _ = env.step(int(rng.integers(N_ACTIONS)))
        _observes_like_the_oracle(env, obs)


def _scanned_processes(world):
    """Open board/alight processes per category, counted over every request
    as ``observe`` once did."""
    counts = [0, 0, 0]
    for r in world.requests:
        if r.state is RequestState.ASSIGNED:
            counts[oracle_category(world, r)] += 2
        elif r.state is RequestState.RIDING:
            counts[oracle_category(world, r)] += 1
    return counts


def test_open_process_counts_match_a_scan_over_an_episode(scenario):
    env = ZonalDispatchEnv(scenario)
    env.reset(2)
    rng = np.random.default_rng(0)
    seen = set()
    done = False
    while not done:
        _, _, done, _ = env.step(int(rng.integers(N_ACTIONS)))
        assert env.world.open_processes == _scanned_processes(env.world)
        seen.update(r.state for r in env.world.requests)
        if env.t == 40:
            snap = snapshot(env)
            want = list(env.world.open_processes)
    assert {RequestState.ASSIGNED, RequestState.RIDING,
            RequestState.SERVED} <= seen
    restore(env, snap)
    assert env.world.open_processes == want == _scanned_processes(env.world)
    env.step(0)
    assert env.world.open_processes == _scanned_processes(env.world)
    # reassigning the requests recounts them from their states
    w = env.world
    w.open_processes = None
    w.requests = w.requests
    assert w.open_processes == _scanned_processes(w)


def test_scenario_yaml_round_trip(tmp_path, scenario):
    path = tmp_path / "scenario.yaml"
    scenario.to_yaml(path)
    back = Scenario.from_yaml(path)
    assert back.to_dict() == scenario.to_dict()
    env = ZonalDispatchEnv(back)
    a = env.reset(1)
    b = ZonalDispatchEnv(scenario).reset(1)
    assert np.allclose(a, b)


def test_fleet_ranges_follow_the_fleet():
    sc = Scenario(n_vehicles=12, n_reserved=4)
    env = ZonalDispatchEnv(sc)
    obs = env.reset(0)
    while True:
        w = env.world
        running = sum(v.status != VehicleStatus.AT_TERMINUS
                      for v in w.vehicles)
        available = sum(v.fleet_class == FleetClass.CONTROLLABLE
                        for v in available_vehicles(w))
        raw = denormalize(obs, env.ranges)
        assert raw[0:2] == pytest.approx([running, available])
        if running > 8:
            break
        obs, _, _, _ = env.step(0)
    assert env.ranges[4] == (0.0, 12 * sc.limits.flex_window)


def test_all_reserved_fleet_observes():
    env = ZonalDispatchEnv(Scenario(n_vehicles=4, n_reserved=4))
    env.reset(0)
    for _ in range(5):
        obs, _, _, _ = env.step(1)     # no controllable vehicle: a no-op
        assert np.all((obs >= 0.0) & (obs <= 1.0))
    raw = denormalize(obs, env.ranges)
    assert raw[0] == pytest.approx(1.0)   # the t=0 reserved override
    assert raw[1] == 0.0


def test_unknown_scenario_field_rejected():
    with pytest.raises(ValueError):
        Scenario.from_dict({"no_such_field": 1})
    with pytest.raises(ValueError, match="'foo'.*'demand'"):
        Scenario.from_dict({"demand": {"foo": 1}})
    # a field that older configs carried
    with pytest.raises(ValueError, match="'capacity'.*'limits'"):
        Scenario.from_dict({"limits": {"capacity": 20}})
    with pytest.raises(ValueError, match="multiple of t_step"):
        Scenario.from_dict({"horizon": 10830.0})
    with pytest.raises(ValueError, match="RL periods"):
        Scenario.from_dict({"rl_period": 7})
    with pytest.raises(ValueError, match="n_vehicles"):
        Scenario.from_dict({"n_vehicles": 0, "n_reserved": 0})


@pytest.mark.parametrize("cap", ["request_cap", "time_cap", "forecast_cap"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
def test_nonpositive_normalization_cap_fails_at_validate(cap, value):
    # checked when the ranges are built, so no scenario can hold them
    with pytest.raises(ValueError, match="norm.%s must be positive" % cap):
        NormalizationRanges(**{cap: value})
    with pytest.raises(ValueError, match="norm.%s" % cap):
        Scenario.from_dict({"norm": {cap: value}})
