import pytest

from sodfeeder.demand import RequestState
from sodfeeder.dispatch import DispatchConfig, DispatchController, PolicyKind
from sodfeeder.fleet import FleetClass, StopKind, VehicleStatus
from sodfeeder.scenario import Scenario, build_world

from oracles import oracle_window
from worldgen import walk_of


def make(policy, **over):
    sc = Scenario(**over)
    world = build_world(sc, policy, seed=0)
    return world, DispatchController(world, policy, sc.dispatch), sc


def test_policy_kind_properties():
    assert PolicyKind.FIXED_ROUTE.fixed_only
    assert not PolicyKind.SOD.fixed_only
    assert PolicyKind.NOMINAL_ZONAL.split_fleet
    assert PolicyKind.RL_ZONAL.split_fleet
    assert not PolicyKind.SOD.split_fleet


def test_sod_headway_departures():
    world, ctrl, sc = make(PolicyKind.SOD)
    departures = []
    for _ in range(30):
        before = [v.id for v in world.vehicles
                  if v.status is VehicleStatus.BOARDING]
        ctrl.baseline_dispatch()
        after = [v.id for v in world.vehicles
                 if v.status is VehicleStatus.BOARDING]
        for vid in set(after) - set(before):
            departures.append((world.now, vid))
        world.advance_step()
    # one departure every 300 s: t = 0, 300, 600, ...
    times = [t for t, _ in departures]
    assert times == [i * 300.0 for i in range(len(times))]
    assert len(times) >= 6
    # all departures are regular all-zone cycles
    assert all(world.dispatch_log[i][3] == 0
               for i in range(len(world.dispatch_log)))


def test_fixed_route_never_plans_flex_stops():
    world, ctrl, sc = make(PolicyKind.FIXED_ROUTE)
    from sodfeeder.matching import match_step
    assert world.fixed_only
    for _ in range(sc.n_steps):
        ctrl.baseline_dispatch()
        match_step(world, **walk_of(world.params))
        for v in world.vehicles:
            assert oracle_window(v.schedule) is None
            assert all(s.kind is StopKind.FIXED for s in v.schedule[1:-1])
        world.advance_step()
    assert any(r.state is RequestState.SERVED for r in world.requests)


def test_reserved_override_cadence():
    world, ctrl, _ = make(PolicyKind.RL_ZONAL)
    for k in range(20):
        ctrl.baseline_dispatch()
        world.advance_step()
    overrides = [row for row in world.dispatch_log if row[2] == "override"]
    # every 600 s = every 10 steps: steps 0 and 10
    assert [row[0] for row in overrides] == [0, 10]
    for row in overrides:
        assert world.vehicles[row[1]].fleet_class is FleetClass.RESERVED or \
            row[3] == 0


def test_override_dispatches_reserved_all_zone():
    world, ctrl, _ = make(PolicyKind.NOMINAL_ZONAL)
    ctrl.baseline_dispatch()
    overrides = [row for row in world.dispatch_log if row[2] == "override"]
    assert len(overrides) == 1
    vid = overrides[0][1]
    assert world.vehicles[vid].fleet_class is FleetClass.RESERVED
    assert overrides[0][3] == 0


def test_nominal_zone_rotation():
    world, ctrl, _ = make(PolicyKind.NOMINAL_ZONAL)
    for _ in range(40):
        ctrl.baseline_dispatch()
        world.advance_step()
    zones = [row[3] for row in world.dispatch_log if row[2] == "baseline"]
    assert len(zones) >= 3
    assert zones[:4] == [1, 2, 1, 2][:len(zones)]
    # nominal departures sit at the 300 s offset between overrides
    steps = [row[0] for row in world.dispatch_log if row[2] == "baseline"]
    assert steps[0] == 5


def test_skip_counts_when_fleet_exhausted():
    world, ctrl, _ = make(PolicyKind.SOD, n_vehicles=1, n_reserved=0)
    ctrl.baseline_dispatch()            # t=0 departure succeeds
    assert world.lateness_skips == 0
    for _ in range(6):
        world.advance_step()
    ctrl.baseline_dispatch()            # t=360: the 300 s slot had no vehicle
    assert world.lateness_skips == 1


def test_apply_action_dispatches_controllable():
    world, ctrl, _ = make(PolicyKind.RL_ZONAL)
    assert ctrl.apply_action(1)
    rl_rows = [row for row in world.dispatch_log if row[2] == "rl"]
    assert len(rl_rows) == 1
    vid, z = rl_rows[0][1], rl_rows[0][3]
    assert world.vehicles[vid].fleet_class is FleetClass.CONTROLLABLE
    assert z == 1


def test_apply_action_hold_and_exhausted_are_noops():
    world, ctrl, sc = make(PolicyKind.RL_ZONAL)
    assert not ctrl.apply_action(3)
    n_ctrl = sum(1 for v in world.vehicles
                 if v.fleet_class is FleetClass.CONTROLLABLE)
    for _ in range(n_ctrl):
        assert ctrl.apply_action(0)
    assert not ctrl.apply_action(0)     # fleet exhausted -> no-op
    # every valid action is recorded, holds and no-ops included
    assert world.rl_actions == [3] + [0] * n_ctrl + [0]


def test_apply_action_validation():
    world, ctrl, _ = make(PolicyKind.RL_ZONAL)
    with pytest.raises(ValueError):
        ctrl.apply_action(4)
    assert world.rl_actions == []
    world2, ctrl2, _ = make(PolicyKind.SOD)
    with pytest.raises(ValueError):
        ctrl2.apply_action(0)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        DispatchConfig(full_headway=0)
