import copy
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sodfeeder
from sodfeeder.corridor import Segment
from sodfeeder.demand import Request, RequestState, generate_instance
from sodfeeder.dispatch import DispatchController, PolicyKind
from sodfeeder.env import N_ACTIONS, ZonalDispatchEnv
from sodfeeder.fleet import StopKind, VehicleStatus, Stop, retime, walk
from sodfeeder.matching import match_step
from sodfeeder.scenario import Scenario, build_world
from sodfeeder.sim import World

from oracles import rescan_advance_step
from worldgen import restore, snapshot, walk_of


def make_world(policy=PolicyKind.SOD, seed=0, requests=None, sc=None):
    sc = sc or Scenario()
    net = sc.network()
    if requests is None:
        requests = generate_instance(net, sc.demand, sc.horizon, seed)
    from sodfeeder.sim import World
    return World(net, sc, requests,
                 fixed_only=policy.fixed_only,
                 split_fleet=policy.split_fleet), sc


def test_fixed_stop_and_turn_nodes():
    w, _ = make_world()
    xs = [w.net.coords[n][0] for n in w.fixed_stop_nodes]
    assert xs == [400.0, 800.0, 1200.0]
    assert w.net.coords[w.turn_nodes[0]][0] == 5600.0
    assert w.net.coords[w.turn_nodes[1]][0] == 3400.0
    assert w.net.coords[w.turn_nodes[2]][0] == 5600.0


def test_dispatch_schedule_structure():
    w, _ = make_world()
    v = w.dispatch_vehicle(0, 0)
    kinds = [s.kind for s in v.schedule]
    assert kinds == ([StopKind.TERMINUS_DEPART] + [StopKind.FIXED] * 3
                     + [StopKind.TURNAROUND] + [StopKind.FIXED] * 3
                     + [StopKind.TERMINUS_ARRIVE])
    assert v.window_open_idx == 3
    assert v.window_close_idx == 5
    assert v.status is VehicleStatus.BOARDING
    assert v.zone == 0


def test_dispatch_planned_times_hand_computed():
    # 9 m/s mainline, 300 s boarding, 20 s dwell at empty fixed stops
    w, _ = make_world()
    v = w.dispatch_vehicle(0, 0)
    s = v.schedule
    assert s[0].departure == pytest.approx(300.0)
    assert s[1].arrival == pytest.approx(300 + 400 / 9.0)
    assert s[1].departure == pytest.approx(300 + 400 / 9.0 + 20)
    assert s[3].arrival == pytest.approx(300 + 1200 / 9.0 + 40)
    # turnaround at 5600 m, no dwell when empty
    assert s[4].arrival == pytest.approx(s[3].departure + 4400 / 9.0)
    assert s[4].departure == pytest.approx(s[4].arrival)
    assert s[8].arrival == pytest.approx(s[7].departure + 400 / 9.0)


def test_zone1_cycle_turns_early():
    w, _ = make_world()
    v = w.dispatch_vehicle(0, 1)
    turn = [s for s in v.schedule if s.kind == StopKind.TURNAROUND]
    assert len(turn) == 1
    assert w.net.coords[turn[0].node][0] == 3400.0


def test_fixed_only_cycle_has_no_window():
    w, _ = make_world(policy=PolicyKind.FIXED_ROUTE)
    v = w.dispatch_vehicle(0, 0)
    kinds = [s.kind for s in v.schedule]
    assert StopKind.TURNAROUND not in kinds
    assert StopKind.FLEX not in kinds
    assert v.window_open_idx is None
    # last fixed stop appears exactly once (the turn point)
    last_fx = w.fixed_stop_nodes[-1]
    assert sum(1 for s in v.schedule if s.node == last_fx) == 1


def test_cycle_time_bound_near_half_hour():
    # the longest flexible-route cycle: boarding, the fixed legs out and
    # back with a dwell at each fixed stop, and the whole flexible window
    w, sc = make_world()
    nodes = [w.net.terminus] + w.fixed_stop_nodes
    leg = sum(w.net.travel_time(a, b) for a, b in zip(nodes, nodes[1:]))
    dwell = sc.dwell_base * len(w.fixed_stop_nodes)
    bound_min = (sc.boarding_duration + 2 * (leg + dwell)
                 + sc.limits.flex_window) / 60.0
    # the design target is a ~33 min round trip; accept +-10%
    assert 33.0 * 0.9 <= bound_min <= 33.0 * 1.1


def test_dispatch_requires_vehicle_at_terminus():
    w, _ = make_world()
    w.dispatch_vehicle(0, 0)
    with pytest.raises(ValueError):
        w.dispatch_vehicle(0, 1)


def test_empty_cycle_completes_and_accrues_distance():
    w, sc = make_world(requests=[], sc=Scenario(warmup=0.0))
    v = w.dispatch_vehicle(0, 0)
    end = v.schedule[-1].arrival
    steps = int(end // sc.t_step) + 2
    for _ in range(steps):
        w.advance_step()
    # the cycle completed: back at the terminus with nothing planned, and
    # its whole duration counted as deployed
    assert v.status is VehicleStatus.AT_TERMINUS
    assert v.schedule == []
    assert v.zone is None
    assert v.dist_metric == pytest.approx(2 * 5600.0)
    assert v.deployed_metric == pytest.approx(end)


def _epochs(w):
    return w.epoch, [v.epoch for v in w.vehicles]


def test_each_schedule_writer_bumps_the_epoch_and_stamps_its_vehicle():
    sc = Scenario(n_vehicles=3, n_reserved=0)
    net = sc.network()
    req = Request(0, 0.0, net.terminus, net.nearest_mainline_node(2000))
    w = World(net, sc, [req])
    assert _epochs(w) == (0, [0, 0, 0])
    v = w.dispatch_vehicle(1, 0)
    assert _epochs(w) == (1, [0, 1, 0])
    assert match_step(w, **walk_of(w.params)).assigned == [(0, 1)]
    assert _epochs(w) == (2, [0, 2, 0])
    while v.schedule:           # until the terminus arrival clears it
        w.advance_step()
    assert v.status is VehicleStatus.AT_TERMINUS
    # an empty schedule takes no rider, so it leaves the epoch alone
    assert _epochs(w) == (2, [0, 2, 0])


def test_snapshot_restore_keeps_the_epochs_and_the_memo(scenario):
    env = ZonalDispatchEnv(scenario)
    env.reset(4)
    for _ in range(20):
        env.step(0 if env.t % 4 == 0 else 3)
    snap = snapshot(env)
    want = _epochs(env.world), dict(env.world.no_fit)
    for _ in range(8):
        env.step(1)
    assert _epochs(env.world) != want[0]
    restore(env, snap)
    assert (_epochs(env.world), env.world.no_fit) == want


def test_set_schedule_is_the_one_schedule_writer():
    src = Path(sodfeeder.__file__).parent
    writes = [(path.name, line.strip())
              for path in sorted(src.glob("*.py"))
              for line in path.read_text().splitlines()
              if re.search(r"\.schedule\s*=(?!=)", line)]
    assert writes == [("sim.py", "vehicle.schedule = schedule")]


def test_last_departure_bookkeeping():
    w, _ = make_world()
    assert w.last_departure == {0: None, 1: None, 2: None}
    w.dispatch_vehicle(0, 1)
    assert w.last_departure[1] == 0.0
    assert w.last_departure[0] is None
    w.dispatch_vehicle(1, 0)
    assert w.last_departure == {0: 0.0, 1: 0.0, 2: 0.0}


def test_warmup_proration_of_distance():
    # a cycle straddling the cutoff accrues only the post-cutoff share
    w, sc = make_world(requests=[], sc=Scenario(warmup=500.0))
    v = w.dispatch_vehicle(0, 0)
    end = v.schedule[-1].arrival
    for _ in range(int(end // sc.t_step) + 2):
        w.advance_step()
    # hand computation: the 1200 m outbound fixed portion finishes at
    # 300 + 1200/9 + 3*20 = 493.3 s, entirely before the 500 s cutoff;
    # the 4400 m leg to the turnaround spans 493.3..982.2 s, so only the
    # post-cutoff fraction of it counts; everything later counts in full.
    leg_start = 300 + 1200 / 9.0 + 60
    leg_end = leg_start + 4400 / 9.0
    pre_cutoff = 1200.0 + 4400.0 * (500.0 - leg_start) / (leg_end - leg_start)
    assert v.dist_metric == pytest.approx(11200.0 - pre_cutoff)


def test_pending_requests_visibility():
    reqs = [Request(0, 30.0, 0, 40), Request(1, 90.0, 40, 0)]
    w, _ = make_world(requests=reqs)
    assert w.pending_requests() == []
    w.advance_step()            # now = 60
    assert [r.id for r in w.pending_requests()] == [0]
    w.advance_step()            # now = 120
    assert [r.id for r in w.pending_requests()] == [0, 1]



def _brute_pending(w):
    return [r for r in w.requests
            if r.state is RequestState.PENDING and r.t_r <= w.now]


def _same_requests(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def test_pending_requests_match_brute_force_over_an_episode():
    w, sc = make_world(seed=3)
    ctrl = DispatchController(w, PolicyKind.SOD, sc.dispatch)
    for _ in range(sc.n_steps):
        ctrl.baseline_dispatch()
        assert _same_requests(w.pending_requests(), _brute_pending(w))
        match_step(w, **walk_of(w.params))
        assert _same_requests(w.pending_requests(), _brute_pending(w))
        w.advance_step()
    assert _same_requests(w.pending_requests(), _brute_pending(w))
    assert any(r.state is RequestState.SERVED for r in w.requests)


def test_pending_requests_is_a_fresh_list():
    w, _ = make_world(seed=3)
    for _ in range(20):
        w.advance_step()
    got = w.pending_requests()
    assert got
    got.clear()
    assert _same_requests(w.pending_requests(), _brute_pending(w))


def test_pending_requests_after_requests_reassigned():
    w, sc = make_world(seed=3)
    for _ in range(40):
        match_step(w, **walk_of(w.params))
        w.advance_step()
    assert w.pending_requests()
    w.requests = generate_instance(w.net, sc.demand, sc.horizon, 8)
    assert w.no_fit == {}
    assert _same_requests(w.pending_requests(), _brute_pending(w))
    w.requests = w.requests[:3]
    assert _same_requests(w.pending_requests(), _brute_pending(w))
    w.requests = []
    assert w.pending_requests() == []


def test_pending_requests_continue_identically_after_restore(scenario):
    env = ZonalDispatchEnv(scenario)
    env.reset(4)
    for _ in range(12):
        env.step(3)
    snap = snapshot(env)
    plan = [1, 2, 3, 0, 3, 3, 1, 3]

    def rollout():
        out = []
        for a in plan:
            env.step(a)
            got = env.world.pending_requests()
            assert _same_requests(got, _brute_pending(env.world))
            out.append([r.id for r in got])
        return out

    first = rollout()
    restore(env, snap)
    assert _same_requests(env.world.pending_requests(),
                          _brute_pending(env.world))
    assert rollout() == first


@pytest.mark.parametrize("t_rs,ids,match", [
    ((30.0, 10.0), (0, 1), "sorted by t_r"),
    ((10.0, 30.0), (1, 0), "ids must be 0..n-1"),
    ((10.0, 30.0), (0, 2), "ids must be 0..n-1"),
])
def test_world_rejects_misordered_requests(t_rs, ids, match):
    def reqs():
        return [Request(i, t, 0, 40) for i, t in zip(ids, t_rs)]
    with pytest.raises(ValueError, match=match):
        make_world(requests=reqs())
    w, _ = make_world(requests=[])
    with pytest.raises(ValueError, match=match):
        w.requests = reqs()
    assert w.requests == []


def test_world_rejects_a_terminus_to_terminus_request():
    w, _ = make_world(requests=[])
    term = w.net.terminus
    reqs = [Request(0, 10.0, term, 40), Request(1, 20.0, term, term)]
    with pytest.raises(ValueError, match="request 1: both endpoints are the "
                                         "terminus %d" % term):
        w.requests = reqs
    assert w.requests == []


def test_category_of():
    w, _ = make_world(requests=[])
    fixed_node = w.fixed_stop_nodes[0]
    z1 = w.net.nearest_mainline_node(2000)
    z2 = w.net.nearest_mainline_node(4000)
    for i, node, cat in ((0, fixed_node, Segment.FIXED), (1, z1, Segment.ZONE1),
                         (2, z2, Segment.ZONE2)):
        assert w.category_of(Request(i, 0.0, 0, node)) == cat
        assert w.category_of(Request(i, 0.0, node, 0)) == cat


def test_advance_past_horizon_raises():
    w, sc = make_world(requests=[])
    for _ in range(sc.n_steps):
        w.advance_step()
    with pytest.raises(ValueError):
        w.advance_step()


def test_identical_runs_are_identical():
    wa, sc = make_world(seed=5, sc=Scenario(warmup=0.0))
    wb, _ = make_world(seed=5, sc=Scenario(warmup=0.0))
    for w in (wa, wb):
        w.dispatch_vehicle(0, 0)
        w.dispatch_vehicle(1, 2)
    from sodfeeder.matching import match_step
    for _ in range(30):
        match_step(wa, **walk_of(wa.params))
        match_step(wb, **walk_of(wb.params))
        wa.advance_step()
        wb.advance_step()
    for va, vb in zip(wa.vehicles, wb.vehicles):
        assert va.dist_metric == vb.dist_metric
        assert [s.node for s in va.schedule] == [s.node for s in vb.schedule]
    assert [r.state for r in wa.requests] == [r.state for r in wb.requests]


def test_peak_load(net):
    s = [Stop(0, StopKind.TERMINUS_DEPART, board=[1, 2]),
         Stop(1, StopKind.FIXED, board=[3], alight=[1]),
         Stop(2, StopKind.FIXED, alight=[2, 3])]
    assert walk(s, net, 0, 0)[1] == 2
    assert walk(s, net, 5, 1)[1] == 5


@given(seed=st.integers(0, 10**6), steps=st.integers(0, 150),
       status=st.sampled_from([VehicleStatus.BOARDING,
                               VehicleStatus.EN_ROUTE]),
       node=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_retime_from_a_stop_equals_a_full_retime(net, seed, steps, status,
                                                 node):
    # a schedule a vehicle holds, with stop k onward changed (one more rider
    # at k, and a new flexible stop after it): retiming from k gives every
    # stop, bit for bit, the times a full retime gives it, for each k from
    # the committed anchor on
    sc = Scenario()
    w = build_world(sc, PolicyKind.SOD, seed, net=net)
    ctrl = DispatchController(w, PolicyKind.SOD, sc.dispatch)
    for step in range(sc.n_steps):
        ctrl.baseline_dispatch()
        match_step(w, **walk_of(w.params))
        held = [v for v in w.vehicles if v.status is status]
        if step >= steps and held:
            break
        w.advance_step()
    assert held
    dwell = (sc.dwell_base, sc.dwell_per_pax)
    for v in held:
        for k in range(v.next_idx, len(v.schedule)):
            for insert in (False, True):
                sched = [s.clone() for s in v.schedule]
                sched[k].board.append(-1)
                if insert and k < len(sched) - 1:
                    sched.insert(k + 1, Stop(node % net.n_nodes,
                                             StopKind.FLEX))
                part = [s.clone() for s in sched]
                full = [s.clone() for s in sched]
                retime(part, v.status, v.next_idx, net, *dwell, k)
                retime(full, v.status, v.next_idx, net, *dwell)
                assert ([(s.arrival, s.departure) for s in part]
                        == [(s.arrival, s.departure) for s in full]), k


def test_retime_en_route_anchor(net):
    # only stops after the committed anchor are recomputed
    s = [Stop(0, StopKind.TERMINUS_DEPART, arrival=0.0, departure=300.0),
         Stop(2, StopKind.FIXED, arrival=344.4, departure=364.4),
         Stop(4, StopKind.FIXED)]
    retime(s, VehicleStatus.EN_ROUTE, 1, net, 20.0, 2.0)
    assert s[0].departure == 300.0
    assert s[1].arrival == pytest.approx(344.4)       # anchor untouched
    assert s[1].departure == pytest.approx(364.4)
    assert s[2].arrival == pytest.approx(364.4 + net.travel_time(2, 4))


def _logging_events(world):
    """Record each event's (time, vehicle id) as the world executes it."""
    log = []
    process = world._process_event

    def logged(v, t, rep):
        log.append((t, v.id))
        process(v, t, rep)

    world._process_event = logged
    return log


@pytest.mark.parametrize("kind", [PolicyKind.SOD, PolicyKind.RL_ZONAL])
def test_event_heap_equals_the_rescan_oracle(kind):
    sc = Scenario(warmup=0.0)
    world = build_world(sc, kind, 3)
    ctrl = DispatchController(world, kind, sc.dispatch)
    twin, twin_ctrl = copy.deepcopy((world, ctrl), {id(world.net): world.net})
    logs = _logging_events(world), _logging_events(twin)
    actions = np.random.default_rng(4).integers(0, N_ACTIONS, sc.n_steps)
    for k in range(sc.n_steps):
        reports = []
        for w, c, advance in ((world, ctrl, World.advance_step),
                              (twin, twin_ctrl, rescan_advance_step)):
            c.baseline_dispatch()
            if kind is PolicyKind.RL_ZONAL:
                c.apply_action(int(actions[k]))
            match_step(w, walk_speed=sc.demand.walk_speed,
                       walk_cap=sc.demand.walk_cap)
            reports.append(advance(w))
        assert reports[0] == reports[1], "step %d" % k
        assert logs[0] == logs[1], "step %d" % k
    assert len(logs[0]) > 300
    assert [(r.state, r.pickup_time, r.dropoff_time) for r in world.requests] \
        == [(r.state, r.pickup_time, r.dropoff_time) for r in twin.requests]
    assert [(v.dist_metric, v.deployed_metric) for v in world.vehicles] \
        == [(v.dist_metric, v.deployed_metric) for v in twin.vehicles]


def test_event_time_tie_goes_to_the_lower_vehicle_id():
    # vehicle 1 boards first, then arrives at its first stop at the very
    # time vehicle 0 leaves the terminus: vehicle 0 must go first
    w, sc = make_world(requests=[])
    v0, v1 = w.dispatch_vehicle(0, 0), w.dispatch_vehicle(1, 0)
    while w.now + sc.t_step < v0.schedule[0].departure:
        w.advance_step()
    tie = v0.schedule[0].departure
    v1.schedule[0].departure = tie - 10.0
    v1.schedule[1].arrival = tie
    twin = copy.deepcopy(w)
    logs = _logging_events(w), _logging_events(twin)
    w.advance_step()
    rescan_advance_step(twin)
    assert logs[0] == [(tie - 10.0, 1), (tie, 0), (tie, 1)]
    assert logs[1] == logs[0]
