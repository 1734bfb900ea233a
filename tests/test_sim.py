import pytest

from sodfeeder.demand import DemandProfile, generate_instance
from sodfeeder.dispatch import PolicyKind
from sodfeeder.fleet import StopKind, VehicleStatus, peak_load, retime, Stop
from sodfeeder.scenario import Scenario, build_world


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
    w, _ = make_world()
    bound_min = w.cycle_time_bound(0) / 60.0
    # the design target is a ~33 min round trip; accept +-10%
    assert 33.0 * 0.9 <= bound_min <= 33.0 * 1.1


def test_dispatch_requires_vehicle_at_terminus():
    w, _ = make_world()
    w.dispatch_vehicle(0, 0)
    with pytest.raises(ValueError):
        w.dispatch_vehicle(0, 1)


def test_empty_cycle_completes_and_accrues_distance():
    w, sc = make_world(requests=[])
    v = w.dispatch_vehicle(0, 0)
    end = v.schedule[-1].arrival
    steps = int(end // sc.t_step) + 2
    for _ in range(steps):
        w.advance_step()
    assert v.status is VehicleStatus.AT_TERMINUS
    assert v.cycles_completed == 1
    assert v.schedule == []
    assert v.zone is None
    assert v.dist_total == pytest.approx(2 * 5600.0)
    assert v.deployed_total == pytest.approx(end)


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
    assert v.dist_total == pytest.approx(11200.0)
    # hand computation: the 1200 m outbound fixed portion finishes at
    # 300 + 1200/9 + 3*20 = 493.3 s, entirely before the 500 s cutoff;
    # the 4400 m leg to the turnaround spans 493.3..982.2 s, so only the
    # post-cutoff fraction of it counts; everything later counts in full.
    leg_start = 300 + 1200 / 9.0 + 60
    leg_end = leg_start + 4400 / 9.0
    pre_cutoff = 1200.0 + 4400.0 * (500.0 - leg_start) / (leg_end - leg_start)
    assert v.dist_metric == pytest.approx(11200.0 - pre_cutoff)


def test_pending_requests_visibility():
    from sodfeeder.corridor import Segment
    from sodfeeder.demand import Request
    reqs = [Request(0, 30.0, 0, 40, Segment.FIXED, Segment.ZONE1),
            Request(1, 90.0, 40, 0, Segment.ZONE1, Segment.FIXED)]
    w, _ = make_world(requests=reqs)
    assert w.pending_requests() == []
    w.advance_step()            # now = 60
    assert [r.id for r in w.pending_requests()] == [0]
    w.advance_step()            # now = 120
    assert [r.id for r in w.pending_requests()] == [0, 1]


def test_category_of():
    from sodfeeder.corridor import Segment
    from sodfeeder.demand import Request
    w, _ = make_world(requests=[])
    fixed_node = w.fixed_stop_nodes[0]
    z1 = w.net.nearest_mainline_node(2000)
    z2 = w.net.nearest_mainline_node(4000)
    mk = lambda i, dest, seg: __import__("sodfeeder.demand", fromlist=["Request"]).Request(
        i, 0.0, 0, dest, Segment.FIXED, seg)
    assert w.category_of(mk(0, fixed_node, Segment.FIXED)) == 0
    assert w.category_of(mk(1, z1, Segment.ZONE1)) == 1
    assert w.category_of(mk(2, z2, Segment.ZONE2)) == 2


def test_advance_past_horizon_raises():
    w, sc = make_world(requests=[])
    for _ in range(sc.n_steps):
        w.advance_step()
    with pytest.raises(ValueError):
        w.advance_step()


def test_identical_runs_are_identical():
    wa, sc = make_world(seed=5)
    wb, _ = make_world(seed=5)
    for w in (wa, wb):
        w.dispatch_vehicle(0, 0)
        w.dispatch_vehicle(1, 2)
    from sodfeeder.matching import match_step
    for _ in range(30):
        match_step(wa)
        match_step(wb)
        wa.advance_step()
        wb.advance_step()
    for va, vb in zip(wa.vehicles, wb.vehicles):
        assert va.dist_total == vb.dist_total
        assert [s.node for s in va.schedule] == [s.node for s in vb.schedule]
    assert [r.state for r in wa.requests] == [r.state for r in wb.requests]


def test_peak_load():
    s = [Stop(0, StopKind.TERMINUS_DEPART, board=[1, 2]),
         Stop(1, StopKind.FIXED, board=[3], alight=[1]),
         Stop(2, StopKind.FIXED, alight=[2, 3])]
    assert peak_load(s, 0, 0) == 2
    assert peak_load(s, 5, 1) == 5


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
