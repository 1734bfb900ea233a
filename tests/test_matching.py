import copy

import pytest

from sodfeeder.corridor import Segment
from sodfeeder.demand import Request, RequestState
from sodfeeder.dispatch import PolicyKind
from sodfeeder.matching import (enumerate_candidates, match_step,
                                nearest_fixed_stop, resolve_service_plan,
                                rho, vehicle_rho, zone_compatible)
from sodfeeder.scenario import Scenario
from sodfeeder.sim import World

from oracles import oracle_match
from worldgen import random_mini_world, run_production_match


def make_world(policy=PolicyKind.SOD, requests=None, n_vehicles=2):
    sc = Scenario(n_vehicles=n_vehicles, n_reserved=0)
    net = sc.network()
    return World(net, sc, requests or [],
                 fixed_only=policy.fixed_only), net


def feeder_request(net, rid, t_r, node, to_corridor=True):
    if to_corridor:
        o, d = net.terminus, node
    else:
        o, d = node, net.terminus
    return Request(id=rid, t_r=t_r, origin=o, destination=d,
                   origin_segment=net.labels[o],
                   destination_segment=net.labels[d])


def test_nearest_fixed_stop_snaps_by_walk_time():
    w, net = make_world()
    # a side-street node off the 400 m stop
    node = [n for n in range(net.n_nodes)
            if net.coords[n] == (400.0, 150.0)][0]
    snap, wt = nearest_fixed_stop(w, node, 1.25)
    assert snap == net.nearest_mainline_node(400)
    assert wt == pytest.approx(150 / 1.25)


def test_resolve_fixed_segment_endpoint_snaps():
    w, net = make_world()
    node = [n for n in range(net.n_nodes)
            if net.coords[n] == (400.0, 150.0)][0]
    req = feeder_request(net, 0, 0.0, node)
    plan = resolve_service_plan(w, req, 1.25, 600.0)
    assert plan.pickup_node == net.terminus
    assert plan.dropoff_node == net.nearest_mainline_node(400)
    assert plan.access_time == pytest.approx(150 / 1.25)
    assert plan.served_at_fixed
    assert plan.feasible


def test_resolve_flexible_endpoint_door_to_door():
    w, net = make_world()
    node = net.nearest_mainline_node(2000)
    req = feeder_request(net, 0, 0.0, node)
    plan = resolve_service_plan(w, req, 1.25, 600.0)
    assert plan.dropoff_node == node
    assert plan.access_time == 0.0
    assert not plan.served_at_fixed


def test_resolve_fixed_route_snaps_or_rejects():
    w, net = make_world(policy=PolicyKind.FIXED_ROUTE)
    near = net.nearest_mainline_node(1400)   # 200 m from the 1200 m stop
    plan = resolve_service_plan(w, feeder_request(net, 0, 0.0, near),
                                1.25, 600.0)
    assert plan.feasible
    assert plan.dropoff_node == net.nearest_mainline_node(1200)
    far = net.nearest_mainline_node(4000)    # kilometers from any stop
    plan = resolve_service_plan(w, feeder_request(net, 1, 0.0, far),
                                1.25, 600.0)
    assert not plan.feasible


def test_zone_compatibility():
    w, net = make_world()
    z1 = net.nearest_mainline_node(2000)
    z2 = net.nearest_mainline_node(4000)
    w.dispatch_vehicle(0, 1)
    w.dispatch_vehicle(1, 0)
    v1, v_all = w.vehicles[0], w.vehicles[1]

    plan1 = resolve_service_plan(w, feeder_request(net, 0, 0.0, z1), 1.25, 600)
    plan2 = resolve_service_plan(w, feeder_request(net, 1, 0.0, z2), 1.25, 600)
    assert zone_compatible(w, plan1, v1)
    assert not zone_compatible(w, plan2, v1)
    assert zone_compatible(w, plan1, v_all)
    assert zone_compatible(w, plan2, v_all)
    # idle vehicles are never compatible
    w2, _ = make_world()
    assert not zone_compatible(w2, plan1, w2.vehicles[0])


def test_rho_empty_cycle_hand_computed():
    # z=0 cycle drives 2 * 5600 m; 0.694 $/km * 11.2 km = 7.7728
    w, _ = make_world()
    v = w.dispatch_vehicle(0, 0)
    assert vehicle_rho(w, v, v.schedule) == pytest.approx(7.7728)
    assert rho(w) == pytest.approx(7.7728)


def test_delta_rho_hand_computed_fixed_stop_rider():
    # terminus -> 800 m stop: dropoff at 300 + 800/9 + 20 = 408.888..
    # delta = 16.5/3600 * 408.888 - gamma_r - gamma_s (distance unchanged)
    w, net = make_world()
    w.dispatch_vehicle(0, 0)
    stop800 = net.nearest_mainline_node(800)
    req = feeder_request(net, 0, 0.0, stop800)
    w.requests = [req]
    plan = resolve_service_plan(w, req, 1.25, 600.0)
    cands = enumerate_candidates(w, req, plan)
    assert cands
    best = cands[0]
    dropoff = 300 + 800 / 9.0 + 20
    expected = 16.5 / 3600.0 * dropoff - 2_000_000.0
    assert best.delta_rho == pytest.approx(expected)
    assert best.vehicle_id == 0


def test_delta_rho_hand_computed_flexible_rider():
    # terminus -> mainline 2000 m, inserted right after the window opens:
    # detour 2 * (2000 - 1200) m relative to the direct leg plus a 22 s
    # dwell; rho gains distance, ride time and loses one gamma_r only.
    w, net = make_world()
    w.dispatch_vehicle(0, 1)
    node = net.nearest_mainline_node(2000)
    req = feeder_request(net, 0, 0.0, node)
    w.requests = [req]
    plan = resolve_service_plan(w, req, 1.25, 600.0)
    cands = enumerate_candidates(w, req, plan)
    assert cands
    best = cands[0]
    # the cheapest insertion is on the way out: no extra distance at all
    dropoff = 300 + 2000 / 9.0 + 3 * 20
    expected = 16.5 / 3600.0 * dropoff - 1_000_000.0
    assert best.delta_rho == pytest.approx(expected)
    assert not plan.served_at_fixed


def test_match_assigns_and_updates_request():
    w, net = make_world()
    w.dispatch_vehicle(0, 0)
    node = net.nearest_mainline_node(2000)
    w.requests = [feeder_request(net, 0, 0.0, node)]
    w.now = 0.0
    rep = match_step(w)
    assert rep.assigned == [(0, 0)]
    r = w.requests[0]
    assert r.state is RequestState.ASSIGNED
    assert r.vehicle == 0
    assert r.direct_time == pytest.approx(net.travel_time(net.terminus, node))
    assert 0 in w.vehicles[0].assigned


def test_match_prefers_cheaper_vehicle():
    # a zone-1 trip fits the zone-1 vehicle cheaper than the all-zone one
    w, net = make_world()
    w.dispatch_vehicle(0, 2)
    w.dispatch_vehicle(1, 1)
    node = net.nearest_mainline_node(2000)
    w.requests = [feeder_request(net, 0, 0.0, node)]
    rep = match_step(w)
    assert rep.assigned == [(0, 1)]


def test_overdue_request_rejected():
    w, net = make_world()
    w.dispatch_vehicle(0, 0)
    w.requests = [feeder_request(net, 0, 0.0, net.nearest_mainline_node(2000))]
    w.now = 901.0
    rep = match_step(w)
    assert rep.rejected == [0]
    assert w.requests[0].state is RequestState.REJECTED
    assert w.rejected_total == 1


def test_no_vehicle_leaves_pending():
    w, net = make_world()
    w.requests = [feeder_request(net, 0, 0.0, net.nearest_mainline_node(2000))]
    rep = match_step(w)
    assert rep.pending == [0]
    assert w.requests[0].state is RequestState.PENDING


def test_capacity_limits_assignments():
    sc = Scenario(n_vehicles=1, n_reserved=0, capacity=2)
    net = sc.network()
    reqs = [feeder_request(net, i, 0.0, net.nearest_mainline_node(2000))
            for i in range(4)]
    w = World(net, sc, reqs)
    w.dispatch_vehicle(0, 0)
    rep = match_step(w)
    assert len(rep.assigned) == 2
    assert len(rep.pending) == 2


def test_window_span_respected():
    # keep inserting deep zone-2 door-to-door stops: the 1200 s flexible
    # window must stop accepting them eventually
    w, net = make_world(n_vehicles=1)
    w.dispatch_vehicle(0, 0)
    deep = [n for n in range(net.n_nodes)
            if net.coords[n][0] >= 4000 and net.coords[n][1] == 300.0]
    reqs = [feeder_request(net, i, 0.0, deep[i]) for i in range(len(deep))]
    w.requests = reqs
    rep = match_step(w)
    assert rep.pending   # not everything fits
    v = w.vehicles[0]
    span = (v.schedule[v.window_close_idx].arrival
            - v.schedule[v.window_open_idx].departure)
    assert span <= 1200.0 + 1e-6


def test_matches_brute_force_on_random_mini_worlds(net):
    for seed in range(40):
        world = random_mini_world(seed, net)
        twin = copy.deepcopy(world)
        got = run_production_match(world)
        want = oracle_match(twin)
        assert sorted(got["rejected"]) == sorted(want["rejected"]), seed
        assert sorted(got["pending"]) == sorted(want["pending"]), seed
        assert [(rid, vid) for rid, vid in got["assigned"]] == \
            [(rid, vid) for rid, vid, *_ in want["assigned"]], seed
        for va, vb in zip(world.vehicles, twin.vehicles):
            assert [s.node for s in va.schedule] == \
                [s.node for s in vb.schedule], seed
            assert [sorted(s.board) for s in va.schedule] == \
                [sorted(s.board) for s in vb.schedule], seed
