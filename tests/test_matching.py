import copy
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sodfeeder import env as env_module
from sodfeeder import fleet, matching
from sodfeeder.corridor import CorridorSpec
from sodfeeder.costs import EPS, FeasibilityLimits
from sodfeeder.demand import Request, RequestState
from sodfeeder.dispatch import DispatchController, PolicyKind
from sodfeeder.env import N_ACTIONS, ZonalDispatchEnv
from sodfeeder.experiments import run_simulation
from sodfeeder.matching import (enumerate_candidates, match_step,
                                nearest_fixed_stop, resolve_service_plan)
from sodfeeder.scenario import Scenario, build_world
from sodfeeder.sim import World

from oracles import oracle_match, rho, vehicle_rho, zone_compatible
from worldgen import (random_mini_world, restore, run_production_match,
                      scenarios, snapshot, walk_of)


def make_world(policy=PolicyKind.SOD, requests=None, n_vehicles=2):
    sc = Scenario(n_vehicles=n_vehicles, n_reserved=0)
    net = sc.network()
    return World(net, sc, requests or [],
                 fixed_only=policy.fixed_only), net


def window_span(schedule):
    """The flexible window span of a cycle, its window found by stop kinds."""
    open_idx, close_idx = oracles.oracle_window(schedule)
    return schedule[close_idx].arrival - schedule[open_idx].departure


def feeder_request(net, rid, t_r, node, to_corridor=True):
    if to_corridor:
        o, d = net.terminus, node
    else:
        o, d = node, net.terminus
    return Request(id=rid, t_r=t_r, origin=o, destination=d)


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
    assert resolve_service_plan(w, req, 1.25, 600.0)
    assert req.pickup_node == net.terminus
    assert req.dropoff_node == net.nearest_mainline_node(400)
    assert req.access_time == pytest.approx(150 / 1.25)
    assert req.served_at_fixed_stop
    assert req.direct_time == net.travel_time(net.terminus, req.dropoff_node)


def test_resolve_flexible_endpoint_door_to_door():
    w, net = make_world()
    node = net.nearest_mainline_node(2000)
    req = feeder_request(net, 0, 0.0, node)
    assert resolve_service_plan(w, req, 1.25, 600.0)
    assert req.dropoff_node == node
    assert req.access_time == 0.0
    assert not req.served_at_fixed_stop


def test_resolve_fixed_route_snaps_or_rejects():
    w, net = make_world(policy=PolicyKind.FIXED_ROUTE)
    near = net.nearest_mainline_node(1400)   # 200 m from the 1200 m stop
    req = feeder_request(net, 0, 0.0, near)
    assert resolve_service_plan(w, req, 1.25, 600.0)
    assert req.dropoff_node == net.nearest_mainline_node(1200)
    far = net.nearest_mainline_node(4000)    # kilometers from any stop
    assert not resolve_service_plan(w, feeder_request(net, 1, 0.0, far),
                                    1.25, 600.0)


@pytest.mark.parametrize("policy", [PolicyKind.SOD, PolicyKind.FIXED_ROUTE])
@pytest.mark.parametrize("corridor", [CorridorSpec(), CorridorSpec(side_depth=0)],
                         ids=["default", "no_side_streets"])
def test_resolve_equals_the_oracle_for_every_node(corridor, policy):
    sc = Scenario(corridor=corridor)
    net = sc.network()
    w = World(net, sc, [], fixed_only=policy.fixed_only)
    walk = (sc.demand.walk_speed, sc.demand.walk_cap)
    rejected = 0
    for node in range(net.n_nodes):
        for to_corridor in (True, False):
            req = feeder_request(net, 0, 0.0, node, to_corridor)
            want = oracles.oracle_resolve(w, req, *walk)
            assert resolve_service_plan(w, req, *walk) == want.feasible, node
            got = (req.pickup_node, req.dropoff_node, req.access_time,
                   req.served_at_fixed_stop, req.direct_time)
            if not want.feasible:
                rejected += 1
                assert got == (None, None, 0.0, False, None), node
                continue
            assert got == (want.pickup_node, want.dropoff_node,
                           want.access_time, want.served_at_fixed,
                           net.travel_time(want.pickup_node,
                                           want.dropoff_node)), node
    assert (rejected > 0) == policy.fixed_only


def test_zone_compatibility():
    w, net = make_world()
    z1 = net.nearest_mainline_node(2000)
    z2 = net.nearest_mainline_node(4000)
    w.dispatch_vehicle(0, 1)
    w.dispatch_vehicle(1, 0)
    v1, v_all = w.vehicles[0], w.vehicles[1]

    req1 = feeder_request(net, 0, 0.0, z1)
    req2 = feeder_request(net, 1, 0.0, z2)
    for req in (req1, req2):
        assert resolve_service_plan(w, req, 1.25, 600)
    assert zone_compatible(w, req1, v1)
    assert not zone_compatible(w, req2, v1)
    assert zone_compatible(w, req1, v_all)
    assert zone_compatible(w, req2, v_all)
    # idle vehicles are never compatible
    w2, _ = make_world()
    assert not zone_compatible(w2, req1, w2.vehicles[0])


def test_rho_empty_cycle_hand_computed():
    # z=0 cycle drives 2 * 5600 m; 0.694 $/km * 11.2 km = 7.7728
    w, _ = make_world()
    v = w.dispatch_vehicle(0, 0)
    assert vehicle_rho(w, v.schedule) == pytest.approx(7.7728)
    assert rho(w) == pytest.approx(7.7728)


def test_delta_rho_hand_computed_fixed_stop_rider():
    # terminus -> 800 m stop: dropoff at 300 + 800/9 + 20 = 408.888..
    # delta = 16.5/3600 * 408.888 - gamma_r - gamma_s (distance unchanged)
    w, net = make_world()
    w.dispatch_vehicle(0, 0)
    stop800 = net.nearest_mainline_node(800)
    req = feeder_request(net, 0, 0.0, stop800)
    w.requests = [req]
    assert resolve_service_plan(w, req, 1.25, 600.0)
    cands = enumerate_candidates(w, req)
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
    assert resolve_service_plan(w, req, 1.25, 600.0)
    cands = enumerate_candidates(w, req)
    assert cands
    best = cands[0]
    # the cheapest insertion is on the way out: no extra distance at all
    dropoff = 300 + 2000 / 9.0 + 3 * 20
    expected = 16.5 / 3600.0 * dropoff - 1_000_000.0
    assert best.delta_rho == pytest.approx(expected)
    assert not req.served_at_fixed_stop


def test_match_assigns_and_updates_request():
    w, net = make_world()
    w.dispatch_vehicle(0, 0)
    node = net.nearest_mainline_node(2000)
    w.requests = [feeder_request(net, 0, 0.0, node)]
    w.now = 0.0
    rep = match_step(w, **walk_of(w.params))
    assert rep.assigned == [(0, 0)]
    r = w.requests[0]
    assert r.state is RequestState.ASSIGNED
    assert r.vehicle == 0
    assert r.direct_time == pytest.approx(net.travel_time(net.terminus, node))
    assert [s.node for s in w.vehicles[0].schedule if 0 in s.alight] == [node]


def test_match_prefers_cheaper_vehicle():
    # a zone-1 trip fits the zone-1 vehicle cheaper than the all-zone one
    w, net = make_world()
    w.dispatch_vehicle(0, 2)
    w.dispatch_vehicle(1, 1)
    node = net.nearest_mainline_node(2000)
    w.requests = [feeder_request(net, 0, 0.0, node)]
    rep = match_step(w, **walk_of(w.params))
    assert rep.assigned == [(0, 1)]


def test_overdue_request_rejected():
    w, net = make_world()
    w.dispatch_vehicle(0, 0)
    w.requests = [feeder_request(net, 0, 0.0, net.nearest_mainline_node(2000))]
    w.now = 901.0
    rep = match_step(w, **walk_of(w.params))
    assert rep.rejected == [0]
    assert w.requests[0].state is RequestState.REJECTED
    assert w.rejected_total == 1


def test_no_vehicle_leaves_pending():
    w, net = make_world()
    w.requests = [feeder_request(net, 0, 0.0, net.nearest_mainline_node(2000))]
    rep = match_step(w, **walk_of(w.params))
    assert rep.pending == [0]
    assert w.requests[0].state is RequestState.PENDING


def test_capacity_limits_assignments():
    sc = Scenario(n_vehicles=1, n_reserved=0, capacity=2)
    net = sc.network()
    reqs = [feeder_request(net, i, 0.0, net.nearest_mainline_node(2000))
            for i in range(4)]
    w = World(net, sc, reqs)
    w.dispatch_vehicle(0, 0)
    rep = match_step(w, **walk_of(w.params))
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
    rep = match_step(w, **walk_of(w.params))
    assert rep.pending   # not everything fits
    assert window_span(w.vehicles[0].schedule) <= 1200.0 + 1e-6


def test_matches_brute_force_on_random_mini_worlds(net):
    for seed in range(40):
        world = random_mini_world(seed, net)
        twin = copy.deepcopy(world)
        got = run_production_match(world)
        want = oracle_match(twin, **walk_of(twin.params))
        assert sorted(got["rejected"]) == sorted(want["rejected"]), seed
        assert sorted(got["pending"]) == sorted(want["pending"]), seed
        assert [(rid, vid) for rid, vid in got["assigned"]] == \
            [(rid, vid) for rid, vid, *_ in want["assigned"]], seed
        for va, vb in zip(world.vehicles, twin.vehicles):
            assert [s.node for s in va.schedule] == \
                [s.node for s in vb.schedule], seed
            assert [sorted(s.board) for s in va.schedule] == \
                [sorted(s.board) for s in vb.schedule], seed


def _assert_same_round(world, twin, seed):
    """One production round on ``world`` equals one oracle round on its
    deep copy ``twin``."""
    got = run_production_match(world)
    want = oracle_match(twin, **walk_of(twin.params))
    assert sorted(got["rejected"]) == sorted(want["rejected"]), seed
    assert sorted(got["pending"]) == sorted(want["pending"]), seed
    assert got["assigned"] == [(rid, vid) for rid, vid, *_ in
                               want["assigned"]], seed
    for va, vb in zip(world.vehicles, twin.vehicles):
        assert [(s.node, s.kind, sorted(s.board), sorted(s.alight),
                 s.arrival, s.departure) for s in va.schedule] == \
            [(s.node, s.kind, sorted(s.board), sorted(s.alight),
              s.arrival, s.departure) for s in vb.schedule], seed
        # the window that matching reads off the shape, for k fixed stops
        k = len(world.fixed_stop_nodes)
        want = (None if world.fixed_only or not va.schedule
                else (k, len(va.schedule) - 1 - k))
        assert oracles.oracle_window(va.schedule) == want, seed


def _count_calls(monkeypatch, module, name, counts, key):
    original = getattr(module, name)

    def counted(*args):
        counts[key] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)


def test_matches_brute_force_on_loaded_mini_worlds(net, monkeypatch):
    # 20-40 requests in one round fill the flexible windows, so the window
    # screen skips insertions; the unscreened oracle must still agree
    built = {"production": 0, "oracle": 0}
    _count_calls(monkeypatch, matching, "retime", built, "production")
    _count_calls(monkeypatch, oracles, "_oracle_retime", built, "oracle")
    for seed in range(20):
        world = random_mini_world(seed, net, max_vehicles=3, min_requests=20,
                                  max_requests=40)
        _assert_same_round(world, copy.deepcopy(world), seed)
    assert built["production"] < built["oracle"], built


def test_full_window_builds_no_flexible_schedule(monkeypatch):
    # a window already spanning exactly flex_window: every flexible insertion
    # is screened out unbuilt, and the round still equals the oracle's
    probe, net = make_world(n_vehicles=1)
    v = probe.dispatch_vehicle(0, 0)
    span = window_span(v.schedule)
    sc = Scenario(n_vehicles=1, n_reserved=0,
                  limits=FeasibilityLimits(flex_window=span))
    flex = net.nearest_mainline_node(4000)
    reqs = [feeder_request(net, 0, 0.0, flex),
            feeder_request(net, 1, 0.0, flex, to_corridor=False),
            feeder_request(net, 2, 0.0, net.nearest_mainline_node(800))]
    w = World(net, sc, reqs)
    w.dispatch_vehicle(0, 0)
    built = {"flex": 0}
    _count_calls(monkeypatch, matching, "retime", built, "flex")
    for req in reqs[:2]:
        assert resolve_service_plan(w, req, 1.25, 600.0)
        assert not req.served_at_fixed_stop
        assert enumerate_candidates(w, req) == []
    assert built["flex"] == 0
    _assert_same_round(w, copy.deepcopy(w), "full window")
    assert [r.state for r in w.requests] == [
        RequestState.PENDING, RequestState.PENDING, RequestState.ASSIGNED]


@pytest.mark.parametrize("to_corridor", [True, False])
def test_window_filled_exactly_still_accepts_the_insertion(to_corridor):
    # flex_window set to the exact window span after the best flexible
    # insertion: the screen's bound meets the limit and must let it through
    probe, net = make_world(n_vehicles=1)
    probe.dispatch_vehicle(0, 0)
    if not to_corridor:
        for _ in range(5):      # past boarding: inbound riders only
            probe.advance_step()
    node = [n for n in range(net.n_nodes)
            if net.coords[n] == (4000.0, 300.0)][0]
    req = feeder_request(net, 0, 0.0, node, to_corridor=to_corridor)
    probe.requests = [req]
    assert resolve_service_plan(probe, req, 1.25, 600.0)
    best = enumerate_candidates(probe, req)[0]
    span = window_span(best.schedule)
    sc = Scenario(n_vehicles=1, n_reserved=0,
                  limits=FeasibilityLimits(flex_window=span))
    w = World(net, sc, [req])
    w.vehicles = copy.deepcopy(probe.vehicles)
    w.now = probe.now
    cands = enumerate_candidates(w, req)
    assert cands
    assert (cands[0].pickup_idx, cands[0].dropoff_idx) == \
        (best.pickup_idx, best.dropoff_idx)
    _assert_same_round(w, copy.deepcopy(w), "exact window")


def _window_span_and_dwell():
    """The window span of a zone-0 vehicle just dispatched, and one full
    dwell, under the default scenario."""
    probe, net = make_world(n_vehicles=1)
    v = probe.dispatch_vehicle(0, 0)
    p = probe.params
    return window_span(v.schedule), p.dwell_base + p.dwell_per_pax


def _window_world(flex_window):
    """That vehicle under ``flex_window``, with an outbound and an inbound
    rider at a mainline node between the window's fixed stop and its
    turnaround, so that a new stop there delays the window by one dwell."""
    sc = Scenario(n_vehicles=1, n_reserved=0,
                  limits=FeasibilityLimits(flex_window=flex_window))
    net = sc.network()
    flex = net.nearest_mainline_node(4000)
    w = World(net, sc, [feeder_request(net, 0, 0.0, flex),
                        feeder_request(net, 1, 0.0, flex, to_corridor=False)])
    w.dispatch_vehicle(0, 0)
    for req in w.requests:
        assert resolve_service_plan(w, req, 1.25, 600.0)
    return w


@pytest.mark.parametrize("ulps_under", [0, 1])
def test_window_slack_of_one_dwell_still_accepts_the_insertion(ulps_under):
    # slack of exactly one dwell, and one float step under it (the screen's
    # margin absorbs it, as the exact check's EPS does): the placement
    # delaying the window by one dwell fills it and is accepted
    span0, dwell = _window_span_and_dwell()
    flex_window = span0 + dwell
    for _ in range(ulps_under):
        flex_window = math.nextafter(flex_window, -math.inf)
    w = _window_world(flex_window)
    best = enumerate_candidates(w, w.requests[0])[0]
    assert window_span(best.schedule) == \
        pytest.approx(span0 + dwell, rel=0, abs=1e-9)
    _assert_same_round(w, copy.deepcopy(w), "slack of one dwell")
    assert [r.state for r in w.requests] == [RequestState.ASSIGNED,
                                             RequestState.PENDING]


def _count_window_looks(monkeypatch, counts):
    # the window screen in _ranked_placements asks for free_stop_min once per
    # window it looks into position by position; a rider at a fixed stop
    # (none here) asks too, and nothing else in enumerate_candidates does
    # before a candidate is built
    _count_calls(monkeypatch, fleet.Vehicle, "free_stop_min", counts,
                 "looks")


def test_window_short_of_one_dwell_builds_no_flexible_schedule(monkeypatch):
    # slack one dwell minus 1 ms: no new stop fits, so the window is not
    # even looked into, nothing is built, and the round equals the oracle's
    span0, dwell = _window_span_and_dwell()
    w = _window_world(span0 + dwell - 1e-3)
    counts = {"built": 0, "looks": 0}
    _count_calls(monkeypatch, matching, "retime", counts, "built")
    _count_window_looks(monkeypatch, counts)
    for req in w.requests:
        assert enumerate_candidates(w, req) == []
    assert counts == {"built": 0, "looks": 0}
    _assert_same_round(w, copy.deepcopy(w), "slack short of one dwell")
    assert all(r.state is RequestState.PENDING for r in w.requests)


def test_window_slack_screen_is_strict_at_its_limit(monkeypatch):
    # a window whose span plus one dwell lands exactly on the screen's limit
    # is still looked into position by position
    span0, dwell = _window_span_and_dwell()
    flex_window = span0 + dwell - matching.EPS - matching.SCREEN_MARGIN
    for _ in range(200):
        limit = flex_window + matching.EPS + matching.SCREEN_MARGIN
        if limit == span0 + dwell:
            break
        flex_window = math.nextafter(
            flex_window, math.inf if limit < span0 + dwell else -math.inf)
    assert limit == span0 + dwell
    w = _window_world(flex_window)
    counts = {"looks": 0}
    _count_window_looks(monkeypatch, counts)
    matching._ranked_placements(w, w.requests[0])
    assert counts["looks"] == 1


@pytest.mark.parametrize("stop", ["flexible", "fixed"])
@pytest.mark.parametrize("bound", ["wait", "ride"])
@pytest.mark.parametrize("to_corridor", [True, False])
def test_rider_bound_met_exactly_still_accepts_the_insertion(to_corridor,
                                                             bound, stop):
    # the new rider's wait or ride bound set to exactly what its best
    # insertion gives: the rider screen's bound meets the limit and must let
    # that insertion through; a loose wait bound lets the probe find an
    # inbound fixed-stop rider's boarding on the way back
    sc = Scenario(n_vehicles=1, n_reserved=0,
                  limits=FeasibilityLimits(max_wait=3600.0))
    net = sc.network()
    probe = World(net, sc, [])
    probe.dispatch_vehicle(0, 0)
    if not to_corridor:
        for _ in range(5):      # past boarding: inbound riders only
            probe.advance_step()
    node = ([n for n in range(net.n_nodes)
             if net.coords[n] == (4000.0, 300.0)][0] if stop == "flexible"
            else net.nearest_mainline_node(800))
    req = feeder_request(net, 0, 0.0, node, to_corridor=to_corridor)
    probe.requests = [req]
    assert resolve_service_plan(probe, req, 1.25, 600.0)
    assert req.served_at_fixed_stop == (stop == "fixed")
    best = enumerate_candidates(probe, req)[0]
    pickup, dropoff = fleet.walk(best.schedule, net, 0, 0)[0][req.id]
    lim = probe.params.limits
    if bound == "wait":
        lim = dataclasses.replace(lim, max_wait=pickup - req.t_r)
    else:
        # a unit factor keeps the slack positive: the ride passes at least
        # one dwell on top of the direct time
        direct = net.travel_time(req.pickup_node, req.dropoff_node)
        lim = dataclasses.replace(lim, detour_factor=1.0,
                                  detour_slack=dropoff - pickup - direct)
        assert lim.max_ride(direct) == pytest.approx(dropoff - pickup,
                                                     rel=0, abs=1e-9)
    w = World(net, Scenario(n_vehicles=1, n_reserved=0, limits=lim), [req])
    w.vehicles = copy.deepcopy(probe.vehicles)
    w.now = probe.now
    cands = enumerate_candidates(w, req)
    assert cands
    assert (cands[0].pickup_idx, cands[0].dropoff_idx) == \
        (best.pickup_idx, best.dropoff_idx)
    _assert_same_round(w, copy.deepcopy(w), "exact " + bound)
    assert req.state is RequestState.ASSIGNED


@pytest.mark.parametrize("bound", ["wait", "ride"])
def test_unmeetable_rider_bound_builds_no_schedule(bound, monkeypatch):
    # no placement meets the new rider's own bound, at a fixed stop or a
    # flexible one, outbound or inbound: every placement is screened out
    # unbuilt, and the round still equals the oracle's
    limits = (FeasibilityLimits(max_wait=100.0) if bound == "wait" else
              FeasibilityLimits(detour_factor=1.0, detour_slack=10.0))
    sc = Scenario(n_vehicles=2, n_reserved=0, limits=limits)
    net = sc.network()
    flex = net.nearest_mainline_node(4000)
    fixed = net.nearest_mainline_node(800)
    reqs = [feeder_request(net, 0, 0.0, flex),
            feeder_request(net, 1, 0.0, flex, to_corridor=False),
            feeder_request(net, 2, 0.0, fixed),
            feeder_request(net, 3, 0.0, fixed, to_corridor=False)]
    w = World(net, sc, reqs)
    w.dispatch_vehicle(0, 0)
    w.dispatch_vehicle(1, 2)
    built = {"n": 0}
    _count_calls(monkeypatch, matching, "retime", built, "n")
    for req in reqs:
        assert resolve_service_plan(w, req, 1.25, 600.0)
        assert enumerate_candidates(w, req) == []
    assert built["n"] == 0
    _assert_same_round(w, copy.deepcopy(w), "unmeetable " + bound)
    assert all(r.state is RequestState.PENDING for r in w.requests)


@given(seed=st.integers(0, 10**6), n_vehicles=st.integers(1, 4),
       requests=st.tuples(st.integers(1, 30), st.integers(0, 15)))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_one_round_equals_the_oracle_on_random_worlds(net, seed, n_vehicles,
                                                      requests):
    low, extra = requests
    world = random_mini_world(seed, net, max_vehicles=n_vehicles,
                              min_requests=low, max_requests=low + extra)
    _assert_same_round(world, copy.deepcopy(world), seed)


def _assert_exact_rank_estimates(world, request, since=-1):
    """Every placement that passes the screens has a rank estimate within
    ``RANK_MARGIN / 1000`` of the rank of the schedule it builds; returns
    how many there are."""
    placements = matching._ranked_placements(world, request, since)
    for est, vid, idx, new in placements:
        v = world.vehicles[vid]
        sched = matching._build(world, request, v, idx, new)[0]
        rank = (matching.schedule_cost_terms(world, sched)[0]
                - matching.schedule_cost_terms(world, v.schedule)[0])
        assert abs(est - rank) <= matching.RANK_MARGIN / 1000, (est, rank)
    return len(placements)


@given(seed=st.integers(0, 10**6), n_vehicles=st.integers(1, 4),
       capacity=st.integers(1, 20), flex_window=st.floats(900.0, 1800.0))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_rank_estimates_are_exact_on_loaded_random_worlds(net, seed,
                                                          n_vehicles,
                                                          capacity,
                                                          flex_window):
    # over loaded rounds with small vehicles and tight or loose windows,
    # every screened placement's estimate is its built rank, and building
    # only what can win still gives the oracle's round
    world = random_mini_world(seed, net, max_vehicles=n_vehicles,
                              min_requests=20, max_requests=40,
                              capacity=capacity, flex_window=flex_window)
    enumerate_built = matching.enumerate_candidates

    def checked(world, request, since=-1, near=None):
        _assert_exact_rank_estimates(world, request, since)
        return enumerate_built(world, request, since, near)

    twin = copy.deepcopy(world)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matching, "enumerate_candidates", checked)
        _assert_same_round(world, twin, seed)


def _solo(world, vid):
    """A shallow copy of ``world`` in which only vehicle ``vid`` (the very
    object) holds a schedule, so that matching examines no other."""
    solo = copy.copy(world)
    solo.vehicles = [v if v.id == vid else dataclasses.replace(v, schedule=[])
                     for v in world.vehicles]
    return solo


@given(seed=st.integers(0, 10**6), n_vehicles=st.integers(1, 3),
       capacity=st.integers(1, 20), flex_window=st.floats(900.0, 1800.0),
       data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_an_insertion_never_makes_a_refused_placement_fit(net, seed,
                                                          n_vehicles,
                                                          capacity,
                                                          flex_window, data):
    # the retry memo's premise (module docstring): a request with no
    # feasible placement on a vehicle, and no near miss there, still has
    # none after any feasible insertions of other requests into it
    world = random_mini_world(seed, net, max_vehicles=n_vehicles,
                              min_requests=20, max_requests=40,
                              capacity=capacity, flex_window=flex_window)
    walk = walk_of(world.params)
    reqs = [r for r in world.requests
            if resolve_service_plan(world, r, **walk)]
    for v in world.vehicles:
        if not v.schedule:
            continue
        solo = _solo(world, v.id)
        refused, pool = [], []
        for r in reqs:
            near = set()
            fits = enumerate_candidates(solo, r, -1, near)
            (pool if fits or near else refused).append(r)
        for _ in range(data.draw(st.integers(1, 3))):
            with pytest.MonkeyPatch.context() as mp:
                # build every screened placement, not only those that can win
                mp.setattr(matching, "RANK_MARGIN", math.inf)
                insertions = [(r, c) for r in pool
                              for c in enumerate_candidates(solo, r)]
            if not insertions:
                break
            r, cand = data.draw(st.sampled_from(insertions))
            pool.remove(r)
            world.set_schedule(v, cand.schedule)
            for q in refused:
                assert not enumerate_candidates(solo, q), (v.id, r.id, q.id)


@given(sc=scenarios(), seed=st.integers(0, 10**4))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_a_fixed_route_plan_serves_at_stops_only(sc, seed):
    # so no fixed-route rider reaches the door-to-door placements
    world = build_world(sc, PolicyKind.FIXED_ROUTE, seed)
    term = world.net.terminus
    for r in world.requests:
        if resolve_service_plan(world, r, **walk_of(sc)):
            node = r.dropoff_node if r.pickup_node == term else r.pickup_node
            assert node == term or node in world.fixed_stop_set, r.id


def test_a_feasible_cheapest_placement_is_the_only_one_built(monkeypatch):
    # a zone-1 rider has two window positions; the cheaper one is feasible,
    # so the dearer one is ranked but never built
    w, net = make_world(n_vehicles=1)
    w.dispatch_vehicle(0, 1)
    req = feeder_request(net, 0, 0.0, net.nearest_mainline_node(2000))
    w.requests = [req]
    assert resolve_service_plan(w, req, 1.25, 600.0)
    assert _assert_exact_rank_estimates(w, req) == 2
    built = {"n": 0}
    _count_calls(monkeypatch, matching, "retime", built, "n")
    cands = enumerate_candidates(w, req)
    assert built["n"] == 1
    assert len(cands) == 1
    _assert_same_round(w, copy.deepcopy(w), "cheapest feasible")


def test_a_full_cheapest_vehicle_gives_way_to_the_next(monkeypatch):
    # vehicle 0, dispatched first, would drop the rider soonest but its two
    # seats are taken; vehicle 1's placement ranks next, is built and wins
    sc = Scenario(n_vehicles=2, n_reserved=0, capacity=2)
    net = sc.network()
    stop = net.nearest_mainline_node(800)
    reqs = [feeder_request(net, i, 0.0, stop) for i in range(2)]
    w = World(net, sc, reqs)
    w.dispatch_vehicle(0, 0)
    assert match_step(w, **walk_of(sc)).assigned == [(0, 0), (1, 0)]
    w.advance_step()
    w.dispatch_vehicle(1, 0)
    req = feeder_request(net, 2, w.now, stop)
    w.requests = reqs + [req]
    assert resolve_service_plan(w, req, 1.25, 600.0)
    placements = matching._ranked_placements(w, req)
    assert [p[1] for p in placements] == [0, 1]
    assert placements[0][0] < placements[1][0]
    built = {"n": 0}
    _count_calls(monkeypatch, matching, "retime", built, "n")
    cands = enumerate_candidates(w, req)
    assert built["n"] == 2
    assert [c.vehicle_id for c in cands] == [1]
    _assert_same_round(w, copy.deepcopy(w), "full cheapest vehicle")


def test_placements_within_the_margin_are_built_and_tie_on_vehicle_id(
        monkeypatch):
    # two twin vehicles, the second one's times 1 ns earlier: its estimate
    # is lower by far less than RANK_MARGIN, so it is built first, the
    # first twin is built too, their delta_rho tie, and vehicle 0 wins
    w, net = make_world()
    w.dispatch_vehicle(0, 0)
    v1 = w.dispatch_vehicle(1, 0)
    earlier = [s.clone() for s in v1.schedule]
    for s in earlier:
        s.arrival -= 1e-9
        s.departure -= 1e-9
    w.set_schedule(v1, earlier)
    req = feeder_request(net, 0, 0.0, net.nearest_mainline_node(2000))
    w.requests = [req]
    assert resolve_service_plan(w, req, 1.25, 600.0)
    first, second = matching._ranked_placements(w, req)[:2]
    assert (first[1], second[1]) == (1, 0)
    assert 0 < second[0] - first[0] < matching.RANK_MARGIN
    built = {"n": 0}
    _count_calls(monkeypatch, matching, "retime", built, "n")
    cands = enumerate_candidates(w, req)
    assert built["n"] == 2
    assert [(c.vehicle_id, c.dropoff_idx) for c in cands] == \
        [(0, first[2]), (1, first[2])]
    assert cands[0].delta_rho == cands[1].delta_rho
    assert match_step(w, **walk_of(w.params)).assigned == [(0, 0)]


@pytest.mark.parametrize("pickup_x,dropoff_x", [(2000, 4000), (800, 2000),
                                                (2000, 800), (400, 800)])
def test_plan_without_terminus_endpoint_rejected(pickup_x, dropoff_x):
    w, net = make_world()
    a = net.nearest_mainline_node(pickup_x)
    b = net.nearest_mainline_node(dropoff_x)
    req = Request(id=0, t_r=0.0, origin=a, destination=b)
    with pytest.raises(ValueError, match="terminus"):
        w.requests = [req]
    assert w.requests == []


def test_terminus_to_terminus_plan_is_served():
    # a fixed-segment endpoint as close to the terminus as to the first stop
    # snaps to the terminus, so both service points are the terminus; the
    # rider stays aboard the whole cycle, which the default 300 s ride bound
    # for a zero direct time forbids, so the slack is widened here
    sc = Scenario(n_vehicles=1, n_reserved=0,
                  limits=FeasibilityLimits(detour_slack=3600.0))
    net = sc.network()
    w = World(net, sc, [])
    v = w.dispatch_vehicle(0, 0)
    req = feeder_request(net, 0, 0.0, net.nearest_mainline_node(200))
    w.requests = [req]
    assert resolve_service_plan(w, req, 1.25, 600.0)
    assert req.pickup_node == req.dropoff_node == net.terminus
    cands = enumerate_candidates(w, req)
    last = len(v.schedule) - 1
    assert [(c.pickup_idx, c.dropoff_idx) for c in cands] == [(0, last)]
    assert match_step(w, **walk_of(w.params)).assigned == [(0, 0)]


def _scaled_demand(factor):
    sc = Scenario()
    d = sc.demand
    return dataclasses.replace(sc, demand=dataclasses.replace(
        d, base_rate=d.base_rate * factor, end_rate=d.end_rate * factor))


MEMO_SCENARIOS = {
    "default_3x": lambda: _scaled_demand(3.0),
    "small_fleet": lambda: Scenario(n_vehicles=4, n_reserved=2, capacity=6),
    "no_side_streets": lambda: Scenario(corridor=CorridorSpec(side_depth=0)),
}


def _schedules(world):
    return [[(s.node, s.kind, s.board, s.alight, s.arrival, s.departure)
             for s in v.schedule] for v in world.vehicles]


@pytest.mark.parametrize("kind", [PolicyKind.SOD, PolicyKind.NOMINAL_ZONAL])
@pytest.mark.parametrize("case", list(MEMO_SCENARIOS))
def test_retry_memo_never_changes_a_round(case, kind, monkeypatch):
    # every round of a full episode equals the round a deep-copied twin
    # runs with the retry memo emptied, so every insertion is rebuilt; the
    # memo skips a retry whole when no vehicle was dispatched since it, and
    # otherwise each vehicle not dispatched since, whatever it took meanwhile
    sc = MEMO_SCENARIOS[case]()
    net = sc.network()
    world = build_world(sc, kind, 0, net=net)
    ctrl = DispatchController(world, kind, sc.dispatch)
    walk = walk_of(sc)
    skipped = {"request": 0, "vehicle": 0}
    enumerate_all = matching.enumerate_candidates

    def counted(world, request, since=-1, near=None):
        skipped["vehicle"] += sum(1 for v in world.vehicles
                                  if v.schedule and v.dispatched <= since)
        return enumerate_all(world, request, since, near)

    monkeypatch.setattr(matching, "enumerate_candidates", counted)
    for step in range(sc.n_steps):
        ctrl.baseline_dispatch()
        twin = copy.deepcopy(world, {id(net): net})
        twin.no_fit = {}
        memo, dispatches = dict(world.no_fit), world.dispatches
        assert match_step(world, **walk) == match_step(twin, **walk), step
        assert _schedules(world) == _schedules(twin), step
        assert set(world.no_fit) == {r.id for r in world.pending_requests()}
        # a retry skipped whole is one whose memo is the dispatch count
        skipped["request"] += sum(1 for rid in world.no_fit
                                  if memo.get(rid) == dispatches)
        world.advance_step()
    assert skipped["request"] > 0 and skipped["vehicle"] > 0, skipped


@pytest.mark.parametrize("miss,memo", [(1e-9, 0), (1e-3, 1)])
def test_a_near_miss_retries_every_vehicle(miss, memo, monkeypatch):
    # a request whose shortest ride breaks its bound by less than
    # SCREEN_MARGIN, which round-off in a later insertion could undo, keeps
    # the memo 0; a wider miss keeps the dispatch count
    w, net = make_world(n_vehicles=1)
    w.dispatch_vehicle(0, 0)
    node = net.nearest_mainline_node(2000)
    req = feeder_request(net, 0, 0.0, node)
    w.requests = [req]
    assert resolve_service_plan(w, req, 1.25, 600.0)
    with monkeypatch.context() as mp:
        mp.setattr(matching, "RANK_MARGIN", math.inf)    # build them all
        ride = min(c.schedule[c.dropoff_idx].arrival - c.schedule[0].departure
                   for c in enumerate_candidates(w, req))
    slack = ride - miss - EPS - req.direct_time
    sc = Scenario(n_vehicles=1, n_reserved=0, limits=FeasibilityLimits(
        detour_factor=1.0, detour_slack=slack))
    w = World(net, sc, [feeder_request(net, 0, 0.0, node)])
    w.dispatch_vehicle(0, 0)
    assert match_step(w, **walk_of(sc)).pending == [0]
    assert w.no_fit == {0: memo}
    near = set()
    assert enumerate_candidates(w, w.requests[0], -1, near) == []
    assert near == ({0} if memo == 0 else set())


def _run_episode(sc, kind, seed=0):
    """One whole episode of ``kind`` under ``sc``; the RL policy takes a
    fixed cycle of actions.  Returns the world."""
    if kind is not PolicyKind.RL_ZONAL:
        return run_simulation(sc, kind, seed)[1]
    env = ZonalDispatchEnv(sc)
    env.reset(seed)
    while not env.done:
        env.step(env.t % N_ACTIONS)
    return env.world


def _stop_record(schedule):
    return [(s.node, s.kind, list(s.board), list(s.alight), s.arrival,
             s.departure) for s in schedule]


@pytest.mark.parametrize("kind,case", [(k, "default") for k in PolicyKind]
                         + [(PolicyKind.SOD, c) for c in MEMO_SCENARIOS])
def test_committed_stops_are_never_mutated(kind, case, monkeypatch):
    # every stop of a stored schedule keeps the values it was stored with,
    # until the schedule is replaced and to the episode's end; a candidate
    # holds its vehicle's very stops before the insertion point and copies
    # of the rest (and of stop 0, for an outbound rider)
    sc = Scenario() if case == "default" else MEMO_SCENARIOS[case]()
    stored = {}
    store = World.set_schedule

    def recording(world, vehicle, schedule):
        if vehicle.id in stored:
            old, record = stored[vehicle.id]
            assert _stop_record(old) == record
        stored[vehicle.id] = (schedule, _stop_record(schedule))
        store(world, vehicle, schedule)

    shared = {"stops": 0}
    enumerate_all = matching.enumerate_candidates

    def checked(world, request, since=-1, near=None):
        cands = enumerate_all(world, request, since, near)
        for cand in cands:
            base = world.vehicles[cand.vehicle_id].schedule
            outbound = cand.pickup_idx == 0
            idx = cand.dropoff_idx if outbound else cand.pickup_idx
            first = 1 if outbound else 0
            assert all(a is b for a, b in zip(cand.schedule[first:idx],
                                              base[first:idx]))
            copies = cand.schedule[idx:] + cand.schedule[:first]
            assert not {id(s) for s in copies} & {id(s) for s in base}
            shared["stops"] += idx - first
        return cands

    monkeypatch.setattr(World, "set_schedule", recording)
    monkeypatch.setattr(matching, "enumerate_candidates", checked)
    _run_episode(sc, kind)
    for schedule, record in stored.values():
        assert _stop_record(schedule) == record
    assert shared["stops"] > 0


def _fresh_base_terms(world):
    """Asserts that every vehicle's cached base terms equal a fresh
    ``schedule_cost_terms`` of its schedule; returns how many there are."""
    fresh = 0
    for v in world.vehicles:
        if v.terms is not None:
            assert v.terms == matching.schedule_cost_terms(world, v.schedule)
            fresh += 1
    return fresh


def _base_terms(world):
    return [v.terms for v in world.vehicles]


@pytest.mark.parametrize("case", ["default", "default_3x"])
def test_cached_base_terms_equal_a_fresh_sum(case, monkeypatch):
    # at every step, and across a snapshot and restore, the base terms kept
    # from a winning candidate equal the schedule's own cost terms exactly,
    # and every vehicle that won a rider keeps them
    sc = Scenario() if case == "default" else MEMO_SCENARIOS[case]()
    assigned = []
    run_match = env_module.match_step

    def recorded(*args, **kwargs):
        rep = run_match(*args, **kwargs)
        assigned.extend(vid for _, vid in rep.assigned)
        return rep

    monkeypatch.setattr(env_module, "match_step", recorded)
    env = ZonalDispatchEnv(sc)
    env.reset(1)
    fresh = 0
    while not env.done:
        assigned.clear()
        env.step(env.t % N_ACTIONS)
        fresh += _fresh_base_terms(env.world)
        world = env.world
        for vid in assigned:
            v = world.vehicles[vid]
            assert v.terms is not None or not v.schedule
        if env.t == 40:
            snap = snapshot(env)
            want = _base_terms(env.world)
            for _ in range(8):
                env.step(1)
            assert _base_terms(env.world) != want
            restore(env, snap)
            assert _base_terms(env.world) == want
            fresh += _fresh_base_terms(env.world)
    assert fresh > 0
