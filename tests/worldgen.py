"""Random small worlds for matching equivalence checks, random scenarios
for whole-episode checks, and the helpers that list a world's free vehicles,
do and undo an observation's scaling and copy an environment's episode."""

import copy
import dataclasses

import numpy as np
from hypothesis import strategies as st

from sodfeeder.corridor import CorridorSpec
from sodfeeder.costs import FeasibilityLimits
from sodfeeder.demand import Request
from sodfeeder.dispatch import DispatchConfig, PolicyKind
from sodfeeder.fleet import VehicleStatus
from sodfeeder.matching import match_step
from sodfeeder.scenario import Scenario
from sodfeeder.sim import World


def walk_of(scenario):
    """The walking keywords ``match_step`` takes, from ``scenario``."""
    return {"walk_speed": scenario.demand.walk_speed,
            "walk_cap": scenario.demand.walk_cap}


def random_mini_world(seed, net, max_vehicles=2, max_requests=5,
                      min_requests=1, capacity=20, flex_window=1200.0):
    """A small in-flight world with pending requests, ready for one
    matching round.  A large ``min_requests`` loads the round so that
    flexible windows fill up; a small ``capacity`` or ``flex_window`` makes
    vehicles and windows fill sooner."""
    rng = np.random.default_rng(seed)
    sc = Scenario(n_vehicles=max_vehicles, n_reserved=0, capacity=capacity,
                  limits=FeasibilityLimits(flex_window=flex_window))
    policy = PolicyKind.FIXED_ROUTE if rng.random() < 0.2 else PolicyKind.SOD
    world = World(net, sc, [], fixed_only=policy.fixed_only)

    n_dispatched = int(rng.integers(1, max_vehicles + 1))
    for vid in range(n_dispatched):
        world.dispatch_vehicle(vid, int(rng.integers(0, 3)))

    # let some vehicles get under way so committed anchors vary
    for _ in range(int(rng.integers(0, 11))):
        world.advance_step()

    n_req = int(rng.integers(min_requests, max_requests + 1))
    nodes = [n for n in range(net.n_nodes) if n != net.terminus]
    requests = []
    for rid in range(n_req):
        node = int(rng.choice(nodes))
        t_r = float(rng.uniform(max(0.0, world.now - 1000.0), world.now))
        if rng.random() < 0.5:
            o, d = net.terminus, node
        else:
            o, d = node, net.terminus
        requests.append(Request(id=rid, t_r=t_r, origin=o, destination=d))
    requests.sort(key=lambda r: r.t_r)
    for i, r in enumerate(requests):
        r.id = i
    world.requests = requests
    return world


@st.composite
def scenarios(draw, min_demand=0.1):
    """A random scenario for whole episodes: a fleet of 1-12 with any
    number reserved, capacity 1-20, a corridor with or without side
    streets, fixed stops 200-1200 m apart, the default demand scaled by
    ``min_demand``, 0.5, 1, 2 or 5 (ramped or falling to 0, all one way or
    split), the wait, detour and window limits, the headway, two
    normalization caps, and a 1 or 2 h horizon with no warm-up.  Each field
    takes one of a few values, so that draws share their networks and
    stay cheap."""
    sc = Scenario()
    fleet = draw(st.integers(1, 12))
    factor = draw(st.sampled_from([min_demand, 0.5, 1.0, 2.0, 5.0]))
    d = sc.demand
    demand = dataclasses.replace(
        d, base_rate=d.base_rate * factor,
        end_rate=draw(st.sampled_from([0.0, d.end_rate * factor])),
        direction_split=draw(st.sampled_from([0.0, 0.5, 1.0])))
    limits = FeasibilityLimits(
        max_wait=draw(st.sampled_from([300.0, 900.0, 1800.0])),
        detour_factor=draw(st.sampled_from([1.5, 2.5])),
        flex_window=draw(st.sampled_from([600.0, 1200.0, 1800.0])))
    norm = dataclasses.replace(
        sc.norm, request_cap=draw(st.sampled_from([2.0, 20.0])),
        time_cap=draw(st.sampled_from([300.0, 1800.0])))
    side_depth = draw(st.sampled_from([0.0, 300.0]))
    return dataclasses.replace(
        sc, corridor=CorridorSpec(side_depth=side_depth), demand=demand,
        limits=limits, norm=norm,
        dispatch=DispatchConfig(
            full_headway=draw(st.sampled_from([180.0, 300.0, 600.0]))),
        horizon=draw(st.sampled_from([3600.0, 7200.0])), warmup=0.0,
        n_vehicles=fleet, n_reserved=draw(st.integers(0, fleet)),
        capacity=draw(st.integers(1, 20)),
        fixed_stop_spacing=draw(st.sampled_from([200.0, 400.0, 600.0,
                                                 1200.0])))


def run_production_match(world):
    rep = match_step(world, **walk_of(world.params))
    return {"assigned": rep.assigned, "rejected": sorted(rep.rejected),
            "pending": sorted(rep.pending)}


def available_vehicles(world, fleet_class=None):
    """The vehicles at the terminus, of ``fleet_class`` unless it is None,
    in id order."""
    out = [v for v in world.vehicles
           if v.status == VehicleStatus.AT_TERMINUS]
    if fleet_class is not None:
        out = [v for v in out if v.fleet_class == fleet_class]
    return out


def bounds(ranges):
    """Arrays ``lo`` and ``hi - lo`` of a list of (min, max) ranges."""
    lo = np.array([r[0] for r in ranges], dtype=float)
    hi = np.array([r[1] for r in ranges], dtype=float)
    if np.any(hi <= lo):
        raise ValueError("every range needs min < max")
    return lo, hi - lo


def normalize(raw, ranges):
    """Elementwise (x - min) / (max - min), clamped to [0, 1]."""
    lo, span = bounds(ranges)
    return np.clip((np.asarray(raw, dtype=float) - lo) / span, 0.0, 1.0)


def denormalize(x, ranges):
    """The raw features of a normalized observation (unclamped ones)."""
    lo, span = bounds(ranges)
    return lo + np.asarray(x, dtype=float) * span


def snapshot(env):
    """A deep copy of ``env``'s episode state.  One deepcopy keeps the
    controller pointing at the copied world; the memo shares the immutable
    network instead of copying it."""
    return copy.deepcopy((env.world, env.controller, env.t, env.done),
                         {id(env.net): env.net})


def restore(env, snap):
    """Put ``env`` back in the state ``snap`` holds; ``snap`` stays usable."""
    env.world, env.controller, env.t, env.done = copy.deepcopy(
        snap, {id(env.net): env.net})
