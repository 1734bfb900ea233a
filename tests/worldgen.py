"""Random small worlds for matching equivalence checks, and the helpers
that undo an observation's scaling and copy an environment's episode."""

import copy

import numpy as np

from sodfeeder.costs import FeasibilityLimits
from sodfeeder.demand import Request
from sodfeeder.dispatch import PolicyKind
from sodfeeder.env import bounds
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


def run_production_match(world):
    rep = match_step(world, **walk_of(world.params))
    return {"assigned": rep.assigned, "rejected": sorted(rep.rejected),
            "pending": sorted(rep.pending)}


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
