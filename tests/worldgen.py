"""Random small worlds for matching equivalence checks."""

import numpy as np

from sodfeeder.demand import Request
from sodfeeder.dispatch import PolicyKind
from sodfeeder.matching import match_step
from sodfeeder.scenario import Scenario
from sodfeeder.sim import World


def random_mini_world(seed, net, max_vehicles=2, max_requests=5):
    """A small in-flight world with pending requests, ready for one
    matching round."""
    rng = np.random.default_rng(seed)
    sc = Scenario(n_vehicles=max_vehicles, n_reserved=0)
    policy = PolicyKind.FIXED_ROUTE if rng.random() < 0.2 else PolicyKind.SOD
    world = World(net, sc, [], fixed_only=policy.fixed_only)

    n_dispatched = int(rng.integers(1, max_vehicles + 1))
    for vid in range(n_dispatched):
        world.dispatch_vehicle(vid, int(rng.integers(0, 3)))

    # let some vehicles get under way so committed anchors vary
    for _ in range(int(rng.integers(0, 11))):
        world.advance_step()

    n_req = int(rng.integers(1, max_requests + 1))
    nodes = [n for n in range(net.n_nodes) if n != net.terminus]
    requests = []
    for rid in range(n_req):
        node = int(rng.choice(nodes))
        t_r = float(rng.uniform(max(0.0, world.now - 1000.0), world.now))
        if rng.random() < 0.5:
            o, d = net.terminus, node
        else:
            o, d = node, net.terminus
        requests.append(Request(
            id=rid, t_r=t_r, origin=o, destination=d,
            origin_segment=net.labels[o],
            destination_segment=net.labels[d]))
    requests.sort(key=lambda r: r.t_r)
    for i, r in enumerate(requests):
        r.id = i
    world.requests = requests
    return world


def run_production_match(world):
    rep = match_step(world)
    return {"assigned": rep.assigned, "rejected": sorted(rep.rejected),
            "pending": sorted(rep.pending)}
