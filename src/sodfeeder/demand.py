"""Seeded synthetic feeder demand and the rolling demand forecast.

Requests are feeder trips: exactly one endpoint is the terminus.  Arrival
times follow a time-inhomogeneous Poisson process whose rate interpolates
linearly from a base rate at the start of the horizon to an end rate at the
end (off-peak demand tapering).  The non-terminus endpoint is sampled over
corridor nodes with a weight that decays linearly in the walking time to the
mainline, zero beyond the walk cap.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corridor import Segment


class RequestState(Enum):
    PENDING = "pending"
    ASSIGNED = "assigned"
    RIDING = "riding"
    SERVED = "served"
    REJECTED = "rejected"


# the legal lifecycle moves; SERVED and REJECTED are final
_NEXT_STATES = {
    RequestState.PENDING: (RequestState.ASSIGNED, RequestState.REJECTED),
    RequestState.ASSIGNED: (RequestState.RIDING,),
    RequestState.RIDING: (RequestState.SERVED,),
    RequestState.SERVED: (),
    RequestState.REJECTED: (),
}


@dataclass
class Request:
    id: int
    t_r: float
    origin: int
    destination: int
    state: RequestState = RequestState.PENDING
    # filled by matching (the service plan, by resolve_service_plan) and by
    # the simulation
    vehicle: int | None = None
    pickup_node: int | None = None
    dropoff_node: int | None = None
    pickup_time: float | None = None
    dropoff_time: float | None = None
    access_time: float = 0.0        # t^A, walking to/from snapped stops
    direct_time: float | None = None  # t^D between the service nodes
    served_at_fixed_stop: bool = False

    def transition(self, new_state):
        if new_state not in _NEXT_STATES[self.state]:
            raise ValueError("illegal lifecycle transition %s -> %s"
                             % (self.state, new_state))
        self.state = new_state


@dataclass(frozen=True)
class DemandProfile:
    base_rate: float = 60.0       # requests/hour at horizon start
    end_rate: float = 20.0        # requests/hour at horizon end
    direction_split: float = 0.5  # fraction of requests departing the terminus
    walk_cap: float = 600.0       # seconds; weight zero beyond this walk time
    walk_speed: float = 1.25      # m/s

    def __post_init__(self):
        for name in ("base_rate", "end_rate"):
            if not getattr(self, name) >= 0:
                raise ValueError("demand.%s must be non-negative" % name)
        if not 0.0 <= self.direction_split <= 1.0:
            raise ValueError("demand.direction_split must lie in [0, 1]")
        for name in ("walk_cap", "walk_speed"):
            if not getattr(self, name) > 0:
                raise ValueError("demand.%s must be positive" % name)

    def rate_at(self, t, horizon):
        """Instantaneous rate in requests/second at time t of the horizon."""
        if t < 0 or t > horizon:
            return 0.0
        frac = t / horizon if horizon > 0 else 0.0
        per_hour = self.base_rate + (self.end_rate - self.base_rate) * frac
        return per_hour / 3600.0


def endpoint_weights(net, profile):
    """Sampling weight per node: w(x) = max(0, 1 - walk_to_mainline / cap).

    The terminus never hosts the non-terminus endpoint.
    """
    w = np.zeros(net.n_nodes)
    for nid in range(net.n_nodes):
        if nid == net.terminus:
            continue
        wt = net.walk_time_to_mainline(nid, profile.walk_speed)
        w[nid] = max(0.0, 1.0 - wt / profile.walk_cap)
    return w


# Memos of pure functions of a network and a demand profile.  A ``Network``
# is built only by ``build_corridor`` from its frozen ``spec``, so the spec
# stands for the network in a key.  Each memo keeps its MEMO_SIZE newest
# entries, and no caller gets a value it could change: the trips are tuples,
# and ``segment_shares`` returns a copy.
MEMO_SIZE = 8
_tables = {}   # (spec, profile) -> (endpoint CDF list or None, segment shares)
_trips = {}    # (spec, profile, horizon, seed) -> ((t_r, origin, dest), ...)


def _memo(table, key, make):
    """``table[key]``, made by ``make()`` on a miss."""
    value = table.get(key)
    if value is None:
        value = make()
        if len(table) >= MEMO_SIZE:
            del table[next(iter(table))]
        table[key] = value
    return value


def _endpoint_table(net, profile):
    """The cumulative endpoint table that numpy's ``Generator.choice(p=...)``
    searches, as a list (None when every weight is zero), and the segment
    shares of the same weights."""
    weights = endpoint_weights(net, profile)
    total = weights.sum()
    shares = {seg: 0.0 for seg in Segment}
    if total <= 0:
        return None, shares
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    for nid in range(net.n_nodes):
        shares[net.labels[nid]] += weights[nid] / total
    return cdf.tolist(), shares


def _draw_trips(net, profile, horizon, seed):
    """The (t_r, origin, destination) of each request of one instance."""
    cdf = _memo(_tables, (net.spec, profile),
                lambda: _endpoint_table(net, profile))[0]
    rate_max = max(profile.base_rate, profile.end_rate) / 3600.0
    if cdf is None or rate_max <= 0:
        return ()
    rng = np.random.default_rng(seed)
    exponential, random = rng.exponential, rng.random
    rate_at, split = profile.rate_at, profile.direction_split
    scale = 1.0 / rate_max
    term = net.terminus
    trips = []
    t = 0.0
    while True:
        t += exponential(scale)
        if t >= horizon:
            return tuple(trips)
        if random() > rate_at(t, horizon) / rate_max:
            continue
        # bisect_right on the list finds searchsorted(side="right")'s index
        node = bisect_right(cdf, random())
        if random() < split:
            trips.append((t, term, node))
        else:
            trips.append((t, node, term))


def generate_instance(net, profile, horizon, seed):
    """Generate one seeded request stream, sorted by request time.

    The arrival process is inhomogeneous Poisson (thinning against the peak
    rate).  Exactly one endpoint of every request is the terminus.  The
    drawn trips are memoized by (``net.spec``, ``profile``, ``horizon``,
    ``seed``), so the policies of a paired comparison draw a seed's demand
    once; ``seed`` is therefore an int, which fixes the draw.  Every call
    returns new ``Request`` objects.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    trips = _memo(_trips, (net.spec, profile, horizon, seed),
                  lambda: _draw_trips(net, profile, horizon, seed))
    return [Request(i, t, o, d) for i, (t, o, d) in enumerate(trips)]


def segment_shares(net, profile):
    """Stationary probability that a request's non-terminus endpoint lies in
    each segment, under the generator's node weights."""
    return dict(_memo(_tables, (net.spec, profile),
                      lambda: _endpoint_table(net, profile))[1])


def forecast_demand(profile, horizon, now, window):
    """Analytic expected request count in [now, now+window].

    This is a perfect-information forecast of the generator mean (not of the
    realized sample); ``segment_shares`` apportions it by category.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    a = min(max(now, 0.0), horizon)
    b = min(now + window, horizon)
    if b <= a:
        return 0.0
    # linear rate: integrate trapezoidally (exact)
    return 0.5 * (profile.rate_at(a, horizon) + profile.rate_at(b, horizon)) * (b - a)


def dump_requests_csv(requests, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "t_r", "origin", "destination"])
        for r in requests:
            w.writerow([r.id, r.t_r, r.origin, r.destination])

