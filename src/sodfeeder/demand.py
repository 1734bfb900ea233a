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


@dataclass
class Request:
    id: int
    t_r: float
    origin: int
    destination: int
    origin_segment: Segment
    destination_segment: Segment
    state: RequestState = RequestState.PENDING
    # filled by matching / simulation
    vehicle: int | None = None
    pickup_node: int | None = None
    dropoff_node: int | None = None
    assign_time: float | None = None
    pickup_time: float | None = None
    dropoff_time: float | None = None
    access_time: float = 0.0        # t^A, walking to/from snapped stops
    direct_time: float | None = None  # t^D between service nodes, set on assignment
    served_at_fixed_stop: bool = False

    def transition(self, new_state):
        allowed = {
            RequestState.PENDING: {RequestState.ASSIGNED, RequestState.REJECTED},
            RequestState.ASSIGNED: {RequestState.RIDING},
            RequestState.RIDING: {RequestState.SERVED},
        }
        if new_state not in allowed.get(self.state, set()):
            raise ValueError("illegal lifecycle transition %s -> %s"
                             % (self.state, new_state))
        self.state = new_state

    def nonterminus_segment(self, terminus):
        return (self.destination_segment if self.origin == terminus
                else self.origin_segment)


@dataclass
class DemandProfile:
    base_rate: float = 60.0       # requests/hour at horizon start
    end_rate: float = 20.0        # requests/hour at horizon end
    direction_split: float = 0.5  # fraction of requests departing the terminus
    walk_cap: float = 600.0       # seconds; weight zero beyond this walk time
    walk_speed: float = 1.25      # m/s

    def validate(self):
        if self.base_rate < 0 or self.end_rate < 0:
            raise ValueError("rates must be non-negative")
        if not 0.0 <= self.direction_split <= 1.0:
            raise ValueError("direction_split must lie in [0, 1]")
        if self.walk_cap <= 0:
            raise ValueError("walk_cap must be positive")

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


def generate_instance(net, profile, horizon, seed):
    """Generate one seeded request stream, sorted by request time.

    The arrival process is inhomogeneous Poisson (thinning against the peak
    rate).  Exactly one endpoint of every request is the terminus.
    """
    profile.validate()
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = np.random.default_rng(seed)
    weights = endpoint_weights(net, profile)
    total_w = weights.sum()
    if total_w <= 0:
        return []
    probs = weights / total_w

    rate_max = max(profile.base_rate, profile.end_rate) / 3600.0
    requests = []
    t = 0.0
    rid = 0
    while True:
        if rate_max <= 0:
            break
        t += rng.exponential(1.0 / rate_max)
        if t >= horizon:
            break
        if rng.random() > profile.rate_at(t, horizon) / rate_max:
            continue
        node = int(rng.choice(net.n_nodes, p=probs))
        from_terminus = rng.random() < profile.direction_split
        if from_terminus:
            origin, destination = net.terminus, node
        else:
            origin, destination = node, net.terminus
        requests.append(Request(
            id=rid, t_r=t,
            origin=origin, destination=destination,
            origin_segment=net.labels[origin],
            destination_segment=net.labels[destination],
        ))
        rid += 1
    return requests


def segment_shares(net, profile):
    """Stationary probability that a request's non-terminus endpoint lies in
    each segment, under the generator's node weights."""
    weights = endpoint_weights(net, profile)
    total = weights.sum()
    shares = {seg: 0.0 for seg in Segment}
    if total <= 0:
        return shares
    for nid in range(net.n_nodes):
        shares[net.labels[nid]] += weights[nid] / total
    return shares


def forecast_demand(net, profile, horizon, now, window, segment=None):
    """Analytic expected request count in [now, now+window].

    This is a perfect-information forecast of the generator mean (not of the
    realized sample).  ``segment=None`` forecasts all demand; otherwise the
    total is apportioned by the stationary endpoint segment shares.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    a = min(max(now, 0.0), horizon)
    b = min(now + window, horizon)
    if b <= a:
        return 0.0
    # linear rate: integrate trapezoidally (exact)
    total = 0.5 * (profile.rate_at(a, horizon) + profile.rate_at(b, horizon)) * (b - a)
    if segment is None:
        return total
    return total * segment_shares(net, profile)[segment]


def dump_requests_csv(requests, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "t_r", "origin", "destination"])
        for r in requests:
            w.writerow([r.id, r.t_r, r.origin, r.destination])


def load_requests_csv(net, path):
    out = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            o, d = int(row["origin"]), int(row["destination"])
            out.append(Request(
                id=int(row["id"]), t_r=float(row["t_r"]),
                origin=o, destination=d,
                origin_segment=net.labels[o],
                destination_segment=net.labels[d],
            ))
    out.sort(key=lambda r: r.t_r)
    return out
