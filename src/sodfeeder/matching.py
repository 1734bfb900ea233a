"""Request-to-vehicle assignment.

Each pending request is processed in request-time order.  Its service plan
is resolved onto the request once: a fixed-portion endpoint is snapped to
the closest fixed stop by walking time (memoized on the network, per set of
fixed stops and walk speed), a flexible endpoint is served door-to-door by
inserting a stop into a zone-compatible vehicle's flexible window.  Among
all feasible candidates the one with the smallest schedule-cost increase is
applied; ties break on (vehicle id, pickup position).  Requests with no
feasible candidate stay pending and are rejected once their wait deadline
lapses.

Five shortcuts skip work without changing any result.  The window screen in
``_ranked_placements`` (the cycle's shape puts the window from stop k to
stop ``len - 1 - k`` for k fixed stops, ``fleet``) drops a new flexible stop
whose window span would exceed the limit, and the whole window, unlooked at,
when its slack is below one dwell: inserting x between a and b delays it by
tt(a,x) + dwell + tt(x,b) - tt(a,b), and shortest-path times keep tt(a,x) +
tt(x,b) >= tt(a,b) to within round-off (1.1e-13 s on the default corridor,
far inside ``SCREEN_MARGIN``).  The rider screen in ``_ranked_placements``
drops a placement that breaks the new rider's own wait or ride bound, read
off the unmodified schedule: stops before the rider's stop keep their times,
so its arrival and the terminus departure are exactly what ``retime`` gives,
and since no stop after boarding idles, the terminus arrival is the old one
plus the placement's delay, up to float round-off (``SCREEN_MARGIN``).  The
retry memo (``world.no_fit``, request id -> ``World.dispatches``) keeps the
count of dispatches at which a pending request last found no candidate.  If
it has not moved, the request stays pending unexamined; if it has, only
vehicles dispatched after the memo are examined.  Sound because between
dispatches a vehicle (so its zone) only loses placements.  Advancing it
raises ``free_stop_min`` and ends its boarding, and the placements left
rebuild to the same times.  An insertion adds a stop or a rider, no stop
after boarding idles, shortest-path times obey the triangle inequality and
a rider never joins an existing flex stop, so each placement on the new
schedule has one on the old with no later pickup or dropoff, no longer
ride, no wider window span and no higher load.  Float round-off
(1.1e-13 s in the triangle inequality on the default corridor, a few ulps in
a ride or span, a difference of two times) can only undo a miss by a hair: a
try that built a placement missing its time bounds by less than
``SCREEN_MARGIN`` (the screens drop only wider misses) sets the memo to 0,
to retry every vehicle.  A memo entry also marks the request's plan as
resolved; it is dropped when the request is assigned or rejected.

The rank shortcut (``_ranked_placements``) orders the placements that pass
both screens by an estimate of their rank, the candidate's ``delta_rho +
gamma_r + gamma_s * served_at_fixed_stop``, read off the unmodified schedule,
and builds them in ascending (estimate, vehicle id, pickup, dropoff) order,
stopping once the next estimate exceeds the best feasible built rank by
``RANK_MARGIN``.  The satisfaction terms are the same for every placement of
one request, so the rank orders candidates as ``delta_rho`` does; it is the
change in the schedule's cost terms, o_per_m * Δd + t_per_s * (delay * k +
dropoff - t_r).  Δd = d(a,x) + d(x,b) - d(a,b) for a new stop x between a and
b, 0 for an existing one; since no stop after boarding idles, each of the k
base riders who alight after the rider's stop (at or after b, or after the
existing stop) is delayed by exactly ``delay``, and ``dropoff`` is the rider
screen's exact value.  So the estimate equals the rank in real arithmetic;
in floats the two differ by a few ulps of cost sums below 1e3 and of times
below 2e4 s (at most 5e-14 over sod and nominal-zonal episodes at 0.1x, 1x
and 3x paper demand), far inside ``RANK_MARGIN``.  An unbuilt placement
then ranks more than 1e-6 above the winner, which keeps its ``delta_rho``,
computed by subtracting the 2e6-scale rewards (ulp 2.3e-10), strictly
above the winner's: it can neither beat nor tie it.

A candidate shares its vehicle's stops before the insertion point: they
keep their times, and a stop that ``set_schedule`` stored is never mutated
again.  It copies stop 0 for an outbound rider and the stops from the
insertion point on, which alone ``retime`` recomputes.  One ``fleet.walk``
gives its times, load and distance; one pass over its riders, in the walk's
order, checks their bounds and adds their ride costs to the distance cost,
the very sum of ``schedule_cost_terms``.  So the winner's terms stand as its
vehicle's base terms (``Vehicle.terms``) until its schedule is replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .corridor import Segment
from .costs import EPS
from .demand import RequestState
from .fleet import _BOARDING, _FIXED, Stop, StopKind, retime, walk

# s; the window screen's allowance for float round-off in its bound, which
# stays near 1e-11 s over a 3-hour horizon
SCREEN_MARGIN = 1e-6
# $; the rank shortcut's allowance for float round-off in its estimate, which
# stays below 1e-13 $ on the default corridor
RANK_MARGIN = 1e-6


@dataclass
class InsertionCandidate:
    vehicle_id: int
    pickup_idx: int
    dropoff_idx: int
    schedule: list
    delta_rho: float
    terms: tuple          # schedule_cost_terms of ``schedule``


@dataclass
class MatchReport:
    assigned: list = field(default_factory=list)
    rejected: list = field(default_factory=list)
    pending: list = field(default_factory=list)


def nearest_fixed_stop(world, node, walk_speed):
    """Closest fixed stop (incl. the terminus) by walking time; lower node id
    breaks ties.  Memoized in ``world.net.snaps``, keyed by the fixed stops,
    the walk speed and the node, since worlds of one network may differ in
    their stops."""
    key = (tuple(world.fixed_stop_nodes), walk_speed, node)
    snap = world.net.snaps.get(key)
    if snap is None:
        best, best_t = None, None
        for stop_node in [world.net.terminus] + world.fixed_stop_nodes:
            t = world.net.walk_time(node, stop_node, walk_speed)
            if best_t is None or t < best_t - 1e-9:
                best, best_t = stop_node, t
        snap = world.net.snaps[key] = (best, best_t)
    return snap


def resolve_service_plan(world, request, walk_speed, walk_cap):
    """Write the request's service plan onto it: ``pickup_node``,
    ``dropoff_node``, ``access_time``, ``served_at_fixed_stop`` and
    ``direct_time``.  Returns False, writing nothing, for a fixed-route
    rider who would walk more than ``walk_cap`` to the nearest stop.

    The terminus end is served at the terminus, so only the other end is
    resolved: a fixed-segment end, or any end in a fixed-route world, snaps
    to the closest fixed stop; a flexible end is served door to door.
    """
    net = world.net
    term = net.terminus
    outbound = request.origin == term
    node = request.destination if outbound else request.origin
    fixed_segment = net.labels[node] == Segment.FIXED
    snapped = node != term and (fixed_segment or world.fixed_only)
    access = 0.0
    if snapped:
        node, access = nearest_fixed_stop(world, node, walk_speed)
        if not fixed_segment and access > walk_cap + EPS:
            return False
    pickup, dropoff = (term, node) if outbound else (node, term)
    request.pickup_node = pickup
    request.dropoff_node = dropoff
    request.access_time = access
    request.served_at_fixed_stop = snapped
    request.direct_time = net.travel_time(pickup, dropoff)
    return True


def _cost_terms(world, planned, distance, slack=None):
    """``schedule_cost_terms`` from a schedule's ``fleet.walk``: one pass
    over its riders in ``planned`` order.  With a ``slack``, None as soon as
    a rider breaks its wait or ride bound by more than ``slack``."""
    p = world.params
    c = p.coeffs
    lim = p.limits
    requests = world.requests
    t_per_s = c.t_per_s
    cost = c.o_per_m * distance
    n_r = n_s = 0
    for rid, (pk, dr) in planned.items():
        req = requests[rid]
        if slack is not None:
            riding = req.state is RequestState.RIDING
            pickup = req.pickup_time if riding else pk
            if pickup is not None and dr is not None and (
                    (not riding
                     and pickup - req.t_r > lim.max_wait + EPS + slack)
                    or dr - pickup
                    > lim.max_ride(req.direct_time) + EPS + slack):
                return None
        if dr is None:
            continue
        cost += t_per_s * (dr - req.t_r)
        n_r += 1
        if req.served_at_fixed_stop:
            n_s += 1
    return cost, n_r, n_s


def schedule_cost_terms(world, schedule):
    """(small-magnitude cost, n_requests, n_fixed_served) for one schedule.

    The cost part is gamma_o * planned distance + gamma_t * sum of
    (dropoff - request time); the counts carry the satisfaction rewards
    separately so that cost differences stay numerically exact.
    """
    planned, _, distance = walk(schedule, world.net, 0, 0)
    return _cost_terms(world, planned, distance)


def _alights_from(schedule):
    """``after[i]``: how many riders alight at ``schedule[i:]``."""
    after = [0] * (len(schedule) + 1)
    for j in range(len(schedule) - 1, -1, -1):
        after[j] = after[j + 1] + len(schedule[j].alight)
    return after


def _ranked_placements(world, request, since=-1):
    """Every placement of the request that passes the window and rider
    screens, as ``(est, vehicle id, idx, new)`` in ascending order: ``est``
    is its rank estimate (module docstring).  The rider's other end ``node``
    (the one not at the terminus departure or arrival) goes to an existing
    stop ``idx`` (``new`` False: the terminus arrival when both ends snapped
    to the terminus, else a fixed stop at ``node``) or to a new flexible
    stop inserted at ``idx`` (``new`` True).  On one vehicle ``idx`` fixes
    the pickup and dropoff positions, and neither falls as it grows, so this
    is (est, vehicle id, pickup idx, dropoff idx) order.  ``since`` is as in
    ``enumerate_candidates``."""
    net = world.net
    term = net.terminus
    outbound = request.pickup_node == term
    node = request.dropoff_node if outbound else request.pickup_node
    p = world.params
    c = p.coeffs
    lim = p.limits
    o_per_m = c.o_per_m
    t_per_s = c.t_per_s
    t_r = request.t_r
    times = net.times
    dists = net.distances
    from_x = times[node]
    dist_x = dists[node]
    wait_limit = lim.max_wait + EPS + SCREEN_MARGIN
    ride_limit = lim.max_ride(request.direct_time) + EPS + SCREEN_MARGIN
    span_limit = lim.flex_window + EPS + SCREEN_MARGIN
    dwell = p.dwell_base + p.dwell_per_pax
    per_pax = p.dwell_per_pax
    at_terminus = node == term      # both ends snapped to the terminus
    at_fixed = node in world.fixed_stop_set
    # a rider served at the terminus or a fixed stop rides with any zone;
    # one served door to door in zone k (its category) with zones 0 and k
    zones = (0, 1, 2) if at_terminus or at_fixed else (0, request.category)
    k = len(world.fixed_stop_nodes)
    out = []
    for v in world.vehicles:
        sched = v.schedule
        if not sched or v.dispatched <= since or v.zone not in zones:
            continue
        if outbound and (v.status is not _BOARDING
                         or sched[0].departure - t_r > wait_limit):
            continue
        # (idx, new, delay, the arrival at the rider's stop) of each place;
        # ``delay`` is what the rider's stop adds to every later stop
        if at_terminus:
            last = len(sched) - 1
            places = [(last, False, 0.0, sched[last].arrival)]
        elif at_fixed:
            places = [(i, False, per_pax, sched[i].arrival)
                      for i in range(max(1, v.free_stop_min()), len(sched) - 1)
                      if sched[i].node == node and sched[i].kind is _FIXED]
        else:
            # the window screen (module docstring)
            close = len(sched) - 1 - k
            span0 = sched[close].arrival - sched[k].departure
            if span0 + dwell > span_limit:
                continue
            places = []
            for pos in range(max(k, v.free_stop_min()) + 1, close + 1):
                prev = sched[pos - 1]
                from_a = times[prev.node]
                b = sched[pos].node
                delay = from_a[node] + dwell + from_x[b] - from_a[b]
                if span0 + delay <= span_limit:
                    places.append((pos, True, delay,
                                   prev.departure + from_a[node]))
        after = None
        for idx, new, delay, at in places:
            # the rider screen (module docstring); ``at`` is exact
            pickup, dropoff = ((sched[0].departure, at) if outbound
                               else (at, sched[-1].arrival + delay))
            if (pickup - t_r > wait_limit
                    or dropoff - pickup > ride_limit):
                continue
            if after is None:
                after = _alights_from(sched)
            if new:
                a, b = sched[idx - 1].node, sched[idx].node
                detour = dists[a][node] + dist_x[b] - dists[a][b]
                est = (o_per_m * detour
                       + t_per_s * (delay * after[idx] + dropoff - t_r))
            else:
                est = t_per_s * (delay * after[idx + 1] + dropoff - t_r)
            out.append((est, v.id, idx, new))
    out.sort()
    return out


def _build(world, request, vehicle, idx, new):
    """``(schedule, pickup idx, dropoff idx)`` of the vehicle's schedule
    with the request placed at ``idx`` (``new`` as ``_ranked_placements``
    gives it), retimed."""
    p = world.params
    base_sched = vehicle.schedule
    outbound = request.pickup_node == world.net.terminus
    node = request.dropoff_node if outbound else request.pickup_node
    # the stops before ``idx`` are shared, the rest are copies
    sched = base_sched[:idx]
    if new:
        sched.append(Stop(node, StopKind.FLEX))
    sched += [s.clone() for s in base_sched[idx:]]
    if outbound:
        sched[0] = sched[0].clone()
    pk, dr = (0, idx) if outbound else (idx, len(sched) - 1)
    sched[pk].board.append(request.id)
    sched[dr].alight.append(request.id)
    retime(sched, vehicle.status, vehicle.next_idx, world.net, p.dwell_base,
           p.dwell_per_pax, idx)
    return sched, pk, dr


def enumerate_candidates(world, request, since=-1, near=None):
    """The feasible insertions of the request that were built, the
    cheapest first: among all feasible insertions across zone-compatible
    vehicles, it is the one with the smallest (delta_rho, vehicle id, pickup
    idx, dropoff idx).

    The request is one of ``world.requests`` with its service plan resolved
    (``resolve_service_plan``).  An outbound rider boards at the terminus
    departure of a vehicle still boarding, an inbound rider alights at the
    terminus arrival.  The placements of the other end that survive the
    window and rider screens are built and checked exactly in the order of
    their rank estimates, until the next estimate exceeds the best feasible
    built rank by ``RANK_MARGIN`` (module docstring).  ``since``, the
    request's retry memo (the ``World.dispatches`` of its last attempt
    without a fit), skips every vehicle not dispatched after that attempt.
    Each built placement that breaks a time bound by less than
    ``SCREEN_MARGIN``, and no other check, adds its vehicle id to the set
    ``near``, if one is given.
    """
    p = world.params
    c = p.coeffs
    net = world.net
    flex_limit = p.limits.flex_window + EPS
    k = len(world.fixed_stop_nodes)
    best = math.inf
    out = []
    for est, vid, idx, new in _ranked_placements(world, request, since):
        if est > best + RANK_MARGIN:
            break
        v = world.vehicles[vid]
        sched, pk, dr = _build(world, request, v, idx, new)
        over = -math.inf if world.fixed_only else (
            sched[-1 - k].arrival - sched[k].departure - flex_limit)
        if over > SCREEN_MARGIN:
            continue
        planned, peak, distance = walk(sched, net, len(v.onboard),
                                       v.free_stop_min())
        if peak > v.capacity:
            continue
        terms = over <= 0 and _cost_terms(world, planned, distance, 0.0)
        if not terms:
            if near is not None and _cost_terms(world, planned, distance,
                                                SCREEN_MARGIN):
                near.add(vid)
            continue
        if v.terms is None:
            v.terms = schedule_cost_terms(world, v.schedule)
        cost, n_r, n_s = terms
        b_cost, b_r, b_s = v.terms
        rank = cost - b_cost
        best = min(best, rank)
        delta = (rank - c.gamma_r * (n_r - b_r) - c.gamma_s * (n_s - b_s))
        out.append(InsertionCandidate(vid, pk, dr, sched, delta, terms))
    out.sort(key=lambda c: (c.delta_rho, c.vehicle_id, c.pickup_idx,
                            c.dropoff_idx))
    return out


def match_step(world, *, walk_speed, walk_cap):
    """One matching round: expire overdue requests, then greedily insert the
    rest in request-time order.  A request left without a candidate keeps a
    retry memo in ``world.no_fit`` until it is assigned or rejected."""
    rep = MatchReport()
    memo = world.no_fit
    late = world.params.limits.max_wait + EPS
    for req in world.pending_requests():
        since = memo.get(req.id, -1)
        if world.now - req.t_r > late or (
                since < 0 and not resolve_service_plan(world, req, walk_speed,
                                                       walk_cap)):
            # overdue (these lead the request-time order, so they go before
            # any insertion), or beyond the walking cap in fixed-route mode
            req.transition(RequestState.REJECTED)
            world.rejected_total += 1
            rep.rejected.append(req.id)
            memo.pop(req.id, None)
            continue
        if since == world.dispatches:
            # no vehicle was dispatched since its last try (module docstring)
            rep.pending.append(req.id)
            continue
        near = set()
        cands = enumerate_candidates(world, req, since, near)
        if not cands:
            memo[req.id] = 0 if near else world.dispatches
            rep.pending.append(req.id)
            continue
        memo.pop(req.id, None)
        best = cands[0]
        v = world.vehicles[best.vehicle_id]
        world.set_schedule(v, best.schedule)
        v.terms = best.terms
        req.transition(RequestState.ASSIGNED)
        world.open_processes[req.category] += 2
        req.vehicle = v.id
        rep.assigned.append((req.id, v.id))
    return rep
