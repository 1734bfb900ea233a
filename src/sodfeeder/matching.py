"""Request-to-vehicle assignment.

Each pending request is processed in request-time order.  Fixed-portion
endpoints are snapped to the closest fixed stop by walking time; flexible
endpoints are served door-to-door by inserting a stop into a zone-compatible
vehicle's flexible window.  Among all feasible candidates the one with the
smallest schedule-cost increase is applied; ties break on (vehicle id,
pickup position).  Requests with no feasible candidate stay pending and are
rejected once their wait deadline lapses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corridor import Segment
from .demand import RequestState
from .fleet import (Stop, StopKind, VehicleStatus, planned_times, retime,
                    schedule_distance, peak_load)

EPS = 1e-6


@dataclass
class ServicePlan:
    """Resolved service endpoints of a request."""
    pickup_node: int
    dropoff_node: int
    access_time: float
    served_at_fixed: bool
    feasible: bool = True


@dataclass
class InsertionCandidate:
    vehicle_id: int
    pickup_idx: int
    dropoff_idx: int
    schedule: list
    window_close_idx: int | None
    delta_rho: float


@dataclass
class MatchReport:
    assigned: list = field(default_factory=list)
    rejected: list = field(default_factory=list)
    pending: list = field(default_factory=list)


def nearest_fixed_stop(world, node, walk_speed):
    """Closest fixed stop (incl. the terminus) by walking time; lower node id
    breaks ties."""
    best, best_t = None, None
    for stop_node in [world.net.terminus] + world.fixed_stop_nodes:
        t = world.net.walk_time(node, stop_node, walk_speed)
        if best_t is None or t < best_t - 1e-9:
            best, best_t = stop_node, t
    return best, best_t


def resolve_service_plan(world, request, walk_speed, walk_cap):
    """Snap the request's endpoints to its service points."""
    term = world.net.terminus
    access = 0.0
    feasible = True

    def resolve(node, segment):
        nonlocal access, feasible
        if node == term:
            return term, False
        if segment == Segment.FIXED:
            snap, wt = nearest_fixed_stop(world, node, walk_speed)
            access += wt
            return snap, True
        if world.fixed_only:
            snap, wt = nearest_fixed_stop(world, node, walk_speed)
            if wt > walk_cap + EPS:
                feasible = False
                return node, False
            access += wt
            return snap, True
        return node, False

    p_node, p_fixed = resolve(request.origin, request.origin_segment)
    d_node, d_fixed = resolve(request.destination, request.destination_segment)
    served_at_fixed = p_fixed or d_fixed
    return ServicePlan(p_node, d_node, access, served_at_fixed, feasible)


def zone_compatible(world, plan, vehicle):
    """True iff every non-terminus, non-fixed-stop service point lies in a
    zone served by the vehicle's current assignment."""
    if vehicle.zone is None:
        return False
    snap_set = {world.net.terminus} | set(world.fixed_stop_nodes)
    for node in (plan.pickup_node, plan.dropoff_node):
        if node in snap_set:
            continue
        if vehicle.fixed_only:
            return False
        seg = world.net.labels[node]
        zone = 1 if seg == Segment.ZONE1 else 2
        if vehicle.zone not in (0, zone):
            return False
    return True


def schedule_cost_terms(world, schedule, extra_request=None,
                        extra_served_at_fixed=False):
    """(small-magnitude cost, n_requests, n_fixed_served) for one schedule.

    The cost part is gamma_o * planned distance + gamma_t * sum of
    (dropoff - request time); the counts carry the satisfaction rewards
    separately so that cost differences stay numerically exact.
    """
    c = world.params.coeffs
    cost = c.o_per_m * schedule_distance(schedule, world.net)
    pt = planned_times(schedule)
    n_r = 0
    n_s = 0
    for rid, (pk, dr) in pt.items():
        if dr is None:
            continue
        req = world.requests[rid]
        cost += c.t_per_s * (dr - req.t_r)
        n_r += 1
        if extra_request is not None and rid == extra_request.id:
            if extra_served_at_fixed:
                n_s += 1
        elif req.served_at_fixed_stop:
            n_s += 1
    return cost, n_r, n_s


def vehicle_rho(world, vehicle, schedule, extra_request=None,
                extra_served_at_fixed=False):
    """Single-vehicle share of the fleet schedule cost.

    gamma_o * planned distance + gamma_t * sum of (dropoff - request time)
    over assigned requests, minus the satisfaction rewards.
    """
    c = world.params.coeffs
    cost, n_r, n_s = schedule_cost_terms(world, schedule, extra_request,
                                         extra_served_at_fixed)
    return cost - c.gamma_r * n_r - c.gamma_s * n_s


def rho(world):
    """Fleet-wide schedule cost over all active vehicle schedules."""
    return sum(vehicle_rho(world, v, v.schedule)
               for v in world.vehicles if v.schedule)


def _feasible(world, vehicle, schedule, window_close_idx, request, plan,
              direct_time):
    lim = world.params.limits
    # flexible window
    if vehicle.window_open_idx is not None and window_close_idx is not None:
        span = (schedule[window_close_idx].arrival
                - schedule[vehicle.window_open_idx].departure)
        if span > lim.flex_window + EPS:
            return False
    # capacity
    if peak_load(schedule, len(vehicle.onboard),
                 vehicle.free_stop_min()) > vehicle.capacity:
        return False
    # service constraints for every request touched by this schedule
    pt = planned_times(schedule)
    for rid, (pk, dr) in pt.items():
        if rid == request.id:
            req, dt = request, direct_time
        else:
            req, dt = world.requests[rid], world.requests[rid].direct_time
        pickup = req.pickup_time if req.state == RequestState.RIDING else pk
        if pickup is None or dr is None:
            continue
        if req.state != RequestState.RIDING and pickup - req.t_r > lim.max_wait + EPS:
            return False
        if dt is not None and dr - pickup > lim.max_ride(dt) + EPS:
            return False
    return True


def _with_board(schedule, idx, rid):
    sched = [s.clone() for s in schedule]
    sched[idx].board.append(rid)
    return sched

def _insert_stop(schedule, pos, stop):
    sched = [s.clone() for s in schedule]
    sched.insert(pos, stop)
    return sched


def enumerate_candidates(world, request, plan):
    """All feasible insertions of the request across zone-compatible vehicles."""
    p = world.params
    net = world.net
    direct = net.travel_time(plan.pickup_node, plan.dropoff_node)
    out = []
    snap_set = {net.terminus} | set(world.fixed_stop_nodes)

    for v in world.vehicles:
        if not v.schedule or not zone_compatible(world, plan, v):
            continue
        c = p.coeffs
        base_cost, base_nr, base_ns = schedule_cost_terms(world, v.schedule)
        last = len(v.schedule) - 1

        def finish(sched, close_idx, pk_idx, dr_idx):
            retime(sched, v.status, v.next_idx, net, p.dwell_base, p.dwell_per_pax)
            if not _feasible(world, v, sched, close_idx, request, plan, direct):
                return
            cost, n_r, n_s = schedule_cost_terms(
                world, sched, extra_request=request,
                extra_served_at_fixed=plan.served_at_fixed)
            delta = (cost - base_cost - c.gamma_r * (n_r - base_nr)
                     - c.gamma_s * (n_s - base_ns))
            out.append(InsertionCandidate(v.id, pk_idx, dr_idx, sched,
                                          close_idx, delta))

        # --- pickup options -------------------------------------------------
        if plan.pickup_node == net.terminus:
            if v.status != VehicleStatus.BOARDING:
                continue
            pickup_opts = [("stop", 0)]
        elif plan.pickup_node in snap_set:
            pickup_opts = [("stop", i) for i in range(v.free_stop_min(), last)
                           if v.schedule[i].node == plan.pickup_node
                           and v.schedule[i].kind == StopKind.FIXED]
        else:
            pickup_opts = _flex_positions(world, v, plan.pickup_node)

        for pk_kind, pk in pickup_opts:
            # --- dropoff options -------------------------------------------
            if plan.dropoff_node == net.terminus:
                if pk_kind == "stop":
                    sched = _with_board(v.schedule, pk, request.id)
                    sched[last].alight.append(request.id)
                    finish(sched, v.window_close_idx, pk, last)
                else:
                    stop = Stop(plan.pickup_node, StopKind.FLEX,
                                board=[request.id])
                    sched = _insert_stop(v.schedule, pk, stop)
                    close = _shift(v.window_close_idx, pk)
                    sched[-1].alight.append(request.id)
                    finish(sched, close, pk, len(sched) - 1)
            elif plan.dropoff_node in snap_set:
                # pickup is the terminus departure (feeder structure)
                for dr in range(max(pk + 1, v.free_stop_min()), last):
                    s = v.schedule[dr]
                    if s.node != plan.dropoff_node or s.kind != StopKind.FIXED:
                        continue
                    sched = _with_board(v.schedule, pk, request.id)
                    sched[dr].alight.append(request.id)
                    finish(sched, v.window_close_idx, pk, dr)
            else:
                for dr_kind, dr in _flex_positions(world, v, plan.dropoff_node,
                                                   after=pk):
                    stop = Stop(plan.dropoff_node, StopKind.FLEX,
                                alight=[request.id])
                    sched = _with_board(v.schedule, pk, request.id)
                    sched.insert(dr, stop)
                    close = _shift(v.window_close_idx, dr)
                    finish(sched, close, pk, dr)
    out.sort(key=lambda c: (c.delta_rho, c.vehicle_id, c.pickup_idx,
                            c.dropoff_idx))
    return out


def _shift(close_idx, insert_pos):
    if close_idx is None:
        return None
    return close_idx + 1 if insert_pos <= close_idx else close_idx


def _flex_positions(world, vehicle, node, after=None):
    """Insertion positions for a new flexible stop inside the vehicle's
    flexible window.  Returns ("insert", pos) pairs: the new stop becomes
    schedule[pos]."""
    if vehicle.window_open_idx is None:
        return []
    lo = max(vehicle.window_open_idx + 1, vehicle.free_insert_min())
    hi = vehicle.window_close_idx
    if after is not None:
        lo = max(lo, after + 1)
    return [("insert", pos) for pos in range(lo, hi + 1)]


def match_step(world, walk_speed=1.25, walk_cap=600.0):
    """One matching round: expire overdue requests, then greedily insert the
    rest in request-time order."""
    rep = MatchReport()
    lim = world.params.limits
    for req in world.pending_requests():
        if world.now - req.t_r > lim.max_wait + EPS:
            req.transition(RequestState.REJECTED)
            world.rejected_total += 1
            rep.rejected.append(req.id)

    for req in world.pending_requests():
        plan = resolve_service_plan(world, req, walk_speed, walk_cap)
        if not plan.feasible:
            # fixed-route mode: endpoint beyond the walking cap of any stop
            req.transition(RequestState.REJECTED)
            world.rejected_total += 1
            rep.rejected.append(req.id)
            continue
        cands = enumerate_candidates(world, req, plan)
        if not cands:
            rep.pending.append(req.id)
            continue
        best = cands[0]
        _apply(world, req, plan, best)
        rep.assigned.append((req.id, best.vehicle_id))
    return rep


def _apply(world, request, plan, cand):
    v = world.vehicles[cand.vehicle_id]
    v.schedule = cand.schedule
    if cand.window_close_idx is not None:
        v.window_close_idx = cand.window_close_idx
    v.assigned.add(request.id)
    request.transition(RequestState.ASSIGNED)
    request.vehicle = v.id
    request.assign_time = world.now
    request.pickup_node = plan.pickup_node
    request.dropoff_node = plan.dropoff_node
    request.access_time = plan.access_time
    request.served_at_fixed_stop = plan.served_at_fixed
    request.direct_time = world.net.travel_time(plan.pickup_node,
                                                plan.dropoff_node)
