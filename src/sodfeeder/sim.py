"""World state and the fixed-step simulation loop.

One ``World`` is strictly single-threaded and fully deterministic: schedules
carry exact planned times, so advancing a step just executes every boarding,
alighting and arrival event that falls inside the step window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .demand import RequestState
from .fleet import (FleetClass, Stop, StopKind, Vehicle, VehicleStatus,
                    retime, stop_dwell)


@dataclass
class StepReport:
    boardings: int = 0
    alightings: int = 0
    arrivals: int = 0
    completed_cycles: int = 0
    infeasibilities: list = field(default_factory=list)


class World:
    """Simulation world: network, fleet, requests and the clock.

    ``params`` holds the ``Scenario`` the world runs under.  ``requests``
    must be sorted by request time with ids 0..n-1 in list order; the clock
    ``now`` only moves forward.  ``no_fit`` is matching's retry memo
    (request id -> ``matching.NoFit``); it lives here so that a deep copy of
    the world copies it together with the vehicle schedules it refers to.
    """

    def __init__(self, net, scenario, requests, fixed_only=False,
                 split_fleet=False):
        self.net = net
        self.params = scenario
        self.requests = requests
        self.fixed_only = fixed_only
        self.now = 0.0
        self.step_k = 0

        fixed_end = net.spec.segment_lengths[0]
        self.fixed_stop_nodes = []
        x = scenario.fixed_stop_spacing
        while x <= fixed_end + 1e-9:
            self.fixed_stop_nodes.append(net.nearest_mainline_node(x))
            x += scenario.fixed_stop_spacing
        self.fixed_stop_set = frozenset(self.fixed_stop_nodes)
        zone1_end = fixed_end + net.spec.segment_lengths[1]
        self.turn_nodes = {
            0: net.nearest_mainline_node(net.spec.mainline_length),
            1: net.nearest_mainline_node(zone1_end),
            2: net.nearest_mainline_node(net.spec.mainline_length),
        }

        self.vehicles = []
        for i in range(scenario.n_vehicles):
            reserved = split_fleet and i < scenario.n_reserved
            cls = FleetClass.RESERVED if reserved else FleetClass.CONTROLLABLE
            self.vehicles.append(Vehicle(id=i, capacity=scenario.capacity,
                                         fleet_class=cls, node=net.terminus))

        self.rejected_total = 0
        self.lateness_skips = 0
        self.dispatch_log = []   # (step, vehicle, source, z)
        # time of the last departure serving each request category
        # (0=fixed-route/regular, 1=zone1, 2=zone2); z=0 serves all three
        self.last_departure = {0: None, 1: None, 2: None}

    # ---- request visibility ------------------------------------------------

    @property
    def requests(self):
        return self._requests

    @requests.setter
    def requests(self, requests):
        requests = list(requests)
        for i, r in enumerate(requests):
            if r.id != i:
                raise ValueError("request at position %d has id %d; ids must "
                                 "be 0..n-1 in list order" % (i, r.id))
            if i and r.t_r < requests[i - 1].t_r:
                raise ValueError("request %d (t_r=%r) comes before request %d "
                                 "(t_r=%r); requests must be sorted by t_r"
                                 % (i - 1, requests[i - 1].t_r, i, r.t_r))
        self._requests = requests
        self._seen = 0        # requests[:_seen] have become visible
        self._pending = []    # visible requests, pruned to PENDING per call
        self.no_fit = {}

    def pending_requests(self):
        """Visible, unassigned requests in request-time order."""
        reqs = self._requests
        i = self._seen
        while i < len(reqs) and reqs[i].t_r <= self.now:
            i += 1
        pending = self._pending + reqs[self._seen:i]
        self._seen = i
        self._pending = [r for r in pending
                         if r.state is RequestState.PENDING]
        return list(self._pending)

    def category_of(self, request):
        """Request service category (0 regular, 1 zone 1, 2 zone 2): the
        ``Segment`` of its non-terminus endpoint, an int of that value."""
        return request.nonterminus_segment(self.net.terminus)

    # ---- dispatching -------------------------------------------------------

    def available_vehicles(self, fleet_class=None):
        out = [v for v in self.vehicles if v.status == VehicleStatus.AT_TERMINUS]
        if fleet_class is not None:
            out = [v for v in out if v.fleet_class == fleet_class]
        return out

    def dispatch_vehicle(self, vehicle_id, z):
        """Send a terminus vehicle on a new cycle with zone assignment z."""
        v = self.vehicles[vehicle_id]
        if v.status != VehicleStatus.AT_TERMINUS:
            raise ValueError("vehicle %d is not at the terminus" % vehicle_id)
        p = self.params
        net = self.net
        stops = [Stop(net.terminus, StopKind.TERMINUS_DEPART,
                      arrival=self.now, departure=self.now + p.boarding_duration)]
        for fx in self.fixed_stop_nodes:
            stops.append(Stop(fx, StopKind.FIXED))
        if self.fixed_only:
            # turn at the last fixed stop; it is visited once
            for fx in reversed(self.fixed_stop_nodes[:-1]):
                stops.append(Stop(fx, StopKind.FIXED))
            v.window_open_idx = None
            v.window_close_idx = None
        else:
            stops.append(Stop(self.turn_nodes[z], StopKind.TURNAROUND))
            for fx in reversed(self.fixed_stop_nodes):
                stops.append(Stop(fx, StopKind.FIXED))
            v.window_open_idx = len(self.fixed_stop_nodes)       # last outbound fixed
            v.window_close_idx = len(self.fixed_stop_nodes) + 2  # first inbound fixed
        stops.append(Stop(net.terminus, StopKind.TERMINUS_ARRIVE))

        v.schedule = stops
        v.status = VehicleStatus.BOARDING
        v.zone = z
        v.fixed_only = self.fixed_only
        v.next_idx = 0
        v.dispatch_time = self.now
        v.assigned = set()
        retime(v.schedule, v.status, v.next_idx, net, p.dwell_base, p.dwell_per_pax)

        if z == 0:
            for cat in (0, 1, 2):
                self.last_departure[cat] = self.now
        else:
            self.last_departure[z] = self.now
        return v

    def cycle_time_bound(self, z):
        """Maximum cycle duration: boarding + fixed legs + the full flexible
        window (fixed-route cycles have no window)."""
        p = self.params
        net = self.net
        nodes = [net.terminus] + self.fixed_stop_nodes
        leg = sum(net.travel_time(a, b) for a, b in zip(nodes, nodes[1:]))
        dwell = p.dwell_base * len(self.fixed_stop_nodes)
        if self.fixed_only:
            return p.boarding_duration + 2 * leg + 2 * dwell
        return p.boarding_duration + 2 * (leg + dwell) + p.limits.flex_window

    # ---- accounting --------------------------------------------------------

    def _metric_share(self, t0, t1):
        """Fraction of [t0, t1] that lies after the warm-up cutoff."""
        if t1 <= t0:
            return 0.0
        cut = self.params.warmup
        return max(0.0, t1 - max(t0, cut)) / (t1 - t0)

    # ---- the step loop -----------------------------------------------------

    def _next_event(self, v):
        """(time, description) of the vehicle's next event, or None."""
        if v.status == VehicleStatus.BOARDING:
            return v.schedule[0].departure
        if v.status == VehicleStatus.EN_ROUTE:
            return v.schedule[v.next_idx].arrival
        return None

    def advance_step(self, report=None):
        """Advance the world by one time step, executing all due events."""
        if self.now >= self.params.horizon:
            raise ValueError("clock is past the horizon")
        rep = report if report is not None else StepReport()
        step_end = self.now + self.params.t_step
        while True:
            best = None
            for v in self.vehicles:
                t = self._next_event(v)
                if t is not None and t <= step_end + 1e-9:
                    if best is None or (t, v.id) < best[:2]:
                        best = (t, v.id, v)
            if best is None:
                break
            self._process_event(best[2], best[0], rep)
        self.now = step_end
        self.step_k += 1
        return rep

    def _process_event(self, v, t, rep):
        if v.status == VehicleStatus.BOARDING:
            stop = v.schedule[0]
            for rid in stop.board:
                self._board(v, rid, t, rep)
            v.status = VehicleStatus.EN_ROUTE
            v.next_idx = 1
            return

        stop = v.schedule[v.next_idx]
        prev = v.schedule[v.next_idx - 1]
        leg_dist = self.net.distances[prev.node][stop.node]
        v.dist_total += leg_dist
        v.dist_metric += leg_dist * self._metric_share(prev.departure, stop.arrival)
        v.node = stop.node
        rep.arrivals += 1

        for rid in stop.alight:
            self._alight(v, rid, stop.arrival, rep)
        for rid in stop.board:
            self._board(v, rid, stop.arrival, rep)

        if len(v.onboard) > v.capacity:
            raise AssertionError("capacity exceeded on vehicle %d" % v.id)

        if stop.kind == StopKind.TERMINUS_ARRIVE:
            if v.onboard:
                rep.infeasibilities.append(
                    ("onboard_at_terminus", v.id, list(v.onboard)))
            dep = v.deployed_total
            span = stop.arrival - v.dispatch_time
            v.deployed_total = dep + span
            v.deployed_metric += span * self._metric_share(v.dispatch_time,
                                                          stop.arrival)
            v.status = VehicleStatus.AT_TERMINUS
            v.zone = None
            v.schedule = []
            v.next_idx = 0
            v.window_open_idx = None
            v.window_close_idx = None
            v.cycles_completed += 1
            rep.completed_cycles += 1
        else:
            v.next_idx += 1

    def _board(self, v, rid, t, rep):
        req = self.requests[rid]
        req.transition(RequestState.RIDING)
        req.pickup_time = t
        v.onboard.append(rid)
        rep.boardings += 1
        if t - req.t_r > self.params.limits.max_wait + 1e-6:
            rep.infeasibilities.append(("wait_violation", rid, t - req.t_r))

    def _alight(self, v, rid, t, rep):
        req = self.requests[rid]
        req.transition(RequestState.SERVED)
        req.dropoff_time = t
        v.onboard.remove(rid)
        rep.alightings += 1
        ride = t - req.pickup_time
        if (req.direct_time is not None
                and ride > self.params.limits.max_ride(req.direct_time) + 1e-6):
            rep.infeasibilities.append(("detour_violation", rid, ride))
