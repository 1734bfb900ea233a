"""World state and the fixed-step simulation loop.

One ``World`` is strictly single-threaded and fully deterministic: schedules
carry exact planned times, so advancing a step just executes every boarding,
alighting and arrival event that falls inside the step window.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .costs import EPS
from .demand import RequestState
from .fleet import (_BOARDING, _EN_ROUTE, _TERMINUS_ARRIVE, FleetClass, Stop,
                    StopKind, Vehicle, VehicleStatus, retime)


@dataclass
class StepReport:
    boardings: int = 0
    alightings: int = 0
    arrivals: int = 0
    infeasibilities: list = field(default_factory=list)


class World:
    """Simulation world: network, fleet, requests and the clock.

    ``params`` holds the ``Scenario`` the world runs under.  ``requests``
    must be feeder trips (one end at the terminus) sorted by request time
    with ids 0..n-1 in list order; setting them is the one writer of each
    request's ``category``.  Each vehicle's id is its index in
    ``vehicles``; the clock ``now`` only moves forward.  Every schedule
    change goes through ``set_schedule``.  ``dispatch_vehicle`` appends the
    clock to ``dispatch_times``, whose length counts the dispatches, and
    stamps the vehicle with that count; ``no_fit`` is matching's retry
    memo (request id -> the count at its last attempt without a fit,
    or ``math.inf`` once no vehicle can reach it in time).
    ``open_processes[c]`` counts the unexecuted boardings and alightings of
    assigned requests in category c (two per ASSIGNED request, one per
    RIDING one); assignment, boarding and alighting keep it current.
    ``rl_actions`` lists the action of each RL decision in order;
    ``DispatchController.apply_action`` is its only writer.
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

        self.dispatch_times = []
        self.vehicles = []
        for i in range(scenario.n_vehicles):
            reserved = split_fleet and i < scenario.n_reserved
            cls = FleetClass.RESERVED if reserved else FleetClass.CONTROLLABLE
            self.vehicles.append(Vehicle(id=i, capacity=scenario.capacity,
                                         fleet_class=cls))

        self.rejected_total = 0
        self.lateness_skips = 0
        self.dispatch_log = []   # (step, vehicle, source, z)
        self.rl_actions = []     # each RL decision's action, holds included
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
        term = self.net.terminus
        labels = self.net.labels
        open_processes = [0, 0, 0]
        for i, r in enumerate(requests):
            if r.id != i:
                raise ValueError("request at position %d has id %d; ids must "
                                 "be 0..n-1 in list order" % (i, r.id))
            if i and r.t_r < requests[i - 1].t_r:
                raise ValueError("request %d (t_r=%r) comes before request %d "
                                 "(t_r=%r); requests must be sorted by t_r"
                                 % (i - 1, requests[i - 1].t_r, i, r.t_r))
            if term not in (r.origin, r.destination):
                raise ValueError("request %d: neither endpoint (%d, %d) is "
                                 "the terminus" % (i, r.origin, r.destination))
            if r.origin == r.destination == term:
                raise ValueError("request %d: both endpoints are the "
                                 "terminus %d" % (i, term))
            r.category = labels[r.destination if r.origin == term
                                else r.origin]
            if r.state is RequestState.ASSIGNED:
                open_processes[r.category] += 2
            elif r.state is RequestState.RIDING:
                open_processes[r.category] += 1
        self._requests = requests
        self.open_processes = open_processes
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

    # ---- schedules ---------------------------------------------------------

    def set_schedule(self, vehicle, schedule):
        """The one writer of ``Vehicle.schedule``: a schedule list is
        replaced whole, and neither it nor its stops are edited once set.
        Clears the vehicle's cached cost terms."""
        vehicle.schedule = schedule
        vehicle.terms = None

    # ---- dispatching -------------------------------------------------------

    def dispatch_vehicle(self, vehicle_id, z):
        """Send a terminus vehicle on a new cycle with zone assignment z."""
        v = self.vehicles[vehicle_id]
        if v.status != VehicleStatus.AT_TERMINUS:
            raise ValueError("vehicle %d is not at the terminus" % vehicle_id)
        p = self.params
        net = self.net
        stops = [Stop(net.terminus, StopKind.TERMINUS_DEPART,
                      arrival=self.now, departure=self.now + p.boarding_duration)]
        stops += [Stop(fx, StopKind.FIXED) for fx in self.fixed_stop_nodes]
        back = self.fixed_stop_nodes[::-1]
        if self.fixed_only:
            back = back[1:]    # turn at the last fixed stop; it is visited once
        else:
            stops.append(Stop(self.turn_nodes[z], StopKind.TURNAROUND))
        stops += [Stop(fx, StopKind.FIXED) for fx in back]
        stops.append(Stop(net.terminus, StopKind.TERMINUS_ARRIVE))

        retime(stops, VehicleStatus.BOARDING, 0, net, p.dwell_base,
               p.dwell_per_pax)
        self.set_schedule(v, stops)
        self.dispatch_times.append(self.now)
        v.dispatched = len(self.dispatch_times)
        v.status = VehicleStatus.BOARDING
        v.zone = z
        v.next_idx = 0

        if z == 0:
            for cat in (0, 1, 2):
                self.last_departure[cat] = self.now
        else:
            self.last_departure[z] = self.now
        return v

    # ---- accounting --------------------------------------------------------

    def _metric_share(self, t0, t1):
        """Fraction of [t0, t1] that lies after the warm-up cutoff."""
        if t1 <= t0:
            return 0.0
        cut = self.params.warmup
        return max(0.0, t1 - max(t0, cut)) / (t1 - t0)

    # ---- the step loop -----------------------------------------------------

    def advance_step(self):
        """Advance the world by one time step, executing all due events in
        (time, vehicle id) order.  An event changes only its own vehicle, so
        a heap holding the next event of each vehicle with one due yields
        that order: a vehicle at the terminus has none, and one whose next
        event falls after the step cannot get an earlier one.  Each step
        reads the next events afresh from the schedules."""
        if self.now >= self.params.horizon:
            raise ValueError("clock is past the horizon")
        rep = StepReport()
        step_end = self.now + self.params.t_step
        due = step_end + 1e-9
        vehicles = self.vehicles
        events = []
        for v in vehicles:
            status = v.status
            if status is _BOARDING:
                t = v.schedule[0].departure
            elif status is _EN_ROUTE:
                t = v.schedule[v.next_idx].arrival
            else:
                continue
            if t <= due:
                events.append((t, v.id))
        heapq.heapify(events)
        while events:
            t, vid = events[0]
            v = vehicles[vid]
            self._process_event(v, t, rep)
            # an event leaves its vehicle en route or at the terminus
            if v.status is _EN_ROUTE:
                t = v.schedule[v.next_idx].arrival
                if t <= due:
                    heapq.heapreplace(events, (t, vid))
                    continue
            heapq.heappop(events)
        self.now = step_end
        self.step_k += 1
        return rep

    def _process_event(self, v, t, rep):
        if v.status is _BOARDING:
            stop = v.schedule[0]
            for rid in stop.board:
                self._board(v, rid, t, rep)
            v.status = _EN_ROUTE
            v.next_idx = 1
            return

        stop = v.schedule[v.next_idx]
        prev = v.schedule[v.next_idx - 1]
        v.dist_metric += (self.net.distances[prev.node][stop.node]
                          * self._metric_share(prev.departure, stop.arrival))
        rep.arrivals += 1

        for rid in stop.alight:
            self._alight(v, rid, stop.arrival, rep)
        for rid in stop.board:
            self._board(v, rid, stop.arrival, rep)

        if len(v.onboard) > v.capacity:
            raise AssertionError("capacity exceeded on vehicle %d" % v.id)

        if stop.kind is _TERMINUS_ARRIVE:
            if v.onboard:
                rep.infeasibilities.append(
                    ("onboard_at_terminus", v.id, list(v.onboard)))
            t0 = v.schedule[0].arrival      # the dispatch time
            v.deployed_metric += ((stop.arrival - t0)
                                  * self._metric_share(t0, stop.arrival))
            v.status = VehicleStatus.AT_TERMINUS
            v.zone = None
            self.set_schedule(v, [])
            v.next_idx = 0
        else:
            v.next_idx += 1

    def _board(self, v, rid, t, rep):
        req = self.requests[rid]
        req.transition(RequestState.RIDING)
        self.open_processes[req.category] -= 1
        req.pickup_time = t
        v.onboard.append(rid)
        rep.boardings += 1
        if t - req.t_r > self.params.limits.max_wait + EPS:
            rep.infeasibilities.append(("wait_violation", rid, t - req.t_r))

    def _alight(self, v, rid, t, rep):
        req = self.requests[rid]
        req.transition(RequestState.SERVED)
        self.open_processes[req.category] -= 1
        req.dropoff_time = t
        v.onboard.remove(rid)
        rep.alightings += 1
        ride = t - req.pickup_time
        if (req.direct_time is not None
                and ride > self.params.limits.max_ride(req.direct_time) + EPS):
            rep.infeasibilities.append(("detour_violation", rid, ride))
