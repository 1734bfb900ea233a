"""Vehicles and stop schedules.

A schedule is an ordered stop list: terminus departure, outbound fixed stops,
a flexible window (door-to-door stops around a mandatory turnaround), inbound
fixed stops, terminus arrival.  Planned times are kept exact on every stop and
recomputed from the vehicle's committed position whenever the schedule changes.
A schedule a vehicle holds is replaced, never edited, so its stops may be
shared with a candidate schedule built from it.  Every cycle has this shape,
so with k fixed stops a flexible cycle's window opens at stop k and closes at
stop ``len(schedule) - 1 - k`` (new stops go only between the two), a
fixed-route cycle turns at its last fixed stop and has no window, and stop
0's arrival is the dispatch time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class StopKind(Enum):
    TERMINUS_DEPART = "terminus_depart"
    FIXED = "fixed"
    FLEX = "flex"
    TURNAROUND = "turnaround"
    TERMINUS_ARRIVE = "terminus_arrive"


class FleetClass(Enum):
    RESERVED = "reserved"
    CONTROLLABLE = "controllable"


class VehicleStatus(Enum):
    AT_TERMINUS = "at_terminus"
    BOARDING = "boarding"
    EN_ROUTE = "en_route"


@dataclass
class Stop:
    node: int
    kind: StopKind
    board: list = field(default_factory=list)
    alight: list = field(default_factory=list)
    arrival: float = 0.0
    departure: float = 0.0

    def clone(self):
        return Stop(self.node, self.kind, list(self.board), list(self.alight),
                    self.arrival, self.departure)


@dataclass
class Vehicle:
    """One SAV.  Its cycle's window and dispatch time are read off
    ``schedule``, which holds the whole cycle (module docstring)."""
    id: int
    capacity: int
    fleet_class: FleetClass = FleetClass.CONTROLLABLE
    zone: int | None = None          # z_v for the current cycle; None when idle
    status: VehicleStatus = VehicleStatus.AT_TERMINUS
    schedule: list = field(default_factory=list)
    dispatched: int = 0              # len(dispatch_times) at its last dispatch
    terms: tuple | None = None       # schedule_cost_terms of ``schedule``
    next_idx: int = 0                # next stop with a pending arrival event
    onboard: list = field(default_factory=list)
    dist_metric: float = 0.0         # m driven after the warm-up cutoff
    deployed_metric: float = 0.0     # s deployed after the warm-up cutoff

    def free_stop_min(self):
        """Smallest existing stop index whose board/alight lists may change;
        a newly inserted stop goes after it."""
        if self.status is _BOARDING:
            return 0
        return self.next_idx


# the hot loops' enum members, looked up once here and imported elsewhere:
# a member read costs about 90 ns more than a global's (99 against 7 ns by
# timeit, CPython 3.11), paid per stop, event or vehicle compared
_AT_TERMINUS = VehicleStatus.AT_TERMINUS
_BOARDING = VehicleStatus.BOARDING
_EN_ROUTE = VehicleStatus.EN_ROUTE
_CONTROLLABLE = FleetClass.CONTROLLABLE
_FIXED = StopKind.FIXED
_TERMINUS_ARRIVE = StopKind.TERMINUS_ARRIVE
_FULL_DWELL_KINDS = (StopKind.FIXED, StopKind.FLEX)


def stop_dwell(stop, dwell_base, dwell_per_pax):
    npax = len(stop.board) + len(stop.alight)
    if stop.kind in _FULL_DWELL_KINDS:
        return dwell_base + dwell_per_pax * npax
    if stop.kind == StopKind.TURNAROUND:
        return dwell_per_pax * npax
    return 0.0


def retime(schedule, status, next_idx, net, dwell_base, dwell_per_pax,
           first=0):
    """Recompute planned times after the committed anchor, in place.

    BOARDING: stop 0's departure is fixed (the 5-min boarding window).
    EN_ROUTE: the arrival at ``next_idx`` is committed; its dwell and all
    later stops are recomputed.  Only stops from ``first`` on are touched:
    the caller vouches that the stops before it already hold the times a
    full retime gives them (they are unchanged since their last retime).
    """
    n = len(schedule)
    if status == VehicleStatus.BOARDING:
        start = max(1, first)
    elif first <= next_idx < n:
        s = schedule[next_idx]
        if next_idx == n - 1:
            s.departure = s.arrival
        else:
            s.departure = s.arrival + stop_dwell(s, dwell_base, dwell_per_pax)
        start = next_idx + 1
    else:
        start = max(first, next_idx + 1)
    times = net.times
    for j in range(start, n):
        prev = schedule[j - 1]
        s = schedule[j]
        s.arrival = prev.departure + times[prev.node][s.node]
        if j == n - 1:
            s.departure = s.arrival
        else:
            s.departure = s.arrival + stop_dwell(s, dwell_base, dwell_per_pax)


def walk(schedule, net, start_load, from_idx):
    """``(planned, peak, distance)`` of a schedule in one pass over its stops.

    ``planned`` maps request id -> [planned pickup, planned dropoff] in
    order of first appearance, a stop's board list before its alight list;
    a pickup at the terminus departure stop is its departure, every other
    time a stop arrival.  ``peak`` is the most riders on board from stop
    ``from_idx`` on, starting from ``start_load``.  ``distance`` is the
    planned driving distance, summed leg by leg from 0.0.
    """
    planned = {}
    load = peak = start_load
    d = 0.0
    distances = net.distances
    depart = StopKind.TERMINUS_DEPART
    prev = None
    for j, s in enumerate(schedule):
        if j:
            d += distances[prev][s.node]
        prev = s.node
        board, alight = s.board, s.alight
        if board:
            t = s.departure if s.kind is depart else s.arrival
            for rid in board:
                planned.setdefault(rid, [None, None])[0] = t
        if alight:
            t = s.arrival
            for rid in alight:
                planned.setdefault(rid, [None, None])[1] = t
        if j >= from_idx:
            load += len(board) - len(alight)
            if load > peak:
                peak = load
    return planned, peak, d
