"""Vehicles and stop schedules.

A schedule is an ordered stop list: terminus departure, outbound fixed stops,
a flexible window (door-to-door stops around a mandatory turnaround), inbound
fixed stops, terminus arrival.  Planned times are kept exact on every stop and
recomputed from the vehicle's committed position whenever the schedule changes.
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
    id: int
    capacity: int = 20
    fleet_class: FleetClass = FleetClass.CONTROLLABLE
    zone: int | None = None          # z_v for the current cycle; None when idle
    status: VehicleStatus = VehicleStatus.AT_TERMINUS
    schedule: list = field(default_factory=list)
    epoch: int = 0                   # world epoch of the last schedule change
    next_idx: int = 0                # next stop with a pending arrival event
    onboard: list = field(default_factory=list)
    window_open_idx: int | None = None   # last outbound fixed stop
    window_close_idx: int | None = None  # first inbound fixed stop
    dispatch_time: float | None = None
    dist_metric: float = 0.0         # m driven after the warm-up cutoff
    deployed_metric: float = 0.0     # s deployed after the warm-up cutoff

    def free_insert_min(self):
        """Smallest schedule index a newly inserted stop may take."""
        if self.status == VehicleStatus.BOARDING:
            return 1
        return self.next_idx + 1

    def free_stop_min(self):
        """Smallest existing stop index whose board/alight lists may change."""
        if self.status == VehicleStatus.BOARDING:
            return 0
        return self.next_idx


# looked up once: enum member access is slow, and stop_dwell runs for every
# stop of every candidate schedule
_FULL_DWELL_KINDS = (StopKind.FIXED, StopKind.FLEX)


def stop_dwell(stop, dwell_base, dwell_per_pax):
    npax = len(stop.board) + len(stop.alight)
    if stop.kind in _FULL_DWELL_KINDS:
        return dwell_base + dwell_per_pax * npax
    if stop.kind == StopKind.TURNAROUND:
        return dwell_per_pax * npax
    return 0.0


def retime(schedule, status, next_idx, net, dwell_base, dwell_per_pax):
    """Recompute planned times after the committed anchor, in place.

    BOARDING: stop 0's departure is fixed (the 5-min boarding window).
    EN_ROUTE: the arrival at ``next_idx`` is committed; its dwell and all
    later stops are recomputed.
    """
    if not schedule:
        return
    if status == VehicleStatus.BOARDING:
        start = 1
    else:
        j = next_idx
        if j >= len(schedule):
            return
        s = schedule[j]
        if j == len(schedule) - 1:
            s.departure = s.arrival
        else:
            s.departure = s.arrival + stop_dwell(s, dwell_base, dwell_per_pax)
        start = j + 1
    times = net.times
    for j in range(start, len(schedule)):
        prev = schedule[j - 1]
        s = schedule[j]
        s.arrival = prev.departure + times[prev.node][s.node]
        if j == len(schedule) - 1:
            s.departure = s.arrival
        else:
            s.departure = s.arrival + stop_dwell(s, dwell_base, dwell_per_pax)


def planned_times(schedule):
    """Map request id -> (planned pickup time, planned dropoff time).

    Pickups at the terminus departure stop use the departure time; everything
    else uses the stop arrival.
    """
    out = {}
    for s in schedule:
        for rid in s.board:
            t = s.departure if s.kind == StopKind.TERMINUS_DEPART else s.arrival
            out.setdefault(rid, [None, None])[0] = t
        for rid in s.alight:
            out.setdefault(rid, [None, None])[1] = s.arrival
    return out


def schedule_distance(schedule, net):
    """Planned driving distance over the whole stop sequence."""
    distances = net.distances
    d = 0.0
    for a, b in zip(schedule, schedule[1:]):
        d += distances[a.node][b.node]
    return d


def peak_load(schedule, start_load, from_idx):
    """Maximum onboard count reached from ``from_idx`` onward."""
    load = start_load
    peak = start_load
    for s in schedule[from_idx:]:
        load -= len(s.alight)
        load += len(s.board)
        peak = max(peak, load)
    return peak
