"""Synthetic linear feeder corridor street network.

Builds a ladder-shaped network: a mainline polyline with short perpendicular
side streets at fixed spacing.  The mainline is partitioned into a fixed-route
segment (scheduled stops) followed by two flexible zones.  All travel times
are constant per edge, so the network computes its all-pairs travel-time and
distance tables once, when it is built.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass, field
from enum import IntEnum


class Segment(IntEnum):
    FIXED = 0
    ZONE1 = 1
    ZONE2 = 2


@dataclass(frozen=True)
class CorridorSpec:
    """Geometry of the synthetic corridor.

    Lengths in meters, speeds in m/s.  ``segment_lengths`` must sum to
    ``mainline_length``.  ``side_depth`` of 0 gives a pure linear network.
    """

    mainline_length: float = 5600.0
    segment_lengths: tuple = (1200.0, 2200.0, 2200.0)
    side_spacing: float = 200.0
    side_depth: float = 300.0
    side_node_spacing: float = 150.0
    mainline_speed: float = 9.0
    side_speed: float = 5.0

    def __post_init__(self):
        # a list (as YAML gives) is stored as a tuple, so specs stay hashable
        object.__setattr__(self, "segment_lengths",
                           tuple(self.segment_lengths))
        for name in ("mainline_length", "side_spacing", "side_node_spacing",
                     "mainline_speed", "side_speed"):
            if not getattr(self, name) > 0:
                raise ValueError("corridor.%s must be positive" % name)
        if not self.side_depth >= 0:
            raise ValueError("corridor.side_depth must be non-negative")
        if (len(self.segment_lengths) != 3
                or not all(s > 0 for s in self.segment_lengths)):
            raise ValueError("corridor needs three positive segment lengths")
        if not abs(sum(self.segment_lengths) - self.mainline_length) <= 1e-6:
            raise ValueError(
                "segment lengths sum to %.1f, expected mainline length %.1f"
                % (sum(self.segment_lengths), self.mainline_length)
            )


@dataclass
class Network:
    """Immutable street network with all-pairs travel tables.

    ``times[a][b]`` (s) and ``distances[a][b]`` (m) hold the shortest-path
    travel time and length between every pair of nodes, computed on
    construction by one Dijkstra per source.  ``travel_time`` and
    ``travel_distance`` read them with node-id checks; the inner loops that
    only index node ids taken from this network read the tables directly.
    """

    coords: list            # node id -> (x, y) meters
    adj: list               # node id -> list of (neighbor, time s, length m)
    labels: list            # node id -> Segment
    terminus: int
    mainline_nodes: list    # mainline node ids ordered by x
    spec: CorridorSpec
    times: list = field(init=False, repr=False, compare=False)
    distances: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = [self._dijkstra(src) for src in range(self.n_nodes)]
        self.times = [t for t, _ in rows]
        self.distances = [d for _, d in rows]

    @property
    def n_nodes(self):
        return len(self.coords)

    def is_mainline(self, node):
        return self.coords[node][1] == 0.0

    def _check_node(self, node):
        if not (0 <= node < self.n_nodes):
            raise KeyError("unknown node id %r" % (node,))

    def _dijkstra(self, src):
        """Shortest times from ``src`` and the lengths of those paths."""
        time = [math.inf] * self.n_nodes
        dist = [math.inf] * self.n_nodes
        time[src] = 0.0
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            t, u = heapq.heappop(heap)
            if t > time[u]:
                continue
            for v, et, el in self.adj[u]:
                if t + et < time[v]:
                    time[v] = t + et
                    dist[v] = dist[u] + el
                    heapq.heappush(heap, (time[v], v))
        return time, dist

    def travel_time(self, a, b):
        self._check_node(a)
        self._check_node(b)
        return self.times[a][b]

    def travel_distance(self, a, b):
        self._check_node(a)
        self._check_node(b)
        return self.distances[a][b]

    def euclidean(self, a, b):
        self._check_node(a)
        self._check_node(b)
        (xa, ya), (xb, yb) = self.coords[a], self.coords[b]
        return math.hypot(xa - xb, ya - yb)

    def walk_time(self, a, b, walk_speed):
        """Straight-line walking time in seconds."""
        if walk_speed <= 0:
            raise ValueError("walk_speed must be positive")
        return self.euclidean(a, b) / walk_speed

    def walk_time_to_mainline(self, node, walk_speed):
        """Walk time from a node to the nearest point on the mainline (y=0)."""
        if walk_speed <= 0:
            raise ValueError("walk_speed must be positive")
        return abs(self.coords[node][1]) / walk_speed

    def nearest_mainline_node(self, x):
        """Mainline node id whose x-coordinate is closest to x (lower id wins ties)."""
        best, best_d = self.mainline_nodes[0], math.inf
        for nid in self.mainline_nodes:
            d = abs(self.coords[nid][0] - x)
            if d < best_d - 1e-9:
                best, best_d = nid, d
        return best

    def dump_csv(self, nodes_path, edges_path):
        with open(nodes_path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "x", "y", "segment", "is_mainline"])
            for i, (x, y) in enumerate(self.coords):
                w.writerow([i, x, y, self.labels[i].name, int(self.is_mainline(i))])
        with open(edges_path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["u", "v", "length", "time"])
            for u in range(self.n_nodes):
                for v, t, l in self.adj[u]:
                    w.writerow([u, v, l, t])


def _segment_of(x, bounds):
    if x <= bounds[0] + 1e-9:
        return Segment.FIXED
    if x <= bounds[1] + 1e-9:
        return Segment.ZONE1
    return Segment.ZONE2


def _offsets(total, step):
    """Positions step, 2*step, ... plus the endpoint if not aligned."""
    out = []
    k = 1
    while k * step < total - 1e-9:
        out.append(k * step)
        k += 1
    if total > 1e-9:
        out.append(total)
    return out


def build_corridor(spec=None):
    """Build the ladder corridor network.

    Mainline nodes sit every ``side_spacing`` meters from the terminus (x=0)
    to the end of the corridor.  Every mainline node except the terminus gets
    one perpendicular side street of ``side_depth`` meters with nodes every
    ``side_node_spacing``.
    """
    if spec is None:
        spec = CorridorSpec()
    b1 = spec.segment_lengths[0]
    b2 = spec.segment_lengths[0] + spec.segment_lengths[1]
    bounds = (b1, b2)

    coords = [(0.0, 0.0)]
    xs = _offsets(spec.mainline_length, spec.side_spacing)
    for x in xs:
        coords.append((x, 0.0))
    mainline_nodes = list(range(len(coords)))

    adj = [[] for _ in coords]

    def add_edge(u, v, speed):
        (xu, yu), (xv, yv) = coords[u], coords[v]
        length = math.hypot(xu - xv, yu - yv)
        t = length / speed
        adj[u].append((v, t, length))
        adj[v].append((u, t, length))

    for i in range(len(mainline_nodes) - 1):
        add_edge(mainline_nodes[i], mainline_nodes[i + 1], spec.mainline_speed)

    if spec.side_depth > 0:
        for base in mainline_nodes[1:]:
            prev = base
            for y in _offsets(spec.side_depth, spec.side_node_spacing):
                coords.append((coords[base][0], y))
                adj.append([])
                nid = len(coords) - 1
                add_edge(prev, nid, spec.side_speed)
                prev = nid

    labels = [_segment_of(x, bounds) for x, _ in coords]
    return Network(coords=coords, adj=adj, labels=labels, terminus=0,
                   mainline_nodes=mainline_nodes, spec=spec)
