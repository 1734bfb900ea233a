"""Synthetic linear feeder corridor street network.

Builds a ladder-shaped network: a mainline polyline with short perpendicular
side streets at fixed spacing.  The mainline is partitioned into a fixed-route
segment (scheduled stops) followed by two flexible zones.  All travel times
are constant per edge, so the network computes its all-pairs travel-time and
distance tables once, when it is built.  The ladder is a tree (no rung joins
two side streets), so each pair of nodes has one path: the tables come from
one walk that roots the tree at the terminus and two passes over it, with no
shortest-path search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

from .costs import check_types, is_real


# the most nodes (terminus, mainline and side streets) a corridor may have:
# its travel tables hold two entries per pair of nodes
MAX_NODES = 2_000


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
        check_types(self, "corridor.", positive=(
            "mainline_length", "side_spacing", "side_node_spacing",
            "mainline_speed", "side_speed"), non_negative=("side_depth",))
        lengths = self.segment_lengths
        if not (isinstance(lengths, (list, tuple)) and len(lengths) == 3
                and all(is_real(s) and s > 0 for s in lengths)):
            raise ValueError("corridor.segment_lengths must be three positive "
                             "numbers, not %r" % (lengths,))
        # a list (as YAML gives) is stored as a tuple, so specs stay hashable
        object.__setattr__(self, "segment_lengths", tuple(lengths))
        if not abs(sum(self.segment_lengths) - self.mainline_length) <= 1e-6:
            raise ValueError(
                "corridor.segment_lengths sum to %.1f, but "
                "corridor.mainline_length is %.1f"
                % (sum(self.segment_lengths), self.mainline_length))
        # build_corridor's node count, by arithmetic
        mainline = _n_offsets(self.mainline_length, self.side_spacing)
        side = _n_offsets(self.side_depth, self.side_node_spacing)
        if 1 + mainline * (1 + side) > MAX_NODES:
            raise ValueError(
                "corridor.mainline_length / corridor.side_spacing and "
                "corridor.side_depth / corridor.side_node_spacing give more "
                "than the %d nodes a corridor may have" % MAX_NODES)


@dataclass
class Network:
    """Immutable street network with all-pairs travel tables.

    ``adj`` must be one connected tree that lists each edge at both ends
    with the same time and length, as ``build_corridor`` makes it; anything
    else raises a ``ValueError``.  ``times[a][b]`` (s) and
    ``distances[a][b]`` (m) hold the travel time and length of the one path
    from ``a`` to ``b``, built on construction by two passes over the tree
    rooted at the terminus.  Each entry is the entry one leg nearer its
    source plus that leg, so it is the left-to-right sum of the legs from
    ``a`` to ``b``, the sum a shortest-path search from ``a`` would build;
    ``times[b][a]`` sums the same legs from the other end and may differ
    from ``times[a][b]`` in the last bits.  ``travel_time``,
    ``travel_distance`` and ``euclidean`` (and so ``walk_time``) check both
    ids inline, one range test each, and raise a ``KeyError`` naming an id
    outside ``0..n_nodes-1``; the inner loops that only index node ids
    taken from this network read the tables directly.  ``snaps`` is
    ``matching.nearest_fixed_stop``'s memo, filled as nodes are snapped.
    """

    coords: list            # node id -> (x, y) meters
    adj: list               # node id -> list of (neighbor, time s, length m)
    labels: list            # node id -> Segment
    terminus: int
    mainline_nodes: list    # mainline node ids ordered by x
    spec: CorridorSpec
    times: list = field(init=False, repr=False, compare=False)
    distances: list = field(init=False, repr=False, compare=False)
    snaps: dict = field(init=False, repr=False, compare=False,
                        default_factory=dict)

    def __post_init__(self):
        n = self.n_nodes
        # root the tree at the terminus: in the pre-order ``order`` each
        # subtree is one slice, and ``children`` lists each node's children
        # in that order
        parent = [None] * n
        leg = [None] * n          # (time, length) of the edge to the parent
        children = [[] for _ in range(n)]
        order = []
        seen = [False] * n
        seen[self.terminus] = True
        stack = [self.terminus]
        while stack:
            u = stack.pop()
            order.append(u)
            if parent[u] is not None:
                children[parent[u]].append(u)
            for v, t, l in self.adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v], leg[v] = u, (t, l)
                    stack.append(v)
                elif v == parent[u] and (t, l) != leg[u]:
                    raise ValueError(
                        "edge %d-%d is (%r s, %r m) at node %d but (%r s, %r "
                        "m) at node %d" % (v, u, *leg[u], v, t, l, u))
        ends = sum(map(len, self.adj))   # each edge is listed at both ends
        if len(order) < n or ends != 2 * (n - 1):
            raise ValueError(
                "the network must be one connected tree, not %d nodes and "
                "%g edges with %d of the nodes reachable from the terminus"
                % (n, ends / 2, len(order)))
        # Column v of a table, listed by the pre-order position of the
        # source.  Upward pass, leaves first: the sources in v's subtree,
        # each child's entries plus the leg from that child to v.
        up_t, up_d = [None] * n, [None] * n
        for v in reversed(order):
            col_t, col_d = [0.0], [0.0]
            for c in children[v]:
                t, l = leg[c]
                col_t += [x + t for x in up_t[c]]
                col_d += [x + l for x in up_d[c]]
            up_t[v], up_d[v] = col_t, col_d
        # Downward pass, root first: the sources outside v's subtree, the
        # parent's entries plus the leg from the parent to v.
        cols_t, cols_d = up_t[:], up_d[:]
        for i in range(1, n):
            v = order[i]
            end = i + len(up_t[v])
            t, l = leg[v]
            pt, pd = cols_t[parent[v]], cols_d[parent[v]]
            cols_t[v] = ([x + t for x in pt[:i]] + up_t[v]
                         + [x + t for x in pt[end:]])
            cols_d[v] = ([x + l for x in pd[:i]] + up_d[v]
                         + [x + l for x in pd[end:]])
        self.times, self.distances = [None] * n, [None] * n
        for src, row_t, row_d in zip(order, zip(*cols_t), zip(*cols_d)):
            self.times[src], self.distances[src] = list(row_t), list(row_d)

    @property
    def n_nodes(self):
        return len(self.coords)

    def is_mainline(self, node):
        return self.coords[node][1] == 0.0

    def travel_time(self, a, b):
        n = len(self.times)
        if 0 <= a < n and 0 <= b < n:
            return self.times[a][b]
        raise KeyError("unknown node id %r" % (b if 0 <= a < n else a,))

    def travel_distance(self, a, b):
        n = len(self.distances)
        if 0 <= a < n and 0 <= b < n:
            return self.distances[a][b]
        raise KeyError("unknown node id %r" % (b if 0 <= a < n else a,))

    def euclidean(self, a, b):
        n = len(self.coords)
        if 0 <= a < n and 0 <= b < n:
            (xa, ya), (xb, yb) = self.coords[a], self.coords[b]
            return math.hypot(xa - xb, ya - yb)
        raise KeyError("unknown node id %r" % (b if 0 <= a < n else a,))

    def walk_time(self, a, b, walk_speed):
        """Straight-line walking time in seconds."""
        return self.euclidean(a, b) / walk_speed

    def walk_time_to_mainline(self, node, walk_speed):
        """Walk time from a node to the nearest point on the mainline (y=0)."""
        return abs(self.coords[node][1]) / walk_speed

    def nearest_mainline_node(self, x):
        """Mainline node id whose x-coordinate is closest to x (lower id wins ties)."""
        best, best_d = self.mainline_nodes[0], math.inf
        for nid in self.mainline_nodes:
            d = abs(self.coords[nid][0] - x)
            if d < best_d - 1e-9:
                best, best_d = nid, d
        return best


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


def _n_offsets(total, step):
    """``len(_offsets(total, step))`` by arithmetic, counting no further
    than MAX_NODES + 1, so that a huge count neither loops nor overflows."""
    return max(0, math.ceil(min((total - 1e-9) / step, MAX_NODES + 1)))


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
