import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodfeeder.cli import main
from sodfeeder.corridor import CorridorSpec, Segment, build_corridor

from oracles import bellman_ford_time, oracle_tables


def test_default_node_count(net):
    # mainline: terminus + 28 nodes at 200 m spacing up to 5600 m
    assert len(net.mainline_nodes) == 29
    # each non-terminus mainline node gets a stub: 300 m deep, nodes at
    # 150 m and 300 m
    assert net.n_nodes == 29 + 28 * 2


def test_segment_labels(net):
    for nid in range(net.n_nodes):
        x = net.coords[nid][0]
        if x <= 1200:
            assert net.labels[nid] == Segment.FIXED
        elif x <= 3400:
            assert net.labels[nid] == Segment.ZONE1
        else:
            assert net.labels[nid] == Segment.ZONE2


def test_terminus_is_node_zero(net):
    assert net.terminus == 0
    assert net.coords[0] == (0.0, 0.0)


def test_mainline_travel_time_hand_check(net):
    # 5600 m of mainline at 9 m/s
    end = net.nearest_mainline_node(5600)
    assert net.travel_time(0, end) == pytest.approx(5600 / 9.0)
    assert net.travel_distance(0, end) == pytest.approx(5600.0)


def test_side_street_travel_time_hand_check(net):
    # deepest node of the first stub: 200 m mainline + 300 m side street
    base = net.nearest_mainline_node(200)
    stub = [n for n in range(net.n_nodes)
            if net.coords[n][0] == 200.0 and net.coords[n][1] == 300.0]
    assert len(stub) == 1
    expect = 200 / 9.0 + 300 / 5.0
    assert net.travel_time(0, stub[0]) == pytest.approx(expect)


def test_times_match_bellman_ford(net):
    for src in [0, 7, net.n_nodes - 1, 40]:
        oracle = bellman_ford_time(net, src)
        for dst in range(net.n_nodes):
            assert net.travel_time(src, dst) == pytest.approx(
                oracle[dst], abs=1e-9)


def test_travel_time_symmetric(net):
    for a, b in [(0, 30), (12, 60), (5, 84)]:
        assert net.travel_time(a, b) == pytest.approx(net.travel_time(b, a))


LADDERS = pytest.mark.parametrize("spec", [
    CorridorSpec(),
    CorridorSpec(side_depth=0.0),
    # spacings that do not divide the mainline or the side-street depth
    CorridorSpec(mainline_length=5000.0,
                 segment_lengths=(1100.0, 1900.0, 2000.0), side_spacing=300.0,
                 side_depth=250.0, side_node_spacing=110.0, side_speed=4.0),
], ids=["default", "linear", "uneven"])


@LADDERS
def test_tables_match_the_ladder_closed_form(spec):
    # every side street hangs off one mainline node with no rungs between
    # them, so the corridor is a tree and each pair of nodes has one path
    net = build_corridor(spec)
    n = net.n_nodes
    assert sum(len(nbrs) for nbrs in net.adj) == 2 * (n - 1)
    for a in range(n):
        xa, ya = net.coords[a]
        for b in range(n):
            xb, yb = net.coords[b]
            if xa == xb:
                t, d = abs(ya - yb) / spec.side_speed, abs(ya - yb)
            else:
                t = abs(xa - xb) / spec.mainline_speed \
                    + (ya + yb) / spec.side_speed
                d = abs(xa - xb) + ya + yb
            assert net.times[a][b] == pytest.approx(t, rel=1e-12, abs=1e-9)
            assert net.distances[a][b] == pytest.approx(d, rel=1e-12, abs=1e-9)
            assert net.travel_time(a, b) == net.times[a][b]
            assert net.travel_distance(a, b) == net.distances[a][b]


def _assert_tables_equal_the_oracle(net):
    """Every entry, bit for bit (signs of zero included): the tree passes
    sum each path's legs in the order one Dijkstra per source does."""
    times, distances = oracle_tables(net)
    assert [[x.hex() for x in row] for row in net.times] == \
        [[x.hex() for x in row] for row in times]
    assert [[x.hex() for x in row] for row in net.distances] == \
        [[x.hex() for x in row] for row in distances]


@LADDERS
def test_tables_equal_one_dijkstra_per_source_bit_for_bit(spec):
    _assert_tables_equal_the_oracle(build_corridor(spec))


def _with_adj(net, adj, extra_nodes=0):
    return dataclasses.replace(
        net, adj=adj, coords=net.coords + [(0.0, -1.0)] * extra_nodes,
        labels=net.labels + [Segment.FIXED] * extra_nodes)


def test_an_edge_whose_two_ends_disagree_is_refused(net):
    # the tables take each leg from the parent's end, so a child that lists
    # its edge otherwise would go unseen
    for u, v in ((29, 1), (1, 29)):
        adj = [list(nbrs) for nbrs in net.adj]
        adj[u] = [(w, 2 * t if w == v else t, l) for w, t, l in adj[u]]
        with pytest.raises(ValueError, match=r"^edge 1-29 is .* at node 29$"):
            _with_adj(net, adj)


def test_an_adjacency_that_is_not_one_tree_is_refused(net):
    def linked(adj, u, v, t=1.0, length=9.0):
        adj = [list(nbrs) for nbrs in adj]
        adj[u].append((v, t, length))
        adj[v].append((u, t, length))
        return adj

    def cut(adj, u, v):
        return [[e for e in nbrs if {i, e[0]} != {u, v}]
                for i, nbrs in enumerate(adj)]

    assert _with_adj(net, net.adj).times == net.times
    rung = linked(net.adj, 29, 31)           # joins two side streets
    with pytest.raises(ValueError, match=r"\b85 nodes and 85 edges"):
        _with_adj(net, rung)
    with pytest.raises(ValueError, match=r"\b86 nodes and 84 edges"):
        _with_adj(net, net.adj + [[]], extra_nodes=1)
    # as many edges as a tree has, but one of them closes a cycle
    with pytest.raises(ValueError, match=r"\b85 nodes and 84 edges with 83"):
        _with_adj(net, cut(rung, 28, 83))


def _obeys_the_triangle_inequality(net):
    """times[a][b] <= times[a][x] + times[x][b] + 1e-9 for every triple:
    the premise of matching's window-slack screen."""
    t = np.array(net.times)
    return bool((t[:, None, :] <= t[:, :, None] + t[None, :, :] + 1e-9).all())


@pytest.mark.parametrize("spec", [CorridorSpec(), CorridorSpec(side_depth=0)],
                         ids=["default", "no_side_streets"])
def test_travel_times_obey_the_triangle_inequality(spec):
    assert _obeys_the_triangle_inequality(build_corridor(spec))


@st.composite
def corridor_specs(draw):
    lengths = tuple(draw(st.floats(300.0, 2500.0)) for _ in range(3))
    return CorridorSpec(
        mainline_length=sum(lengths), segment_lengths=lengths,
        side_spacing=draw(st.floats(250.0, 900.0)),
        side_depth=draw(st.sampled_from([0.0, 150.0, 320.0, 450.0])),
        side_node_spacing=draw(st.floats(120.0, 400.0)),
        mainline_speed=draw(st.floats(4.0, 15.0)),
        side_speed=draw(st.floats(2.0, 8.0)))


@given(spec=corridor_specs())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_random_corridors_obey_the_triangle_inequality(spec):
    assert _obeys_the_triangle_inequality(build_corridor(spec))


@given(spec=corridor_specs())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_random_corridor_tables_equal_one_dijkstra_per_source(spec):
    _assert_tables_equal_the_oracle(build_corridor(spec))


def test_deterministic_rebuild(net):
    other = build_corridor()
    assert other.coords == net.coords
    assert other.labels == net.labels
    for u in range(net.n_nodes):
        assert other.adj[u] == net.adj[u]


def test_walk_time_euclidean(net):
    base = net.nearest_mainline_node(400)
    assert net.walk_time(0, base, 1.25) == pytest.approx(400 / 1.25)
    # walk time to the mainline only depends on y
    deep = [n for n in range(net.n_nodes)
            if net.coords[n][0] == 400.0 and net.coords[n][1] == 300.0][0]
    assert net.walk_time_to_mainline(deep, 1.25) == pytest.approx(300 / 1.25)
    assert net.walk_time_to_mainline(base, 1.25) == 0.0


def test_walk_time_triangle_inequality(net):
    for a, b, c in [(0, 10, 20), (3, 44, 60)]:
        ab = net.walk_time(a, b, 1.25)
        bc = net.walk_time(b, c, 1.25)
        ac = net.walk_time(a, c, 1.25)
        assert ac <= ab + bc + 1e-9


def test_nearest_mainline_node(net):
    assert net.nearest_mainline_node(0) == 0
    n = net.nearest_mainline_node(1201)
    assert net.coords[n][0] == pytest.approx(1200.0)


def test_unknown_node_raises(net):
    # a bare list read would take -1 from the end and so return a value
    n = net.n_nodes
    queries = [net.travel_time, net.travel_distance, net.euclidean,
               lambda a, b: net.walk_time(a, b, 1.25)]
    for query in queries:
        for bad in (-1, n, n + 5):
            for good in (0, n - 1):
                for a, b in ((bad, good), (good, bad)):
                    with pytest.raises(KeyError) as err:
                        query(a, b)
                    assert err.value.args == ("unknown node id %d" % bad,)
            with pytest.raises(KeyError, match="unknown node id"):
                query(bad, bad)


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        CorridorSpec(segment_lengths=(1000.0, 1000.0, 1000.0))
    with pytest.raises(ValueError):
        CorridorSpec(mainline_speed=0.0)


def test_pure_linear_network():
    spec = CorridorSpec(side_depth=0.0)
    net = build_corridor(spec)
    assert net.n_nodes == len(net.mainline_nodes)


def test_dump_csv(tmp_path, net):
    out = tmp_path / "net"
    assert main(["dump-network", "--out", str(out)]) == 0
    lines = (out / "nodes.csv").read_text().strip().splitlines()
    assert len(lines) == net.n_nodes + 1
    assert lines[0] == "id,x,y,segment,is_mainline"
    for i, line in enumerate(lines[1:]):
        nid, _, _, seg, main_flag = line.split(",")
        assert int(nid) == i
        assert seg == net.labels[i].name
        assert int(main_flag) == int(net.is_mainline(i))
    edges = (out / "edges.csv").read_text().strip().splitlines()
    assert edges[0] == "u,v,length,time"
    assert len(edges) - 1 == sum(len(legs) for legs in net.adj)
