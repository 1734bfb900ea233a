import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodfeeder import demand
from sodfeeder.corridor import CorridorSpec
from sodfeeder.demand import (DemandProfile, Request, RequestState,
                              endpoint_weights, forecast_demand,
                              generate_instance, segment_shares)
from sodfeeder.dispatch import PolicyKind
from sodfeeder.experiments import run_simulation
from sodfeeder.scenario import Scenario, build_world

from oracles import oracle_generate_instance


def test_same_seed_same_instance(net):
    p = DemandProfile()
    a = generate_instance(net, p, 10800, 42)
    b = generate_instance(net, p, 10800, 42)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert (ra.t_r, ra.origin, ra.destination) == \
            (rb.t_r, rb.origin, rb.destination)


def _draws_via_rng_choice(net, profile, horizon, seed):
    """(t_r, non-terminus node, from terminus) as ``generate_instance`` drew
    them with ``rng.choice(n_nodes, p=...)``."""
    rng = np.random.default_rng(seed)
    w = endpoint_weights(net, profile)
    probs = w / w.sum()
    rate_max = max(profile.base_rate, profile.end_rate) / 3600.0
    out, t = [], 0.0
    while True:
        t += rng.exponential(1.0 / rate_max)
        if t >= horizon:
            return out
        if rng.random() > profile.rate_at(t, horizon) / rate_max:
            continue
        node = int(rng.choice(net.n_nodes, p=probs))
        out.append((t, node, rng.random() < profile.direction_split))


def test_endpoint_draws_equal_rng_choice(net):
    # generate_instance searches a cumulative table instead of calling
    # rng.choice(p=...); a numpy whose choice draws differently fails here
    p = DemandProfile(base_rate=2000.0, end_rate=500.0)
    for seed in range(3):
        reqs = generate_instance(net, p, 10800, seed)
        got = [(r.t_r, r.destination if r.origin == net.terminus
                else r.origin, r.origin == net.terminus) for r in reqs]
        assert got == _draws_via_rng_choice(net, p, 10800, seed)
        assert len(got) > 3000


def test_different_seeds_differ(net):
    p = DemandProfile()
    a = generate_instance(net, p, 10800, 1)
    b = generate_instance(net, p, 10800, 2)
    assert [r.t_r for r in a] != [r.t_r for r in b]


def test_sorted_and_feeder_shaped(net):
    reqs = generate_instance(net, DemandProfile(), 10800, 7)
    times = [r.t_r for r in reqs]
    assert times == sorted(times)
    for r in reqs:
        # exactly one endpoint is the terminus
        assert (r.origin == net.terminus) != (r.destination == net.terminus)
        assert 0 <= r.t_r < 10800
        assert r.state is RequestState.PENDING


def test_mean_count_matches_rate_integral(net):
    p = DemandProfile(base_rate=60, end_rate=20)
    horizon = 10800.0
    expected = forecast_demand(p, horizon, 0.0, horizon)
    # trapezoid of a linear rate: (60+20)/2 per hour * 3 hours = 120
    assert expected == pytest.approx(120.0)
    counts = [len(generate_instance(net, p, horizon, s)) for s in range(300)]
    mean = np.mean(counts)
    # 3-sigma band around the Poisson mean
    assert abs(mean - expected) < 3 * np.sqrt(expected / len(counts))


def _fields(requests):
    return [(r.id, r.t_r, r.origin, r.destination) for r in requests]


rates = st.one_of(st.just(0.0), st.floats(0.0, 400.0))


@given(base_rate=rates, end_rate=rates,
       direction_split=st.one_of(st.sampled_from([0.0, 1.0]),
                                 st.floats(0.0, 1.0)),
       walk_cap=st.floats(50.0, 900.0),
       side_depth=st.sampled_from([0.0, 300.0]),
       horizon=st.floats(60.0, 7200.0),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_memoized_instance_equals_the_oracle(base_rate, end_rate,
                                             direction_split, walk_cap,
                                             side_depth, horizon, seed):
    net = Scenario(corridor=CorridorSpec(side_depth=side_depth)).network()
    p = DemandProfile(base_rate=base_rate, end_rate=end_rate,
                      direction_split=direction_split, walk_cap=walk_cap)
    want = _fields(oracle_generate_instance(net, p, horizon, seed))
    demand._trips.clear()
    assert _fields(generate_instance(net, p, horizon, seed)) == want
    assert _fields(generate_instance(net, p, horizon, seed)) == want


def test_an_episode_leaves_the_memoized_instance_untouched():
    sc = Scenario()
    _, first = run_simulation(sc, PolicyKind.SOD, 5)
    assert any(r.state is RequestState.SERVED for r in first.requests)
    again = build_world(sc, PolicyKind.NOMINAL_ZONAL, 5).requests
    assert len(again) == len(first.requests) > 0
    assert not {id(r) for r in again} & {id(r) for r in first.requests}
    # a new request equals one built from the drawn trip alone: PENDING,
    # with no vehicle, times or service plan
    assert again == [Request(r.id, r.t_r, r.origin, r.destination)
                     for r in again]


def test_endpoint_weights_decay_with_walk_time(net):
    p = DemandProfile(walk_cap=600, walk_speed=1.25)
    w = endpoint_weights(net, p)
    assert w[net.terminus] == 0.0
    base = net.nearest_mainline_node(400)
    deep = [n for n in range(net.n_nodes)
            if net.coords[n][0] == 400.0 and net.coords[n][1] == 300.0][0]
    mid = [n for n in range(net.n_nodes)
           if net.coords[n][0] == 400.0 and net.coords[n][1] == 150.0][0]
    assert w[base] == pytest.approx(1.0)
    assert w[mid] == pytest.approx(1.0 - (150 / 1.25) / 600)
    assert w[base] > w[mid] > w[deep] > 0.0


def test_rate_interpolates_linearly():
    p = DemandProfile(base_rate=60, end_rate=20)
    assert p.rate_at(0, 10800) == pytest.approx(60 / 3600)
    assert p.rate_at(10800, 10800) == pytest.approx(20 / 3600)
    assert p.rate_at(5400, 10800) == pytest.approx(40 / 3600)
    assert p.rate_at(-1, 10800) == 0.0


def test_forecast_clipped_at_horizon():
    p = DemandProfile()
    tail = forecast_demand(p, 10800, 10500, 900)
    full = forecast_demand(p, 10800, 9900, 900)
    assert 0 < tail < full
    assert forecast_demand(p, 10800, 10800, 900) == 0.0


def test_segment_shares_sum_to_one(net):
    shares = segment_shares(net, DemandProfile())
    assert sum(shares.values()) == pytest.approx(1.0)
    assert all(v > 0 for v in shares.values())


def test_direction_split(net):
    p = DemandProfile(direction_split=1.0)
    reqs = generate_instance(net, p, 10800, 3)
    assert all(r.origin == net.terminus for r in reqs)
    p = DemandProfile(direction_split=0.0)
    reqs = generate_instance(net, p, 10800, 3)
    assert all(r.destination == net.terminus for r in reqs)


def test_lifecycle_transitions():
    r = Request(0, 0.0, 0, 5)
    r.transition(RequestState.ASSIGNED)
    r.transition(RequestState.RIDING)
    r.transition(RequestState.SERVED)
    with pytest.raises(ValueError):
        r.transition(RequestState.REJECTED)
    r2 = Request(1, 0.0, 5, 0)
    with pytest.raises(ValueError):
        r2.transition(RequestState.RIDING)


def test_every_state_pair_against_the_legal_moves():
    legal = {("pending", "assigned"), ("pending", "rejected"),
             ("assigned", "riding"), ("riding", "served")}
    pairs = [(a, b) for a in RequestState for b in RequestState]
    assert len(pairs) == 25
    for old, new in pairs:
        r = Request(0, 0.0, 0, 5, state=old)
        if (old.value, new.value) in legal:
            r.transition(new)
            assert r.state is new
        else:
            with pytest.raises(ValueError, match="illegal lifecycle"):
                r.transition(new)
            assert r.state is old


def test_invalid_profile_rejected():
    with pytest.raises(ValueError):
        DemandProfile(base_rate=-1)
    with pytest.raises(ValueError):
        DemandProfile(direction_split=1.5)
