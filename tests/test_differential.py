"""Whole episodes on random scenarios, against the reference loop.

The production loop (``DispatchController``, ``match_step``,
``World.advance_step``, and ``ZonalDispatchEnv.step`` for RL zonal control)
runs beside a twin world driven by the references in ``oracles``: the
list-building dispatch, the brute-force ``oracle_match`` and the rescanning
``rescan_advance_step``, on the demand ``oracle_generate_instance`` draws.
Every shortcut of the production loop (the screens, the rank and retry
shortcuts, the stop-snap memo, the event heap, the one-pass dispatch, the
demand memo) must leave each step's rejections and assignments, every
request's times and the run metrics exactly as the references give them.
An RL episode takes seeded random actions, and each of its observations
must equal ``oracle_observe`` byte for byte.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sodfeeder.corridor import CorridorSpec
from sodfeeder.demand import RequestState
from sodfeeder.dispatch import DispatchController, PolicyKind
from sodfeeder.econ import generalized_cost
from sodfeeder.env import N_ACTIONS, ZonalDispatchEnv
from sodfeeder.matching import match_step
from sodfeeder.scenario import Scenario, build_world
from sodfeeder.sim import World

from oracles import (RescanDispatchController, oracle_generate_instance,
                     oracle_match, oracle_observe, rescan_advance_step)
from worldgen import scenarios, walk_of

POLICIES = list(PolicyKind)


def _decisions(world):
    """Each request's state and vehicle: equal lists mean equal rejections
    and assignments so far."""
    return [(r.state, r.vehicle) for r in world.requests]


def _times(world):
    """Each served request's access, pickup and dropoff times."""
    return [(r.id, r.access_time, r.pickup_time, r.dropoff_time)
            for r in world.requests if r.state is RequestState.SERVED]


def _assert_same_episode(sc, kind, seed):
    net = sc.network()
    walk = walk_of(sc)
    actions = np.random.default_rng(seed).integers(N_ACTIONS, size=sc.n_steps)
    if kind is PolicyKind.RL_ZONAL:
        env = ZonalDispatchEnv(sc, net=net)
        obs = env.reset(seed)
        world = env.world
    else:
        world = build_world(sc, kind, seed, net=net)
        ctrl = DispatchController(world, kind, sc.dispatch)
    twin = World(net, sc, oracle_generate_instance(net, sc.demand, sc.horizon,
                                                   seed),
                 fixed_only=kind.fixed_only, split_fleet=kind.split_fleet)
    twin_ctrl = RescanDispatchController(twin, kind, sc.dispatch)
    for k in range(sc.n_steps):
        if kind is PolicyKind.RL_ZONAL:
            assert obs.tobytes() == oracle_observe(env).tobytes(), k
            obs, _, _, _ = env.step(actions[k])
            twin_ctrl.baseline_dispatch()
            twin_ctrl.apply_action(int(actions[k]))
        else:
            ctrl.baseline_dispatch()
            match_step(world, **walk)
            world.advance_step()
            twin_ctrl.baseline_dispatch()
        oracle_match(twin, **walk)
        rescan_advance_step(twin)
        assert _decisions(world) == _decisions(twin), k
    assert world.dispatch_log == twin.dispatch_log
    assert _times(world) == _times(twin)
    # repr, so that a NaN cost per passenger compares equal to itself
    assert repr(generalized_cost(world)) == repr(generalized_cost(twin))


@given(sc=scenarios(), kind=st.sampled_from(POLICIES),
       seed=st.integers(0, 10**4))
@example(sc=Scenario(n_vehicles=3, n_reserved=3, horizon=3600.0, warmup=0.0),
         kind=PolicyKind.RL_ZONAL, seed=1)
@example(sc=Scenario(corridor=CorridorSpec(side_depth=0.0), horizon=3600.0,
                     warmup=0.0, n_vehicles=1, n_reserved=0),
         kind=PolicyKind.SOD, seed=2)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_episodes_equal_the_reference_loop(sc, kind, seed):
    _assert_same_episode(sc, kind, seed)
