import dataclasses

import numpy as np

from sodfeeder import demand
from sodfeeder.dispatch import PolicyKind
from sodfeeder.env import N_ACTIONS, STATE_DIM
from sodfeeder.experiments import compare, run_simulation
from sodfeeder.nets import MLP
from sodfeeder.scenario import Scenario


def test_compare_equals_its_cells_and_draws_each_seed_once(monkeypatch):
    sc = Scenario(horizon=3600.0, warmup=600.0)
    actor = MLP([STATE_DIM, 64, 64, N_ACTIONS], np.random.default_rng(2),
                out_gain=0.01)
    policies, seeds = list(PolicyKind), [3, 4, 5]
    draws = []
    draw = demand._draw_trips

    def counted(net, profile, horizon, seed):
        draws.append(seed)
        return draw(net, profile, horizon, seed)

    # with room for one instance only seed-major order draws each seed once
    monkeypatch.setattr(demand, "MEMO_SIZE", 1)
    monkeypatch.setattr(demand, "_trips", {})
    monkeypatch.setattr(demand, "_draw_trips", counted)
    results, info = compare(sc, policies, seeds, actor=actor)
    assert draws == seeds

    assert list(results) == policies
    counts = np.zeros((sc.n_steps // sc.rl_period, N_ACTIONS))
    for kind in policies:
        cells = []
        for seed in seeds:
            m, world = run_simulation(sc, kind, seed, actor=actor)
            cells.append(m)
            for t, a in enumerate(world.rl_actions):
                counts[t, a] += 1
        # repr, so that a NaN cost per passenger compares equal
        assert [repr(dataclasses.astuple(m)) for m in results[kind]] == \
            [repr(dataclasses.astuple(m)) for m in cells]
    assert np.array_equal(info["action_density"],
                          counts / counts.sum(axis=1, keepdims=True))
