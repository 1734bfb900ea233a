"""Exact per-seed RunMetrics of fixed episodes, checked against a recorded file.

``tests/golden/metrics.json`` pins the behaviour of the simulator on the
default scenario and on two non-default ones (a small fleet with low
capacity, and a pure linear corridor).  Any code change that moves a single
bit of any metric fails here.  Re-record only for an intended behaviour
change, and say why in the change log::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from sodfeeder.corridor import CorridorSpec
from sodfeeder.dispatch import PolicyKind
from sodfeeder.env import N_ACTIONS, STATE_DIM, ZonalDispatchEnv
from sodfeeder.experiments import run_simulation
from sodfeeder.ppo import PPOTrainer
from sodfeeder.scenario import Scenario

GOLDEN = Path(__file__).parent / "golden" / "metrics.json"
SEEDS = (0, 1, 2)
BASELINES = (PolicyKind.FIXED_ROUTE, PolicyKind.SOD, PolicyKind.NOMINAL_ZONAL)
SCENARIOS = {
    "default": Scenario,
    "small_fleet": lambda: Scenario(n_vehicles=4, n_reserved=2, capacity=6),
    "no_side_streets": lambda: Scenario(corridor=CorridorSpec(side_depth=0)),
}
CASES = list(SCENARIOS) + ["rl_default"]


def _untrained_actor(sc):
    """The greedy actor of a freshly seeded trainer: fixed weights."""
    net = sc.network()
    trainer = PPOTrainer(env_factory=lambda i: ZonalDispatchEnv(sc, net=net),
                         obs_dim=STATE_DIM, n_actions=N_ACTIONS,
                         config=dataclasses.replace(sc.ppo, n_envs=1),
                         seed=0)
    return trainer.actor


def run_case(case):
    """{"<policy>/<seed>": RunMetrics as a dict} for one golden case."""
    if case == "rl_default":
        sc = Scenario()
        runs = [(PolicyKind.RL_ZONAL, _untrained_actor(sc))]
    else:
        sc = SCENARIOS[case]()
        runs = [(kind, None) for kind in BASELINES]
    out = {}
    for kind, actor in runs:
        for seed in SEEDS:
            m, _ = run_simulation(sc, kind, seed, actor=actor)
            out["%s/%d" % (kind.value, seed)] = dataclasses.asdict(m)
    return out


def _exact(runs):
    # repr keeps every bit of a float and makes NaN compare equal to NaN
    return {run: {k: repr(v) for k, v in fields.items()}
            for run, fields in runs.items()}


@pytest.mark.parametrize("case", CASES)
def test_metrics_match_golden(case):
    expected = json.loads(GOLDEN.read_text())[case]
    assert _exact(run_case(case)) == _exact(expected)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({c: run_case(c) for c in CASES}, indent=1)
                      + "\n")
    print("wrote", GOLDEN)
