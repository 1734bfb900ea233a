"""Experiment orchestration: single runs, training and paired comparisons."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dispatch import DispatchController, PolicyKind
from .econ import (aggregate, generalized_cost, write_aggregate_csv,
                   write_metrics_csv, write_summary_json, write_table)
from .env import N_ACTIONS, STATE_DIM, ZonalDispatchEnv
from .matching import match_step
from .ppo import PPOTrainer, greedy_action, save_checkpoint
from .scenario import build_world


def run_simulation(scenario, policy_kind, seed, actor=None, net=None):
    """One full deterministic episode; returns (RunMetrics, world)."""
    if policy_kind is PolicyKind.RL_ZONAL:
        if actor is None:
            raise ValueError("the RL zonal policy needs a trained actor")
        env = ZonalDispatchEnv(scenario, net=net)
        obs = env.reset(seed)
        while not env.done:
            obs, _, _, _ = env.step(greedy_action(actor, obs))
        world = env.world
    else:
        world = build_world(scenario, policy_kind, seed, net=net)
        controller = DispatchController(world, policy_kind, scenario.dispatch)
        for _ in range(scenario.n_steps):
            controller.baseline_dispatch()
            match_step(world, walk_speed=scenario.demand.walk_speed,
                       walk_cap=scenario.demand.walk_cap)
            world.advance_step()
    return generalized_cost(world), world


def train_rl(scenario, out_checkpoint=None, stats_path=None, seed=0):
    """Desk-scale training run on ``scenario.seeds.train_seeds()`` with
    ``scenario.ppo.n_envs`` environments; returns (trainer, stats).  Each
    stats row goes to ``stats_path``, if given, as its update ends."""
    net = scenario.network()
    trainer = PPOTrainer(
        env_factory=lambda i: ZonalDispatchEnv(scenario, net=net),
        obs_dim=STATE_DIM, n_actions=N_ACTIONS, config=scenario.ppo,
        seed=seed)
    trainer.stats.path = stats_path
    seeds = scenario.seeds.train_seeds()
    trainer.train(seeds, max(1, len(seeds) // scenario.ppo.n_envs))
    if out_checkpoint:
        save_checkpoint(out_checkpoint, trainer.actor, scenario)
    return trainer, trainer.stats


def compare(scenario, policies, seeds, actor=None, out_dir=None):
    """Run every (policy, seed) cell on identical demand instances.

    Returns {policy: [RunMetrics per seed]}; RL action densities are attached
    under the "action_density" key of the returned info dict.
    """
    if len(seeds) == 0:
        raise ValueError("seeds is empty: compare needs at least one "
                         "instance seed")
    net = scenario.network()
    # seed-major, so the policies of a seed reuse its memoized demand
    results = {kind: [] for kind in policies}
    action_counts = None
    for seed in seeds:
        for kind, metrics in results.items():
            m, world = run_simulation(scenario, kind, seed, actor=actor,
                                      net=net)
            metrics.append(m)
            if kind is PolicyKind.RL_ZONAL:
                if action_counts is None:
                    action_counts = np.zeros((len(world.rl_actions),
                                              N_ACTIONS))
                for t, a in enumerate(world.rl_actions):
                    action_counts[t, a] += 1

    info = {}
    if action_counts is not None:
        info["action_density"] = action_counts / action_counts.sum(
            axis=1, keepdims=True)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_compare_outputs(results, seeds, info, out)
    return results, info


def _write_compare_outputs(results, seeds, info, out):
    rows = []
    for kind, metrics in results.items():
        for seed, m in zip(seeds, metrics):
            rows.append(({"policy": kind.value, "seed": seed}, m))
    write_metrics_csv(rows, out / "runs.csv")
    agg = {kind.value: aggregate(metrics)
           for kind, metrics in results.items()}
    write_aggregate_csv(agg, out / "aggregate.csv")
    write_summary_json(
        {kind.value: {"mean_served": agg[kind.value]["served"]["mean"],
                      "mean_cost_per_passenger":
                          agg[kind.value]["cost_per_passenger"]["mean"]}
         for kind in results}, out / "summary.json")
    if "action_density" in info:
        density = info["action_density"]
        write_table(out / "action_density.csv",
                    ["step"] + ["a%d" % a for a in range(N_ACTIONS)],
                    ([t, *row] for t, row in enumerate(density)))


def paired_bootstrap_ge_zero(diffs, n_boot=10_000, seed=0):
    """Fraction of bootstrap resamples whose mean difference is >= 0."""
    diffs = np.asarray(diffs, dtype=float)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(diffs), size=(n_boot, len(diffs)))
    means = diffs[idx].mean(axis=1)
    return float(np.mean(means >= 0.0))
