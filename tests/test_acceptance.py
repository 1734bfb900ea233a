"""Acceptance suite: the eleven binding criteria, one test each.

Each test prints a single PASS/FAIL line (visible with ``pytest -v -rA`` or
``-s``) and asserts the same condition.  The desk-scale training run and the
paired 100-seed comparison are session fixtures shared across criteria.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from sodfeeder.corridor import Segment
from sodfeeder.demand import RequestState
from sodfeeder.dispatch import DispatchController, PolicyKind
from sodfeeder.env import ZonalDispatchEnv
from sodfeeder.experiments import (compare, paired_bootstrap_ge_zero,
                                   run_simulation)
from sodfeeder.fleet import StopKind, walk
from sodfeeder.matching import match_step
from sodfeeder.nets import MLP, softmax_and_log
from sodfeeder.ppo import (PPOTrainer, actor_loss_and_grad,
                           critic_loss_and_grad, gae_from_deltas,
                           greedy_action)
from sodfeeder.scenario import PPOConfig, Scenario, build_world

from oracles import gae_direct, oracle_match
from toyenvs import BanditEnv
from worldgen import random_mini_world, run_production_match, walk_of

pytestmark = pytest.mark.slow

N_TRAIN_INSTANCES = 1200
N_EVAL_SEEDS = 100
CONFIDENCE = 0.95


def _report(num, desc, ok, detail=""):
    line = "criterion %2d [%s] %s%s" % (
        num, "PASS" if ok else "FAIL", desc,
        " -- " + detail if detail else "")
    print(line)
    assert ok, line


# ---- shared fixtures --------------------------------------------------------

@pytest.fixture(scope="session")
def trained():
    """Criterion-6 training run; its actor also serves criteria 4 and 8-10."""
    sc = Scenario()
    net = sc.network()
    trainer = PPOTrainer(
        env_factory=lambda i: ZonalDispatchEnv(sc, net=net),
        obs_dim=18, n_actions=4, config=sc.ppo, seed=0)
    n_updates = N_TRAIN_INSTANCES // trainer.n_envs
    trainer.train(replace(sc.seeds, train_count=N_TRAIN_INSTANCES)
                  .train_seeds(), n_updates)
    return trainer


@pytest.fixture(scope="session")
def comparison(trained):
    """All four policies on the same 100 held-out demand instances."""
    sc = Scenario()
    seeds = replace(sc.seeds, eval_count=N_EVAL_SEEDS).eval_seeds()
    results, info = compare(
        sc, [PolicyKind.FIXED_ROUTE, PolicyKind.SOD,
             PolicyKind.NOMINAL_ZONAL, PolicyKind.RL_ZONAL],
        seeds, actor=trained.actor)
    return results, info


def _served(results, kind):
    return np.array([m.served for m in results[kind]], dtype=float)


def _cpp(results, kind):
    return np.array([m.cost_per_passenger for m in results[kind]])


# ---- property criteria ------------------------------------------------------

def test_criterion_1_insertion_matches_brute_force(net):
    mismatches = 0
    for seed in range(200):
        world = random_mini_world(seed, net)
        twin = copy.deepcopy(world)
        got = run_production_match(world)
        want = oracle_match(twin, **walk_of(twin.params))
        same = (
            sorted(got["rejected"]) == sorted(want["rejected"])
            and sorted(got["pending"]) == sorted(want["pending"])
            and [(r, v) for r, v in got["assigned"]]
            == [(r, v) for r, v, *_ in want["assigned"]]
            and all([s.node for s in va.schedule]
                    == [s.node for s in vb.schedule]
                    for va, vb in zip(world.vehicles, twin.vehicles)))
        mismatches += not same
    _report(1, "insertion equals exhaustive enumeration on 200 instances",
            mismatches == 0, "%d mismatches" % mismatches)


def test_criterion_2_gae_oracle():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        T = int(rng.integers(1, 11))
        deltas = rng.standard_normal(T)
        dones = (rng.random(T) < 0.25).astype(float)
        g = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        adv = gae_from_deltas(deltas, g, lam, dones)
        want = gae_direct(deltas, g, lam, dones)
        worst = max(worst, float(np.max(np.abs(adv - np.asarray(want)))))
    _report(2, "backward GAE equals direct summation on 1000 sequences",
            worst <= 1e-12, "max abs err %.2e" % worst)


def test_criterion_3_gradient_checks():
    rng = np.random.default_rng(99)
    h = 1e-6
    worst = 0.0
    for trial in range(100):
        check_actor = trial % 2 == 0
        if check_actor:
            net = MLP([4, 2, 2], rng)
            states = rng.standard_normal((8, 4))
            actions = rng.integers(0, 2, size=8)
            logits, _ = net.forward(states)
            old_logp = (softmax_and_log(logits)[1][np.arange(8), actions]
                        + rng.uniform(-0.3, 0.3, size=8))
            adv = rng.standard_normal(8)

            def loss_at(f):
                net.flat[...] = f
                l, _, _ = actor_loss_and_grad(net, states, actions, old_logp,
                                              adv, 0.2, 0.01)
                return l

            _, grads, _ = actor_loss_and_grad(net, states, actions, old_logp,
                                              adv, 0.2, 0.01)
        else:
            net = MLP([4, 2, 2], rng)
            states = rng.standard_normal((8, 4))
            targets = rng.standard_normal((8, 2))
            # critic-style MSE over both outputs via the first column trick:
            # use a [4,2,1] head instead for the genuine critic shape
            net = MLP([4, 2, 1], rng)

            def loss_at(f):
                net.flat[...] = f
                l, _ = critic_loss_and_grad(net, states, targets[:, 0])
                return l

            _, grads = critic_loss_and_grad(net, states, targets[:, 0])

        flat = net.flat_params()
        flat_grad = np.concatenate([g.ravel() for g in grads])
        for idx in range(flat.size):
            e = np.zeros_like(flat)
            e[idx] = h
            num = (loss_at(flat + e) - loss_at(flat - e)) / (2 * h)
            denom = max(1.0, abs(num), abs(flat_grad[idx]))
            worst = max(worst, abs(num - flat_grad[idx]) / denom)
        net.flat[...] = flat
    _report(3, "analytic gradients match central differences (100 trials)",
            worst <= 1e-4, "worst rel err %.2e" % worst)


# where the fleet holds a request in each state, in sorted order: its
# vehicle's onboard list, and the board and alight lists of the stops that
# vehicle has yet to execute (from ``free_stop_min`` on)
_HELD = {RequestState.RIDING: ["alight", "onboard"],
         RequestState.ASSIGNED: ["alight", "board"]}


def _misplaced(world):
    """Ids of the requests that the fleet does not hold as their state says
    (``_HELD``, each place once and on the request's vehicle), or holds
    though their state has no place there."""
    held = {}
    for v in world.vehicles:
        for rid in v.onboard:
            held.setdefault(rid, []).append(("onboard", v.id))
        for s in v.schedule[v.free_stop_min():]:
            for rid in s.board:
                held.setdefault(rid, []).append(("board", v.id))
            for rid in s.alight:
                held.setdefault(rid, []).append(("alight", v.id))
    return [r.id for r in world.requests
            if sorted(held.get(r.id, ())) != [
                (place, r.vehicle) for place in _HELD.get(r.state, ())]]


def _audited_run(sc, kind, seed, actor=None):
    """One full episode with per-step constraint audits; returns violations."""
    violations = []
    net = sc.network()
    if kind is PolicyKind.RL_ZONAL:
        env = ZonalDispatchEnv(sc, net=net)
        obs = env.reset(seed)
        world = env.world
        stepper = lambda: env.step(greedy_action(actor, env.observe()))
        n_steps = env.episode_len
    else:
        world = build_world(sc, kind, seed, net=net)
        controller = DispatchController(world, kind, sc.dispatch)

        def stepper():
            controller.baseline_dispatch()
            match_step(world, **walk_of(world.params))
            rep = world.advance_step()
            return None, None, None, {"reports": [rep]}
        n_steps = sc.n_steps

    lim = sc.limits
    for _ in range(n_steps):
        _, _, _, info = stepper()
        for rep in info["reports"]:
            for item in rep.infeasibilities:
                violations.append((kind.value, seed) + item)
        for rid in _misplaced(world):
            violations.append((kind.value, seed, "conservation", rid))
        for v in world.vehicles:
            if not v.schedule:
                continue
            if walk(v.schedule, net, len(v.onboard),
                    v.free_stop_min())[1] > v.capacity:
                violations.append((kind.value, seed, "capacity", v.id))
            if v.window_open_idx is not None:
                span = (v.schedule[v.window_close_idx].arrival
                        - v.schedule[v.window_open_idx].departure)
                if span > lim.flex_window + 1e-6:
                    violations.append((kind.value, seed, "window", v.id))
            for s in v.schedule:
                if s.kind is not StopKind.FLEX:
                    continue
                zone = 1 if net.labels[s.node] == Segment.ZONE1 else 2
                if world.fixed_only or v.zone not in (0, zone):
                    violations.append((kind.value, seed, "zone", v.id, s.node))

    # served-request constraints
    for r in world.requests:
        if r.state is RequestState.SERVED:
            if r.pickup_time - r.t_r > lim.max_wait + 1e-6:
                violations.append((kind.value, seed, "wait", r.id))
            ride = r.dropoff_time - r.pickup_time
            if ride > lim.max_ride(r.direct_time) + 1e-6:
                violations.append((kind.value, seed, "detour", r.id))
    return violations


def test_criterion_4_constraint_invariants(trained):
    sc = Scenario()
    violations = []
    for kind in (PolicyKind.FIXED_ROUTE, PolicyKind.SOD,
                 PolicyKind.NOMINAL_ZONAL, PolicyKind.RL_ZONAL):
        for seed in range(50):
            violations += _audited_run(sc, kind, seed,
                                       actor=trained.actor)
    _report(4, "zero capacity/wait/detour/zone/conservation violations "
               "over 50 runs x 4 policies",
            not violations, "%d violations %s" % (len(violations),
                                                  violations[:3]))


def test_criterion_5_bandit_learning():
    obs = np.array([[1.0, 0.0]])
    failures = []
    for seed in range(5):
        cfg = PPOConfig(anneal_lr=False)
        tr = PPOTrainer(env_factory=lambda i: BanditEnv(), obs_dim=2,
                        n_actions=4, config=cfg, seed=seed, n_envs=8)
        reached = None
        for u in range(50):
            tr.run_update(list(range(8)))
            p_opt = softmax_and_log(tr.actor.forward(obs)[0])[0][0][2]
            if p_opt >= 0.9:
                reached = u + 1
                break
        if reached is None:
            failures.append(seed)
    _report(5, "bandit reaches pi(optimal) >= 0.9 within 50 updates, "
               "5/5 seeds", not failures, "failed seeds %s" % failures)


def test_criterion_6_training_improvement(trained):
    rewards = [row["mean_episode_reward"] for row in trained.stats.rows]
    vloss = [row["value_loss"] for row in trained.stats.rows]
    first10 = float(np.mean(rewards[:10]))
    last10 = float(np.mean(rewards[-10:]))
    need = first10 + 0.1 * abs(first10)
    ma = [float(np.mean(vloss[i:i + 10])) for i in range(len(vloss) - 9)]
    ok = last10 >= need and ma[-1] < ma[0]
    _report(6, "desk-scale training improves mean reward by >= 10%% of the "
               "gap to zero with decreasing value loss",
            ok, "first10 %.2f last10 %.2f need %.2f; vloss MA %.3f -> %.3f"
            % (first10, last10, need, ma[0], ma[-1]))


# ---- directional criteria ---------------------------------------------------

def test_criterion_7_sod_serves_more_than_fixed_route(comparison):
    results, _ = comparison
    diffs = _served(results, PolicyKind.SOD) \
        - _served(results, PolicyKind.FIXED_ROUTE)
    conf = paired_bootstrap_ge_zero(diffs)
    ok = diffs.mean() > 0 and conf >= CONFIDENCE
    _report(7, "SoD serves more passengers than FixedRoute",
            ok, "mean diff %+.2f, P(>=0) %.3f" % (diffs.mean(), conf))


def test_criterion_8_rl_serves_at_least_nominal(comparison):
    results, _ = comparison
    diffs = _served(results, PolicyKind.RL_ZONAL) \
        - _served(results, PolicyKind.NOMINAL_ZONAL)
    conf = paired_bootstrap_ge_zero(diffs)
    ok = conf >= CONFIDENCE
    _report(8, "RLZonal serves at least as many passengers as NominalZonal",
            ok, "mean diff %+.2f, P(>=0) %.3f" % (diffs.mean(), conf))


def test_criterion_9_rl_serves_more_than_fixed_route(comparison):
    results, _ = comparison
    diffs = _served(results, PolicyKind.RL_ZONAL) \
        - _served(results, PolicyKind.FIXED_ROUTE)
    conf = paired_bootstrap_ge_zero(diffs)
    ok = diffs.mean() > 0 and conf >= CONFIDENCE
    _report(9, "RLZonal serves more passengers than FixedRoute",
            ok, "mean diff %+.2f, P(>=0) %.3f" % (diffs.mean(), conf))


def test_criterion_10_cost_ordering(comparison):
    results, _ = comparison
    sod = _cpp(results, PolicyKind.SOD)
    fix = _cpp(results, PolicyKind.FIXED_ROUTE)
    rl = _cpp(results, PolicyKind.RL_ZONAL)
    mask = ~(np.isnan(sod) | np.isnan(fix) | np.isnan(rl))
    diffs = sod[mask] - fix[mask]
    conf = paired_bootstrap_ge_zero(diffs)
    rl_gap = abs(np.mean(rl[mask]) - np.mean(sod[mask])) / np.mean(sod[mask])
    ok = diffs.mean() > 0 and conf >= CONFIDENCE and rl_gap <= 0.05
    _report(10, "SoD cost/passenger exceeds FixedRoute; RLZonal within 5%% "
                "of SoD",
            ok, "mean diff %+.3f, P(>=0) %.3f, RL gap %.1f%%"
            % (diffs.mean(), conf, 100 * rl_gap))


def test_criterion_11_flexible_area_access_time(trained):
    sc = Scenario()

    def flex_access(kind, seed):
        world = run_simulation(sc, kind, seed, actor=trained.actor)[1]
        vals = [r.access_time for r in world.requests
                if r.state is RequestState.SERVED
                and world.category_of(r) in (Segment.ZONE1, Segment.ZONE2)]
        return vals

    seeds = range(5)
    on_demand = []
    for kind in (PolicyKind.SOD, PolicyKind.NOMINAL_ZONAL,
                 PolicyKind.RL_ZONAL):
        for s in seeds:
            on_demand += flex_access(kind, s)
    fixed = []
    for s in seeds:
        fixed += flex_access(PolicyKind.FIXED_ROUTE, s)
    ok = (len(on_demand) > 0 and max(on_demand) == 0.0
          and len(fixed) > 0 and float(np.mean(fixed)) > 0.0)
    _report(11, "flexible-area access time is zero under door-to-door "
                "policies and positive under FixedRoute",
            ok, "door-to-door max %.1f s over %d pax; fixed-route mean %.1f s"
            % (max(on_demand) if on_demand else -1, len(on_demand),
               float(np.mean(fixed)) if fixed else -1))
