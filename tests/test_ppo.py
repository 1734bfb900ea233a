import contextlib
import copy
import hashlib
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sodfeeder import ppo
from sodfeeder.nets import MLP, Adam, orthogonal, softmax_and_log
from sodfeeder.ppo import (CHECKPOINT_VERSION, PPOTrainer, RolloutBatch,
                           actor_loss_and_grad, add_advantages, clip_g,
                           collect_rollouts, compute_gae, critic_loss_and_grad,
                           gae_from_deltas, greedy_action, greedy_logits,
                           load_checkpoint, sample_action, save_checkpoint,
                           td_error)
from sodfeeder.corridor import CorridorSpec
from sodfeeder.costs import FeasibilityLimits
from sodfeeder.econ import write_table
from sodfeeder.env import N_ACTIONS, STATE_DIM, ZonalDispatchEnv
from sodfeeder.experiments import train_rl
from sodfeeder.scenario import (NormalizationRanges, PPOConfig, Scenario,
                                SeedConfig)

from checkpoints import (NOT_A_CHECKPOINT, RAW_FILES, checkpoint_entries,
                         layer_params, state_actor, write_malformed)
from oracles import (PerArrayAdam, gae_direct, oracle_compute_gae,
                     serial_run_update)
from toyenvs import BanditEnv, NoisyBanditEnv


# ---- nets -------------------------------------------------------------------

def test_sample_action_equals_rng_choice():
    # sample_action searches a cumulative table instead of calling
    # rng.choice(p=...); a numpy whose choice draws differently fails here
    n_envs = 8
    logits = np.random.default_rng(5).normal(scale=3.0, size=(400, N_ACTIONS))
    probs, _ = softmax_and_log(logits)
    # rows with zero-probability actions and one action near certainty
    probs[::7, 1] = 0.0
    probs[3::11, :2] = 0.0
    probs[5::13] = [1.0 - 3e-12, 1e-12, 1e-12, 1e-12]
    probs[6::13] = [0.0, 0.0, 1.0, 0.0]
    probs /= probs.sum(axis=1, keepdims=True)
    ours = [np.random.default_rng([9, i]) for i in range(n_envs)]
    numpys = [np.random.default_rng([9, i]) for i in range(n_envs)]
    for _ in range(20):
        for table in probs.reshape(-1, n_envs, N_ACTIONS):
            drawn = sample_action(table, ours)
            assert drawn == [int(g.choice(N_ACTIONS, p=row))
                             for row, g in zip(table, numpys)]
            assert all(table[i, a] > 0.0 for i, a in enumerate(drawn))
    for a, b in zip(ours, numpys):
        assert a.bit_generator.state == b.bit_generator.state


def test_orthogonal_init_is_orthogonal():
    rng = np.random.default_rng(0)
    w = orthogonal(rng, (8, 8), gain=1.0)
    assert np.allclose(w @ w.T, np.eye(8), atol=1e-10)
    w2 = orthogonal(rng, (4, 2), gain=2.0)
    assert np.allclose(w2.T @ w2, 4.0 * np.eye(2), atol=1e-10)


def test_softmax_log_softmax_consistent():
    logits = np.array([[1000.0, 1001.0, 999.0], [0.0, 0.0, 0.0]])
    p, logp = softmax_and_log(logits)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(np.isfinite(logp))
    assert np.allclose(np.exp(logp), p)


def test_mlp_forward_backward_finite_difference():
    rng = np.random.default_rng(1)
    net = MLP([3, 5, 2], rng)
    x = rng.standard_normal((7, 3))
    target = rng.standard_normal((7, 2))

    def loss_at(flat):
        net.flat[...] = flat
        out, _ = net.forward(x)
        return float(np.sum((out - target) ** 2))

    flat = net.flat_params()
    out, cache = net.forward(x)
    grads = net.backward(cache, 2.0 * (out - target))
    flat_grad = np.concatenate([g.ravel() for g in grads])
    h = 1e-6
    for idx in rng.choice(flat.size, size=25, replace=False):
        e = np.zeros_like(flat)
        e[idx] = h
        num = (loss_at(flat + e) - loss_at(flat - e)) / (2 * h)
        assert num == pytest.approx(flat_grad[idx], rel=1e-5, abs=1e-7)
    net.flat[...] = flat


def test_adam_moves_towards_minimum():
    x = np.array([5.0])
    opt = Adam(x, lr=0.1)
    for _ in range(500):
        opt.step(2.0 * x)
    assert abs(x[0]) < 1e-3


def test_flat_adam_equals_the_per_array_oracle():
    rng = np.random.default_rng(21)
    net = MLP([5, 7, 7, 3], rng)
    arrays = [p.copy() for p in layer_params(net)]
    opt = Adam(net.flat, lr=0.01, beta1=0.8, beta2=0.99, eps=1e-6)
    oracle = PerArrayAdam(arrays, lr=0.01, beta1=0.8, beta2=0.99, eps=1e-6)
    for k in range(60):
        if k == 25:
            opt.lr = oracle.lr = 0.0037
        grad = rng.standard_normal(net.flat.size) * 10.0 ** rng.integers(-4, 3)
        grad_views = [g.copy() for g in _per_layer(net, grad)]
        opt.step(grad)
        arrays = oracle.step(arrays, grad_views)
        assert np.array_equal(net.flat,
                              np.concatenate([a.ravel() for a in arrays]))
    for p, a in zip(layer_params(net), arrays):
        assert np.array_equal(p, a)


def _per_layer(net, flat):
    """``flat`` cut into arrays shaped like ``layer_params(net)``."""
    out, k = [], 0
    for p in layer_params(net):
        out.append(flat[k:k + p.size].reshape(p.shape))
        k += p.size
    return out


def test_mlp_raises_on_nonfinite():
    rng = np.random.default_rng(3)
    net = MLP([2, 3, 1], rng)
    net.W[-1][...] *= np.inf
    with pytest.raises(FloatingPointError):
        net.forward(np.ones((1, 2)))


def test_mlp_views_cannot_be_rebound():
    net = MLP([3, 4, 2], np.random.default_rng(4))
    with pytest.raises(TypeError):
        net.W[0] = np.zeros((3, 4))
    with pytest.raises(TypeError):
        net.b[1] = np.zeros(2)
    for p, part in zip(layer_params(net), _per_layer(net, net.flat)):
        assert np.shares_memory(p, net.flat)
        assert np.array_equal(p, part)


@pytest.mark.parametrize("clone", [copy.deepcopy,
                                   lambda n: pickle.loads(pickle.dumps(n))])
def test_mlp_copy_rebuilds_its_views(clone):
    net = MLP([3, 4, 2], np.random.default_rng(5))
    x = np.random.default_rng(6).standard_normal((5, 3))
    c = clone(net)
    assert not np.shares_memory(c.flat, net.flat)
    assert np.array_equal(c.flat, net.flat)
    assert isinstance(c.W, tuple) and isinstance(c.b, tuple)
    for p in layer_params(c):
        assert np.shares_memory(p, c.flat)
    c.flat *= 2.0
    assert np.array_equal(c.W[0], 2.0 * net.W[0])
    assert not np.array_equal(c.forward(x)[0], net.forward(x)[0])


# ---- advantage estimation ---------------------------------------------------

def test_td_error_hand_computed():
    # r=1, V(s)=2, V(s')=3, discount 0.9 -> 1 + 2.7 - 2 = 1.7
    assert td_error(1.0, 2.0, 3.0, 0.9, 0.0) == pytest.approx(1.7)
    # done cuts the bootstrap: 1 - 2 = -1
    assert td_error(1.0, 2.0, 3.0, 0.9, 1.0) == pytest.approx(-1.0)
    # 0.08 case: r=0.1, V=0.5, V'=0.5, discount 0.96
    assert td_error(0.1, 0.5, 0.5, 0.96, 0.0) == pytest.approx(0.08)


def test_gae_matches_double_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        T = int(rng.integers(1, 11))
        deltas = rng.standard_normal(T)
        dones = (rng.random(T) < 0.3).astype(float)
        g = float(rng.uniform(0.8, 1.0))
        lam = float(rng.uniform(0.8, 1.0))
        adv = gae_from_deltas(deltas, g, lam, dones)
        want = gae_direct(deltas, g, lam, dones)
        assert np.allclose(adv, want, atol=1e-12)


def test_compute_gae_returns_equal_adv_plus_values():
    rng = np.random.default_rng(8)
    T, N = 6, 3
    rewards = rng.standard_normal((T, N))
    values = rng.standard_normal((T, N))
    adv, ret = compute_gae(rewards, values, 0.99, 0.95)
    assert np.allclose(ret, adv + values)
    # with lam=1 and discount=1 the advantage telescopes to sum(rewards) -
    # values[0]: the last step ends the episode, so nothing is bootstrapped
    adv2, _ = compute_gae(rewards, values, 1.0, 1.0)
    assert np.allclose(adv2[0], rewards.sum(axis=0) - values[0])


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(data=st.data(), T=st.integers(1, 8), N=st.integers(1, 4),
       discount=st.floats(0.0, 1.0), lam=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_compute_gae_is_the_bootstrapped_one_cut_at_the_last_step(
        data, T, N, discount, lam):
    # a rollout of whole episodes ends every episode at its last step, and
    # there the old done flags and last values changed nothing: the cut
    # bootstrap, discount * last * 0, is a zero whose sign the recursion's
    # "+ 0.0" at the last step drops
    rewards, values, last = (data.draw(arrays(float, shape, elements=_finite))
                             for shape in ((T, N), (T, N), N))
    dones = np.zeros((T, N))
    dones[-1] = 1.0
    # near the float limits both overflow, alike
    with np.errstate(over="ignore", invalid="ignore"):
        got = compute_gae(rewards, values, discount, lam)
        want = oracle_compute_gae(rewards, values, dones, last, discount, lam)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_clip_g_hand_computed():
    assert clip_g(0.2, 1.0) == pytest.approx(1.2)
    assert clip_g(0.2, -1.0) == pytest.approx(-0.8)
    assert np.allclose(clip_g(0.1, np.array([2.0, -2.0])), [2.2, -1.8])


# ---- surrogate gradients ----------------------------------------------------

def _rand_actor_batch(rng, n=12, obs=4, acts=2):
    net = MLP([obs, 2, acts], rng)
    states = rng.standard_normal((n, obs))
    actions = rng.integers(0, acts, size=n)
    logits, _ = net.forward(states)
    logp = softmax_and_log(logits)[1][np.arange(n), actions]
    old_logp = logp + rng.uniform(-0.3, 0.3, size=n)
    adv = rng.standard_normal(n)
    return net, states, actions, old_logp, adv


@pytest.mark.parametrize("ent", [0.0, 0.01])
def test_actor_gradient_matches_finite_differences(ent):
    rng = np.random.default_rng(11)
    for _ in range(10):
        net, states, actions, old_logp, adv = _rand_actor_batch(rng)
        loss, grads, _ = actor_loss_and_grad(net, states, actions, old_logp,
                                             adv, 0.2, ent)
        flat = net.flat_params()
        flat_grad = np.concatenate([g.ravel() for g in grads])

        def loss_at(f):
            net.flat[...] = f
            l, _, _ = actor_loss_and_grad(net, states, actions, old_logp,
                                          adv, 0.2, ent)
            return l

        h = 1e-6
        for idx in rng.choice(flat.size, size=10, replace=False):
            e = np.zeros_like(flat)
            e[idx] = h
            num = (loss_at(flat + e) - loss_at(flat - e)) / (2 * h)
            denom = max(1.0, abs(num), abs(flat_grad[idx]))
            assert abs(num - flat_grad[idx]) / denom < 1e-4
        net.flat[...] = flat


def test_critic_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    net = MLP([4, 2, 1], rng)
    states = rng.standard_normal((9, 4))
    targets = rng.standard_normal(9)
    _, grads = critic_loss_and_grad(net, states, targets)
    flat = net.flat_params()
    flat_grad = np.concatenate([g.ravel() for g in grads])

    def loss_at(f):
        net.flat[...] = f
        l, _ = critic_loss_and_grad(net, states, targets)
        return l

    h = 1e-6
    for idx in range(flat.size):
        e = np.zeros_like(flat)
        e[idx] = h
        num = (loss_at(flat + e) - loss_at(flat - e)) / (2 * h)
        assert num == pytest.approx(flat_grad[idx], rel=1e-4, abs=1e-7)


def test_ratio_one_identity():
    # old_logp taken from the current policy: loss = -mean(adv), zero clip
    rng = np.random.default_rng(13)
    net = MLP([4, 2, 3], rng)
    states = rng.standard_normal((20, 4))
    actions = rng.integers(0, 3, size=20)
    logits, _ = net.forward(states)
    old_logp = softmax_and_log(logits)[1][np.arange(20), actions]
    adv = rng.standard_normal(20)
    loss, _, stats = actor_loss_and_grad(net, states, actions, old_logp,
                                         adv, 0.2)
    assert loss == pytest.approx(-adv.mean())
    assert stats["clip_frac"] == 0.0
    assert stats["approx_kl"] == pytest.approx(0.0, abs=1e-12)


def test_clipped_samples_have_zero_gradient():
    # one sample far outside the trust region contributes no gradient
    rng = np.random.default_rng(14)
    net = MLP([2, 2, 2], rng)
    states = np.array([[1.0, 0.0]])
    actions = np.array([0])
    logits, _ = net.forward(states)
    logp = softmax_and_log(logits)[1][0, 0]
    old_logp = np.array([logp - 2.0])      # ratio e^2 >> 1.2, adv > 0
    _, grads, stats = actor_loss_and_grad(net, states, actions, old_logp,
                                          np.array([1.0]), 0.2)
    assert stats["clip_frac"] == 1.0
    assert all(np.allclose(g, 0.0) for g in grads)


# ---- rollouts, updates, checkpoints -----------------------------------------

def make_trainer(n_envs=4, seed=0, lr=0.02):
    cfg = PPOConfig(n_envs=n_envs, learning_rate=lr, minibatch_size=32,
                    epochs=4, anneal_lr=False)
    return PPOTrainer(env_factory=lambda i: BanditEnv(), obs_dim=2,
                      n_actions=4, config=cfg, seed=seed, n_envs=n_envs)


def test_rollout_shapes_and_reward_bookkeeping():
    tr = make_trainer()
    batch = collect_rollouts(tr.envs, tr.actor, 16, [0, 1, 2, 3],
                             tr.action_rngs)
    assert batch.states.shape == (16, 4, 2)
    assert batch.actions.shape == (16, 4)
    # each episode ends at the rollout's last step, not before
    assert all(env.t == env.episode_len == 16 for env in tr.envs)
    add_advantages(batch, tr.critic, tr.config)
    assert batch.advantages.shape == batch.returns.shape == (16, 4)


def test_bandit_learning_quickly():
    cfg = PPOConfig(anneal_lr=False)
    tr = PPOTrainer(env_factory=lambda i: BanditEnv(), obs_dim=2,
                    n_actions=4, config=cfg, seed=1, n_envs=8)
    for u in range(40):
        tr.run_update(list(range(8)))
    probs = softmax_and_log(tr.actor.forward(np.array([[1.0, 0.0]]))[0])[0][0]
    assert probs[2] > 0.9
    assert greedy_action(tr.actor, np.array([1.0, 0.0])) == 2


def _greedy_actors():
    rng = np.random.default_rng(11)
    fresh = MLP([STATE_DIM, 64, 64, N_ACTIONS], rng, out_gain=0.01)
    sc = Scenario(horizon=1800.0, warmup=600.0,
                  ppo=PPOConfig(n_envs=2, epochs=2))
    tr = PPOTrainer(env_factory=lambda i: ZonalDispatchEnv(sc),
                    obs_dim=STATE_DIM, n_actions=N_ACTIONS, config=sc.ppo,
                    seed=4)
    for u in range(3):
        tr.run_update([2 * u, 2 * u + 1])
    return fresh, tr.actor


def test_greedy_path_equals_the_batch_forward():
    obs = np.random.default_rng(12).random((2000, STATE_DIM))
    obs = np.vstack([obs, np.zeros(STATE_DIM), np.ones(STATE_DIM)])
    for actor in _greedy_actors():
        for x in obs:
            want = actor.forward(x[None])[0][0]
            assert np.array(greedy_logits(actor, x)).tobytes() == \
                want.tobytes()
            assert greedy_action(actor, x) == int(want.argmax())


def test_greedy_path_raises_on_nonfinite():
    actor = MLP([STATE_DIM, 8, N_ACTIONS], np.random.default_rng(3))
    actor.W[0][0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        greedy_action(actor, np.ones(STATE_DIM))


def test_single_env_replays_env_zero():
    tr8 = make_trainer(n_envs=8, seed=5)
    tr1 = make_trainer(n_envs=1, seed=5)
    # identical nets: parameter draws depend only on the seed
    for a, b in zip(layer_params(tr8.actor), layer_params(tr1.actor)):
        assert np.allclose(a, b)
    seeds = list(range(100, 108))
    b8 = collect_rollouts(tr8.envs, tr8.actor, 16, seeds, tr8.action_rngs)
    b1 = collect_rollouts(tr1.envs, tr1.actor, 16, seeds[:1],
                          tr1.action_rngs)
    assert np.array_equal(b8.actions[:, 0], b1.actions[:, 0])
    assert np.allclose(b8.rewards[:, 0], b1.rewards[:, 0])
    assert np.allclose(b8.log_probs[:, 0], b1.log_probs[:, 0])


def test_trainer_takes_its_env_count_from_the_config():
    cfg = PPOConfig(n_envs=3)
    for n_envs in (None, 3):
        tr = PPOTrainer(env_factory=lambda i: BanditEnv(), obs_dim=2,
                        n_actions=4, config=cfg, n_envs=n_envs)
        assert tr.n_envs == len(tr.envs) == 3
    for n_envs in (1, 8, 0):
        with pytest.raises(ValueError, match="n_envs"):
            PPOTrainer(env_factory=lambda i: BanditEnv(), obs_dim=2,
                       n_actions=4, config=cfg, n_envs=n_envs)


STATS_HEADER = ("update,env_steps,mean_episode_reward,value_loss,policy_loss,"
                "entropy,approx_kl,clip_frac,rollout_s,update_s,update_path,"
                "partner_cpu_s")


def test_training_stats_csv(tmp_path, caplog):
    tr = make_trainer()
    path = tmp_path / "stats.csv"
    path.write_text("an older run's table\n")
    tr.stats.path = path
    with caplog.at_level("INFO", logger="sodfeeder"):
        tr.train(list(range(8)), 3)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == STATS_HEADER
    assert len(lines) == 4
    for row in tr.stats.rows:
        assert row["rollout_s"] > 0.0 and row["update_s"] > 0.0
    # the rows written one by one are the table that one write of them all
    # gives
    whole = tmp_path / "whole.csv"
    header = STATS_HEADER.split(",")
    write_table(whole, header, ([row[k] for k in header]
                                for row in tr.stats.rows))
    assert path.read_bytes() == whole.read_bytes()
    logged = [r.getMessage() for r in caplog.records]
    assert len(logged) == 3
    for row, line in zip(tr.stats.rows, logged):
        assert line.startswith("update %d: %d env steps, mean episode reward"
                               % (row["update"], row["env_steps"]))
        assert "rollout %.3f s, update %.3f s" % (
            row["rollout_s"], row["update_s"]) in line


def test_a_stopped_training_run_keeps_its_finished_rows(tmp_path,
                                                        monkeypatch):
    # 8 instances on 2 environments make 4 updates; environment 0, which
    # this process steps on every path, fails to reset in the third
    sc = replace(_short_scenario(2), seeds=SeedConfig(train_count=8))
    fail = sc.seeds.train_seeds()[4]
    reset = ZonalDispatchEnv.reset

    def failing(env, seed):
        if seed == fail:
            raise LookupError("no instance %d" % seed)
        return reset(env, seed)

    monkeypatch.setattr(ZonalDispatchEnv, "reset", failing)
    path = tmp_path / "stats.csv"
    with _no_child_or_fd_left():
        with pytest.raises(LookupError, match="no instance %d" % fail):
            train_rl(sc, stats_path=str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == STATS_HEADER
    assert [line.split(",")[:2] for line in lines[1:]] == \
        [["0", "60"], ["1", "120"]]


# ---- the update's two processes ----------------------------------------------

def _machine(monkeypatch, cpus, threads=1):
    """Make ``run_update`` see ``cpus`` CPUs and ``threads`` Python
    threads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(threading, "active_count", lambda: threads)


def _forks(monkeypatch):
    """The pids that ``os.fork`` returns here from now on."""
    pids, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: pids.append(fork()) or pids[-1])
    return pids


@contextlib.contextmanager
def _no_child_or_fd_left(seconds=60):
    """Fails, rather than hangs, if the block takes over ``seconds``; after
    it, no child process is left unreaped and no file descriptor open."""
    def timeout(*_):
        raise TimeoutError("update did not return")
    fds = len(os.listdir("/proc/self/fd"))
    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds


MACHINES = pytest.mark.parametrize(
    "cpus,thread", [(2, False), (1, False), (2, True)],
    ids=["forked", "one-cpu", "other-thread"])


def _env_states(trainer):
    """Each environment's step count and done flag, and its world's
    request and vehicle records."""
    return [(env.t, vars(env).get("done"),
             repr(env.world.requests) if hasattr(env, "world") else None,
             repr(env.world.vehicles) if hasattr(env, "world") else None)
            for env in trainer.envs]


def _check_against_the_serial_loop(monkeypatch, make, machines,
                                   between=None):
    """Run one ``run_update`` per (cpus, thread) of ``machines`` on the
    trainer ``make()``, each under that machine and beside
    ``oracles.serial_run_update`` on another ``make()``, and check that they
    agree bit for bit: the batch, the reward and stats, the nets, the Adam
    moments and step counts, the action and update streams and the
    environments' states.  ``between``, if given, makes the same change to
    both trainers before each update after the first.  A partner is forked
    at each update that splits after one that did not, and after ``close``
    no child or descriptor is left."""
    ours, want = make(), make()
    n = ours.n_envs
    paths = ["few_envs" if n < 4 else "one_cpu" if cpus == 1
             else "other_thread" if thread else "forked"
             for cpus, thread in machines]
    forks, batches, update = _forks(monkeypatch), [], ppo.update
    monkeypatch.setattr(ppo, "update",
                        lambda *args: batches.append(args[4]) or update(*args))
    with _no_child_or_fd_left():
        for u, ((cpus, thread), path) in enumerate(zip(machines, paths)):
            _machine(monkeypatch, cpus, 1 + thread)
            if u and between is not None:
                between(ours)
                between(want)
            seeds = [u * n + i for i in range(n)]
            reward, stats = ours.run_update(seeds)
            batch, want_reward, want_stats = serial_run_update(want, seeds)
            for k in ("states", "actions", "rewards", "log_probs",
                      "advantages", "returns"):
                assert getattr(batches[-1], k).tobytes() == \
                    getattr(batch, k).tobytes(), k
            assert reward == want_reward
            assert list(stats.items())[:len(want_stats)] == \
                list(want_stats.items())
            assert stats["update_path"] == path
            if path == "forked":
                assert stats["partner_cpu_s"] > 0.0
            else:
                assert stats["partner_cpu_s"] == 0.0
        ours.close()
    assert len(forks) == sum(b == "forked" and a != "forked"
                             for a, b in zip([None] + paths, paths))
    assert ours.total_steps == want.total_steps
    for a, b in ((ours.actor, want.actor), (ours.critic, want.critic)):
        assert a.flat.tobytes() == b.flat.tobytes()
    for a, b in ((ours.actor_opt, want.actor_opt),
                 (ours.critic_opt, want.critic_opt)):
        assert (a.m.tobytes(), a.v.tobytes(), a.t, a.lr) == \
            (b.m.tobytes(), b.v.tobytes(), b.t, b.lr)
    for a, b in zip(ours.action_rngs + [ours.update_rng],
                    want.action_rngs + [want.update_rng]):
        assert a.bit_generator.state == b.bit_generator.state
    assert _env_states(ours) == _env_states(want)


@MACHINES
@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("minibatch_size", [64, 7, 200])
@pytest.mark.parametrize("entropy_coef", [0.0, 0.01])
@pytest.mark.parametrize("normalize", [True, False])
def test_update_equals_the_serial_loop(monkeypatch, cpus, thread, epochs,
                                       minibatch_size, entropy_coef,
                                       normalize):
    # 8 environments of 16 steps give 128 samples: 64 divides it, 7 does
    # not, 200 exceeds it
    cfg = PPOConfig(epochs=epochs, minibatch_size=minibatch_size,
                    entropy_coef=entropy_coef, normalize_advantages=normalize,
                    hidden_units=16, learning_rate=0.01)
    _check_against_the_serial_loop(
        monkeypatch, lambda: PPOTrainer(
            env_factory=lambda i: NoisyBanditEnv(obs_dim=STATE_DIM),
            obs_dim=STATE_DIM, n_actions=N_ACTIONS, config=cfg, seed=3),
        [(cpus, thread)] * 2)


def _short_scenario(n_envs):
    """A half-hour horizon at a tenth of the default demand."""
    sc = Scenario(horizon=1800.0, warmup=600.0,
                  ppo=PPOConfig(n_envs=n_envs, epochs=2, hidden_units=16))
    d = sc.demand
    return replace(sc, demand=replace(d, base_rate=d.base_rate * 0.1,
                                      end_rate=d.end_rate * 0.1))


@MACHINES
@pytest.mark.parametrize("n_envs", range(1, 10))
@pytest.mark.parametrize("kind", ["zonal", "bandit", "odd-length"])
def test_every_env_count_equals_the_serial_loop(monkeypatch, kind, n_envs,
                                                cpus, thread):
    # odd counts split unevenly, and below 4 everything runs in this
    # process; episodes of 15 steps split the value passes 7 and 8
    if kind == "zonal":
        sc = _short_scenario(n_envs)
        net = sc.network()
        make = lambda: PPOTrainer(  # noqa: E731
            env_factory=lambda i: ZonalDispatchEnv(sc, net=net),
            obs_dim=STATE_DIM, n_actions=N_ACTIONS, config=sc.ppo, seed=2)
    elif kind == "bandit":
        make = lambda: make_trainer(n_envs=n_envs, seed=2)  # noqa: E731
    else:
        cfg = PPOConfig(n_envs=n_envs, epochs=2, hidden_units=16)
        make = lambda: PPOTrainer(  # noqa: E731
            env_factory=lambda i: NoisyBanditEnv(obs_dim=STATE_DIM,
                                                 episode_len=15),
            obs_dim=STATE_DIM, n_actions=N_ACTIONS, config=cfg, seed=2)
    _check_against_the_serial_loop(monkeypatch, make, [(cpus, thread)] * 2)


def test_value_rows_past_a_pipe_buffer_equal_the_serial_loop(monkeypatch):
    # 100 environments of 200 steps: each half of the value rows is 100 x
    # 100 floats, more than a 64 KB pipe holds, so the swap finishes only if
    # one side reads before it writes
    cfg = PPOConfig(n_envs=100, epochs=1, minibatch_size=4000,
                    hidden_units=16)
    _check_against_the_serial_loop(
        monkeypatch, lambda: PPOTrainer(
            env_factory=lambda i: NoisyBanditEnv(obs_dim=2, episode_len=200),
            obs_dim=2, n_actions=N_ACTIONS, config=cfg, seed=2),
        [(2, False)])


# 4 is the fewest environments that fork; fewer run in this process on
# every machine (test_every_env_count_equals_the_serial_loop)
@pytest.mark.parametrize("n_envs", [4])
@pytest.mark.parametrize("alone", [(1, False), (2, True)],
                         ids=["one-cpu", "other-thread"])
def test_an_update_in_one_process_reaps_the_partner(monkeypatch, n_envs,
                                                    alone):
    # the partner is reaped at the update that runs here alone, and the
    # next split update forks another
    _check_against_the_serial_loop(
        monkeypatch, lambda: make_trainer(n_envs=n_envs, seed=6),
        [(2, False), alone, (2, False)])


@pytest.mark.parametrize("n_envs", [4])
def test_changes_between_updates_reach_the_partner(monkeypatch, n_envs):
    # the partner keeps no learned state: each update's request carries the
    # critic, its Adam state and step size, the update stream and the
    # partner's action streams as this process holds them
    def change(tr):
        tr.critic.flat[::5] += 0.25
        tr.critic_opt.lr *= 0.5
        tr.update_rng.random()
        tr.action_rngs[-1].random()

    _check_against_the_serial_loop(
        monkeypatch, lambda: make_trainer(n_envs=n_envs, seed=8),
        [(2, False)] * 3, change)


def test_the_parent_sends_its_half_rollout_and_its_value_rows(monkeypatch):
    # per update the partner is sent a request with the state it reads, the
    # states and rewards of this process's half and the values of the first
    # half of the steps, and nothing that grows with the epochs or the
    # updates: it draws the minibatches itself
    _machine(monkeypatch, 2)
    write, update = ppo._write, ppo.update
    sent = {}
    for epochs in (1, 6):
        log, batches = sent.setdefault(epochs, []), []
        # a copy as sent: the arrays of a request change in later updates
        monkeypatch.setattr(ppo, "_write", lambda fd, obj, log=log: log.append(
            pickle.loads(pickle.dumps(obj))) or write(fd, obj))
        monkeypatch.setattr(ppo, "update", lambda *args, batches=batches:
                            batches.append(args[4]) or update(*args))
        cfg = PPOConfig(epochs=epochs, hidden_units=16)
        tr = PPOTrainer(
            env_factory=lambda i: NoisyBanditEnv(obs_dim=STATE_DIM),
            obs_dim=STATE_DIM, n_actions=N_ACTIONS, config=cfg, seed=3)
        with _no_child_or_fd_left():
            for u in range(3):
                seeds = [8 * u + i for i in range(8)]
                critic, opt = copy.deepcopy(tr.critic), tr.critic_opt
                want = (seeds, tr.actor.flat, critic.flat, opt.m, opt.v,
                        opt.t, opt.lr, tr.update_rng.bit_generator.state,
                        [g.bit_generator.state for g in tr.action_rngs[4:]])
                want = pickle.loads(pickle.dumps(want))
                tr.run_update(seeds)
                request, half, rows = log[3 * u:]
                assert pickle.dumps(request) == pickle.dumps(want)
                batch = batches[-1]
                assert isinstance(half, RolloutBatch)
                assert half.actions is half.log_probs is half.returns is None
                assert half.states.tobytes() == batch.states[:, :4].tobytes()
                assert half.rewards.tobytes() == \
                    batch.rewards[:, :4].tobytes()
                assert rows.tobytes() == np.array(
                    [critic.forward(s)[0][:, 0] for s in batch.states[:8]]
                ).tobytes()
            tr.close()
    # a pickled int takes as many bytes as its value needs, so the sizes of
    # the requests leave out their last two fields: the 128-bit ints of a
    # fixed number of stream states
    assert len({len(pickle.dumps(m[:7])) for e in (1, 6)
                for m in sent[e][::3]}) == 1
    assert [len(pickle.dumps(m)) for k, m in enumerate(sent[1]) if k % 3] == \
        [len(pickle.dumps(m)) for k, m in enumerate(sent[6]) if k % 3]


def test_a_critic_error_in_the_child_is_raised_with_its_type(monkeypatch):
    parent = os.getpid()
    step = ppo.critic_loss_and_grad

    def nan_in_the_child(critic, *args):
        if os.getpid() != parent:
            critic.W[0][0, 0] = np.nan
        return step(critic, *args)

    monkeypatch.setattr(ppo, "critic_loss_and_grad", nan_in_the_child)
    _machine(monkeypatch, 2)
    tr = make_trainer(n_envs=4)
    with _no_child_or_fd_left():
        with pytest.raises(FloatingPointError, match="non-finite"):
            tr.run_update([0, 1, 2, 3])


def test_a_killed_child_raises_instead_of_hanging(monkeypatch):
    parent = os.getpid()
    step = ppo.critic_loss_and_grad

    def die_in_the_child(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return step(*args)

    monkeypatch.setattr(ppo, "critic_loss_and_grad", die_in_the_child)
    _machine(monkeypatch, 2)
    tr = make_trainer(n_envs=4)
    with _no_child_or_fd_left():
        with pytest.raises(RuntimeError, match="signal %d" % signal.SIGKILL):
            tr.run_update([0, 1, 2, 3])


def test_an_actor_error_reaps_the_child(monkeypatch):
    calls = []
    step = ppo.actor_loss_and_grad

    def fail_second(*args):
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("actor step failed")
        return step(*args)

    monkeypatch.setattr(ppo, "actor_loss_and_grad", fail_second)
    _machine(monkeypatch, 2)
    tr = make_trainer(n_envs=4)
    with _no_child_or_fd_left():
        with pytest.raises(ValueError, match="actor step failed"):
            tr.run_update([0, 1, 2, 3])


@pytest.mark.parametrize("env,fault,error", [
    (3, "raise", LookupError), (3, "kill", RuntimeError),
    (0, "raise", LookupError)],
    ids=["partner-raises", "partner-killed", "this-process-raises"])
def test_an_env_step_error_in_either_half(monkeypatch, env, fault, error):
    # envs 2 and 3 step in the partner, 0 and 1 here; a fault at the fifth
    # step stops the episode midway
    parent = os.getpid()
    tr = make_trainer(n_envs=4)
    step = tr.envs[env].step

    def faulty(action):
        if tr.envs[env].t == 4:
            assert (os.getpid() == parent) == (env < 2)
            if fault == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise LookupError("no step %d" % tr.envs[env].t)
        return step(action)

    tr.envs[env].step = faulty
    _machine(monkeypatch, 2)
    with _no_child_or_fd_left():
        with pytest.raises(error, match="no step 4" if error is LookupError
                           else "signal %d" % signal.SIGKILL):
            tr.run_update([0, 1, 2, 3])


def test_one_partner_serves_every_update_until_close(monkeypatch):
    _machine(monkeypatch, 2)
    pids = _forks(monkeypatch)
    tr = make_trainer(n_envs=4)
    with _no_child_or_fd_left():
        for u in range(3):
            tr.run_update([4 * u + i for i in range(4)])
            assert pids == [tr._partner.pid]
        partner = tr._partner
        tr.close()
        assert tr._partner is None and partner.pid is None
        for fd in (partner.r, partner.w):
            with pytest.raises(OSError):
                os.fstat(fd)
        tr.close()


def test_train_and_a_dropped_trainer_leave_no_partner(monkeypatch):
    _machine(monkeypatch, 2)
    pids = _forks(monkeypatch)
    with _no_child_or_fd_left():
        tr = make_trainer(n_envs=4)
        tr.train(list(range(8)), 3)
        assert len(pids) == 1 and tr._partner is None
        tr.run_update([0, 1, 2, 3])
        del tr
    assert len(pids) == 2


def test_a_partner_killed_between_updates_fails_the_next_only(monkeypatch):
    _machine(monkeypatch, 2)
    pids = _forks(monkeypatch)
    tr, want = make_trainer(n_envs=4), make_trainer(n_envs=4)
    with _no_child_or_fd_left():
        tr.run_update([0, 1, 2, 3])
        os.kill(pids[0], signal.SIGKILL)
        # wait until it has exited, without reaping it
        os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)
        with pytest.raises(RuntimeError, match="signal %d" % signal.SIGKILL):
            tr.run_update([4, 5, 6, 7])
        assert tr._partner is None
        # the failed update changed nothing here: the next forks anew and
        # takes its place
        tr.run_update([4, 5, 6, 7])
        assert len(pids) == 2
        tr.close()
    for seeds in ([0, 1, 2, 3], [4, 5, 6, 7]):
        serial_run_update(want, seeds)
    for a, b in ((tr.actor, want.actor), (tr.critic, want.critic)):
        assert a.flat.tobytes() == b.flat.tobytes()


def test_two_trainers_close_their_partners_independently(monkeypatch):
    # the partner forked second holds copies of this process's ends of the
    # first one's pipes
    _machine(monkeypatch, 2)
    pids = _forks(monkeypatch)
    a, b = make_trainer(n_envs=4), make_trainer(n_envs=4, seed=1)
    with _no_child_or_fd_left():
        a.run_update([0, 1, 2, 3])
        b.run_update([0, 1, 2, 3])
        a.close()
        with pytest.raises(ChildProcessError):
            os.waitpid(pids[0], os.WNOHANG)
        assert os.waitpid(pids[1], os.WNOHANG) == (0, 0)
        b.run_update([4, 5, 6, 7])
        a.run_update([4, 5, 6, 7])
        b.close()
        with pytest.raises(ChildProcessError):
            os.waitpid(pids[1], os.WNOHANG)
        assert os.waitpid(pids[2], os.WNOHANG) == (0, 0)
        a.close()
    assert len(pids) == 3


EXIT_WITHOUT_CLOSE = """
import os, sys
sys.path[:0] = sys.argv[1:]
os.sched_getaffinity = lambda pid: {0, 1}
from sodfeeder.ppo import PPOTrainer
from sodfeeder.scenario import PPOConfig
from toyenvs import BanditEnv
tr = PPOTrainer(env_factory=lambda i: BanditEnv(), obs_dim=2, n_actions=4,
                config=PPOConfig(n_envs=4, minibatch_size=32, epochs=1))
tr.run_update([0, 1, 2, 3])
print(tr._partner.pid)
"""


def test_a_process_that_exits_without_close_leaves_no_partner():
    # the partner inherits the standard output that ``subprocess.run``
    # reads to its end, so a partner left alive would hang the run
    here = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run(
        [sys.executable, "-c", EXIT_WITHOUT_CLOSE,
         os.path.join(os.path.dirname(here), "src"), here],
        capture_output=True, text=True, timeout=60, check=True)
    with pytest.raises(ProcessLookupError):
        os.kill(int(proc.stdout), 0)


# sha256 of the flat parameters and the stats rows after 3 updates, recorded
# with per-array Adam, two softmax passes and the rescanning step loop, under
# numpy 2.4.6 with scipy-openblas; another BLAS build may round the matmuls
# differently.  Its 2 environments take the in-process path on every machine
PINNED_TRAINER_SHA256 = \
    "6ec2542b220394e60044422c6fb595691974fe4002a3205c5cd29c8708409393"


# the same with 4 environments, which the forked path splits 2 and 2;
# recorded on the one-process rollout loop
PINNED_SPLIT_TRAINER_SHA256 = \
    "08fbf09590ea33a94712f7ab91f8b63d347a24a14dd3227ed1424b2bd7aabf51"


def _trainer_sha(n_envs):
    """sha256 of the trainer's flat parameters and stats rows after 3
    updates on the default scenario with ``n_envs`` environments."""
    sc = Scenario()
    net = sc.network()
    tr = PPOTrainer(env_factory=lambda i: ZonalDispatchEnv(sc, net=net),
                    obs_dim=STATE_DIM, n_actions=N_ACTIONS,
                    config=replace(sc.ppo, n_envs=n_envs), seed=0)
    tr.train(replace(sc.seeds, train_count=3 * n_envs).train_seeds(), 3)
    keys = ("update", "env_steps", "mean_episode_reward", "value_loss",
            "policy_loss", "entropy", "approx_kl", "clip_frac")
    h = hashlib.sha256(np.concatenate([tr.actor.flat_params(),
                                       tr.critic.flat_params()]).tobytes())
    h.update(repr([[row[k] for k in keys] for row in tr.stats.rows]).encode())
    return h.hexdigest()


def test_trainer_state_after_three_updates_is_pinned():
    assert _trainer_sha(2) == PINNED_TRAINER_SHA256


def test_split_trainer_state_after_three_updates_is_pinned(monkeypatch):
    _machine(monkeypatch, 2)
    assert _trainer_sha(4) == PINNED_SPLIT_TRAINER_SHA256


def test_checkpoint_round_trip(tmp_path):
    saved = state_actor()
    path = tmp_path / "policy.npz"
    save_checkpoint(path, saved, Scenario())
    with np.load(path) as data:
        assert sorted(data) == ["actor", "meta"]
        meta = json.loads(str(data["meta"]))
    assert sorted(meta) == ["layout_version", "scenario", "sizes"]
    assert meta["layout_version"] == CHECKPOINT_VERSION
    actor = load_checkpoint(path, Scenario())
    assert isinstance(actor, MLP) and actor.sizes == saved.sizes
    assert actor.flat.tobytes() == saved.flat.tobytes()
    x = np.random.default_rng(1).random((5, STATE_DIM))
    assert actor.forward(x)[0].tobytes() == saved.forward(x)[0].tobytes()
    # the bandit trainer's actor takes 2 inputs, not the state's 18
    tr = make_trainer()
    save_checkpoint(path, tr.actor, Scenario())
    with pytest.raises(ValueError, match="meta sizes \\[2, 64, 64, 4\\], not"):
        load_checkpoint(path, Scenario())


def test_checkpoint_version_mismatch_rejected(tmp_path, monkeypatch):
    saved = state_actor()
    path = tmp_path / "policy.npz"
    sc = Scenario()
    with monkeypatch.context() as m:
        m.setattr(ppo, "CHECKPOINT_VERSION", "sod-state-v0")
        save_checkpoint(path, saved, sc)
    with pytest.raises(ValueError, match="sod-state-v0"):
        load_checkpoint(path, sc)

    # scenario fingerprint: only the scenario it was trained for loads it
    path = tmp_path / "fingerprinted.npz"
    save_checkpoint(path, saved, sc)
    assert load_checkpoint(path, Scenario()).sizes == saved.sizes
    mismatched = [
        Scenario(n_vehicles=10, n_reserved=5),
        Scenario(n_reserved=2),
        Scenario(corridor=CorridorSpec(side_depth=0.0)),
        Scenario(limits=FeasibilityLimits(flex_window=900.0)),
        Scenario(norm=NormalizationRanges(request_cap=40.0)),
    ]
    for other in mismatched:
        with pytest.raises(ValueError, match="does not match the scenario"):
            load_checkpoint(path, other)
    # a file without a fingerprint, such as one written by other code, is
    # refused
    bare = tmp_path / "bare.npz"
    np.savez(bare, meta='{"layout_version": "%s"}' % CHECKPOINT_VERSION)
    with pytest.raises(ValueError, match="state_layout, corridor"):
        load_checkpoint(bare, sc)


def test_a_file_that_is_not_a_whole_checkpoint_is_refused(tmp_path):
    # each malformed file is a ValueError that names the file and what is
    # wrong, raised before any net is built
    sc = Scenario()
    for name in [*NOT_A_CHECKPOINT, *RAW_FILES]:
        bad = tmp_path / (name + ".npz")
        match = write_malformed(bad, name)
        with pytest.raises(ValueError, match=re.escape(str(bad) + match)):
            load_checkpoint(bad, sc)
    good = tmp_path / "good.npz"
    np.savez(good, **checkpoint_entries())
    assert load_checkpoint(good, sc).flat.tobytes() == \
        state_actor().flat.tobytes()


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8)


@pytest.fixture(scope="module")
def checkpoint_path(tmp_path_factory):
    return tmp_path_factory.mktemp("checkpoints") / "drawn.npz"


def _usually(data, good, other):
    """``good`` nine draws in ten, else a draw of ``other``."""
    return good if data.draw(st.integers(0, 9)) < 9 else data.draw(other)


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_checkpoint_loads_or_is_refused_and_never_crashes(checkpoint_path,
                                                            data):
    # the right layout and fingerprint, actor-shaped sizes and the count
    # they give are drawn most of the time, so that every check is reached
    sc = Scenario()
    hidden = data.draw(st.lists(st.integers(-2, 12), max_size=3))
    meta = {
        "layout_version": _usually(data, CHECKPOINT_VERSION, _json_values),
        "sizes": _usually(data, [STATE_DIM, *hidden, N_ACTIONS],
                          _json_values),
        "scenario": _usually(data, ppo.scenario_fingerprint(sc),
                             _json_values),
    }
    meta = {k: v for k, v in meta.items() if data.draw(st.integers(0, 19))}
    entries = {"meta": json.dumps(meta)}
    sizes = meta.get("sizes")
    try:
        count = sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))
    except TypeError:
        count = 0
    if data.draw(st.integers(0, 9)):
        length = max(0, min(10**4, _usually(data, count,
                                            st.integers(0, 300))))
        actor = np.random.default_rng(length).standard_normal(length)
        if actor.size and not data.draw(st.integers(0, 4)):
            actor[data.draw(st.integers(0, actor.size - 1))] = \
                data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        entries["actor"] = actor
    np.savez(checkpoint_path, **entries)
    try:
        actor = load_checkpoint(checkpoint_path, sc)
    except ValueError as exc:
        assert str(checkpoint_path) in str(exc)
        return
    assert actor.sizes == sizes and actor.flat.tobytes() == \
        entries["actor"].tobytes()


def test_lr_annealing_schedule():
    cfg = PPOConfig(n_envs=2, anneal_lr=True, learning_rate=0.01,
                    minibatch_size=16, epochs=1)
    tr = PPOTrainer(env_factory=lambda i: BanditEnv(), obs_dim=2,
                    n_actions=4, config=cfg, seed=0, n_envs=2)
    tr.train([0, 1], 4)
    # after the last update the step size has decayed to lr/n_updates
    assert tr.actor_opt.lr == pytest.approx(0.01 * (1 - 3 / 4))
