import copy
import hashlib
import pickle
from dataclasses import replace

import numpy as np
import pytest

from sodfeeder import ppo
from sodfeeder.nets import MLP, Adam, orthogonal, softmax_and_log
from sodfeeder.ppo import (CHECKPOINT_VERSION, PPOTrainer, actor_loss_and_grad,
                           clip_g, collect_rollouts, compute_gae,
                           critic_loss_and_grad, gae_from_deltas, greedy_action,
                           greedy_logits, load_checkpoint, sample_action, save_checkpoint,
                           td_error)
from sodfeeder.corridor import CorridorSpec
from sodfeeder.costs import FeasibilityLimits
from sodfeeder.env import N_ACTIONS, STATE_DIM, ZonalDispatchEnv
from sodfeeder.scenario import NormalizationRanges, PPOConfig, Scenario

from oracles import PerArrayAdam, gae_direct
from toyenvs import BanditEnv


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
    arrays = [p.copy() for p in net.params]
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
    for p, a in zip(net.params, arrays):
        assert np.array_equal(p, a)


def _per_layer(net, flat):
    """``flat`` cut into arrays shaped like ``net.params``."""
    out, k = [], 0
    for p in net.params:
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
    for p, part in zip(net.params, _per_layer(net, net.flat)):
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
    for p in c.params:
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
    dones = np.zeros((T, N))
    dones[-1] = 1.0
    last = rng.standard_normal(N)
    adv, ret = compute_gae(rewards, values, dones, last, 0.99, 0.95)
    assert np.allclose(ret, adv + values)
    # with lam=1, discount=1 and no termination the advantage telescopes to
    # sum(rewards) + last_value - values[0]
    dones0 = np.zeros((T, N))
    adv2, _ = compute_gae(rewards, values, dones0, last, 1.0, 1.0)
    want = rewards.sum(axis=0) + last - values[0]
    assert np.allclose(adv2[0], want)


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
    batch = collect_rollouts(tr.envs, tr.actor, tr.critic, 16,
                             [0, 1, 2, 3], tr.action_rngs, tr.config)
    assert batch.states.shape == (16, 4, 2)
    assert batch.actions.shape == (16, 4)
    assert np.all(batch.dones[-1] == 1.0)
    assert np.all(batch.dones[:-1] == 0.0)
    assert batch.advantages.shape == (16, 4)


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
            want = actor.forward(x)[0][0]
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
    for a, b in zip(tr8.actor.params, tr1.actor.params):
        assert np.allclose(a, b)
    seeds = list(range(100, 108))
    b8 = collect_rollouts(tr8.envs, tr8.actor, tr8.critic, 16, seeds,
                          tr8.action_rngs, tr8.config)
    b1 = collect_rollouts(tr1.envs, tr1.actor, tr1.critic, 16, seeds[:1],
                          tr1.action_rngs, tr1.config)
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


def test_training_stats_csv(tmp_path):
    tr = make_trainer()
    tr.train(list(range(8)), 3)
    path = tmp_path / "stats.csv"
    tr.stats.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("update,env_steps,mean_episode_reward,value_loss,"
                        "policy_loss,entropy,approx_kl,clip_frac,"
                        "rollout_s,update_s")
    assert len(lines) == 4
    for row in tr.stats.rows:
        assert row["rollout_s"] > 0.0 and row["update_s"] > 0.0


# sha256 of the flat parameters and the stats rows after 3 updates, recorded
# with per-array Adam, two softmax passes and the rescanning step loop, under
# numpy 2.4.6 with scipy-openblas; another BLAS build may round the matmuls
# differently
PINNED_TRAINER_SHA256 = \
    "6ec2542b220394e60044422c6fb595691974fe4002a3205c5cd29c8708409393"


def test_trainer_state_after_three_updates_is_pinned():
    sc = Scenario()
    net = sc.network()
    tr = PPOTrainer(env_factory=lambda i: ZonalDispatchEnv(sc, net=net),
                    obs_dim=STATE_DIM, n_actions=N_ACTIONS,
                    config=replace(sc.ppo, n_envs=2), seed=0)
    tr.train(replace(sc.seeds, train_count=6).train_seeds(), 3)
    keys = ("update", "env_steps", "mean_episode_reward", "value_loss",
            "policy_loss", "entropy", "approx_kl", "clip_frac")
    h = hashlib.sha256(np.concatenate([tr.actor.flat_params(),
                                       tr.critic.flat_params()]).tobytes())
    h.update(repr([[row[k] for k in keys] for row in tr.stats.rows]).encode())
    assert h.hexdigest() == PINNED_TRAINER_SHA256


def test_checkpoint_round_trip(tmp_path):
    tr = make_trainer()
    tr.run_update([0, 1, 2, 3])
    path = tmp_path / "policy.npz"
    save_checkpoint(path, tr.actor, tr.critic, tr.config, Scenario())
    actor, critic, meta = load_checkpoint(path, Scenario())
    assert meta["layout_version"] == CHECKPOINT_VERSION
    for a, b in zip(actor.params, tr.actor.params):
        assert np.array_equal(a, b)
    x = np.array([[1.0, 0.0]])
    assert np.allclose(actor.forward(x)[0], tr.actor.forward(x)[0])
    assert np.allclose(critic.forward(x)[0], tr.critic.forward(x)[0])


def test_checkpoint_version_mismatch_rejected(tmp_path, monkeypatch):
    tr = make_trainer()
    path = tmp_path / "policy.npz"
    sc = Scenario()
    with monkeypatch.context() as m:
        m.setattr(ppo, "CHECKPOINT_VERSION", "sod-state-v0")
        save_checkpoint(path, tr.actor, tr.critic, tr.config, sc)
    with pytest.raises(ValueError, match="sod-state-v0"):
        load_checkpoint(path, sc)

    # scenario fingerprint: only the scenario it was trained for loads it
    path = tmp_path / "fingerprinted.npz"
    save_checkpoint(path, tr.actor, tr.critic, tr.config, sc)
    actor, _, meta = load_checkpoint(path, Scenario())
    assert meta["scenario"]["n_vehicles"] == sc.n_vehicles
    assert actor.sizes == tr.actor.sizes
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


def test_lr_annealing_schedule():
    cfg = PPOConfig(n_envs=2, anneal_lr=True, learning_rate=0.01,
                    minibatch_size=16, epochs=1)
    tr = PPOTrainer(env_factory=lambda i: BanditEnv(), obs_dim=2,
                    n_actions=4, config=cfg, seed=0, n_envs=2)
    tr.train([0, 1], 4)
    # after the last update the step size has decayed to lr/n_updates
    assert tr.actor_opt.lr == pytest.approx(0.01 * (1 - 3 / 4))
