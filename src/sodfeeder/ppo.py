"""Clipped-surrogate policy optimization with GAE, on the dense nets.

The actor maps observations to 4 action logits (softmax policy); the critic
estimates state values.  Rollouts are collected from independent environment
instances, advantages come from the backward GAE recursion, and updates run
shuffled minibatch epochs with Adam.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .env import STATE_LAYOUT_VERSION as CHECKPOINT_VERSION
from .nets import MLP, Adam, log_softmax, softmax


# ---- advantage estimation --------------------------------------------------

def td_error(reward, value, next_value, discount, done):
    """One-step temporal-difference error; the bootstrap is cut at episode
    ends."""
    return reward + discount * next_value * (1.0 - done) - value


def gae_from_deltas(deltas, discount, lam, dones):
    """Backward recursion A_t = delta_t + discount*lam*(1-done_t)*A_{t+1}."""
    deltas = np.asarray(deltas, dtype=float)
    dones = np.asarray(dones, dtype=float)
    adv = np.zeros_like(deltas)
    running = np.zeros(deltas.shape[1]) if deltas.ndim > 1 else 0.0
    for t in range(len(deltas) - 1, -1, -1):
        running = deltas[t] + discount * lam * (1.0 - dones[t]) * running
        adv[t] = running
    return adv


def compute_gae(rewards, values, dones, last_values, discount, lam):
    """Advantages and value targets for a (T, N) rollout."""
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    dones = np.asarray(dones, dtype=float)
    next_values = np.vstack([values[1:], np.atleast_2d(last_values)])
    deltas = td_error(rewards, values, next_values, discount, dones)
    adv = gae_from_deltas(deltas, discount, lam, dones)
    returns = adv + values
    return adv, returns


def clip_g(eps, adv):
    """The clipped branch of the surrogate objective."""
    adv = np.asarray(adv, dtype=float)
    return np.where(adv >= 0, (1 + eps) * adv, (1 - eps) * adv)


# ---- losses with analytic gradients ----------------------------------------

def actor_loss_and_grad(actor, states, actions, old_logp, advantages,
                        clip_eps, entropy_coef=0.0):
    """Negated clipped surrogate (minimized) plus optional entropy bonus.

    Returns (loss, grads, stats).  Per-sample terms on the clipped side
    contribute zero gradient.
    """
    states = np.atleast_2d(states)
    actions = np.asarray(actions, dtype=int)
    n = len(actions)
    logits, cache = actor.forward(states)
    logp_all = log_softmax(logits)
    probs = softmax(logits)
    logp = logp_all[np.arange(n), actions]
    ratio = np.exp(logp - old_logp)

    surr_unclipped = ratio * advantages
    surr_clipped = clip_g(clip_eps, advantages)
    surr = np.minimum(surr_unclipped, surr_clipped)

    entropy = -(probs * logp_all).sum(axis=1)
    loss = -surr.mean() - entropy_coef * entropy.mean()

    # gradient wrt logits
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), actions] = 1.0
    clipped_out = ((advantages >= 0) & (ratio > 1 + clip_eps)) | \
                  ((advantages < 0) & (ratio < 1 - clip_eps))
    w = np.where(clipped_out, 0.0, ratio * advantages) / n
    dlogits = -w[:, None] * (onehot - probs)
    if entropy_coef != 0.0:
        dH = -probs * (logp_all + entropy[:, None])
        dlogits -= entropy_coef * dH / n
    grads = actor.backward(cache, dlogits)

    stats = {
        "entropy": float(entropy.mean()),
        "approx_kl": float(np.mean(old_logp - logp)),
        "clip_frac": float(np.mean(clipped_out)),
    }
    return float(loss), grads, stats


def critic_loss_and_grad(critic, states, targets):
    """Mean squared error between value predictions and return targets."""
    states = np.atleast_2d(states)
    targets = np.asarray(targets, dtype=float)
    out, cache = critic.forward(states)
    v = out[:, 0]
    err = v - targets
    loss = float(np.mean(err ** 2))
    dout = (2.0 * err / len(err))[:, None]
    grads = critic.backward(cache, dout)
    return loss, grads


# ---- rollout collection ----------------------------------------------------

@dataclass
class RolloutBatch:
    states: np.ndarray       # (T, N, obs_dim)
    actions: np.ndarray      # (T, N)
    rewards: np.ndarray      # (T, N)
    dones: np.ndarray        # (T, N)
    log_probs: np.ndarray    # (T, N), recorded at sampling time
    values: np.ndarray       # (T, N), recorded at sampling time
    advantages: np.ndarray = None
    returns: np.ndarray = None

    def flatten(self):
        T, N = self.actions.shape
        return (self.states.reshape(T * N, -1), self.actions.ravel(),
                self.log_probs.ravel(), self.advantages.ravel(),
                self.returns.ravel())


def sample_action(probs, rng):
    return int(rng.choice(len(probs), p=probs))


def collect_rollouts(envs, actor, critic, n_steps, instance_seeds,
                     action_rngs, config):
    """Run each environment ``n_steps`` from a fresh episode, sampling from
    the current policy.  Environments are independent; results concatenate
    deterministically by environment index."""
    n_envs = len(envs)
    obs = np.stack([env.reset(instance_seeds[i])
                    for i, env in enumerate(envs)])
    obs_dim = obs.shape[1]
    states = np.zeros((n_steps, n_envs, obs_dim))
    actions = np.zeros((n_steps, n_envs), dtype=int)
    rewards = np.zeros((n_steps, n_envs))
    dones = np.zeros((n_steps, n_envs))
    log_probs = np.zeros((n_steps, n_envs))
    values = np.zeros((n_steps, n_envs))

    for t in range(n_steps):
        logits, _ = actor.forward(obs)
        probs = softmax(logits)
        logp_all = log_softmax(logits)
        vals, _ = critic.forward(obs)
        states[t] = obs
        values[t] = vals[:, 0]
        next_obs = []
        for i, env in enumerate(envs):
            a = sample_action(probs[i], action_rngs[i])
            o, r, done, _ = env.step(a)
            actions[t, i] = a
            rewards[t, i] = r
            dones[t, i] = float(done)
            log_probs[t, i] = logp_all[i, a]
            next_obs.append(o)
        obs = np.stack(next_obs)

    last_vals, _ = critic.forward(obs)
    batch = RolloutBatch(states, actions, rewards, dones, log_probs, values)
    batch.advantages, batch.returns = compute_gae(
        rewards, values, dones, last_vals[:, 0], config.discount,
        config.gae_lambda)
    return batch


# ---- updates ---------------------------------------------------------------

def update(actor, critic, actor_opt, critic_opt, batch, config, rng):
    """Shuffled minibatch epochs over one rollout batch."""
    states, actions, old_logp, adv, returns = batch.flatten()
    if config.normalize_advantages:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    n = len(actions)
    stats_acc = {"policy_loss": [], "value_loss": [], "entropy": [],
                 "approx_kl": [], "clip_frac": []}
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.minibatch_size):
            idx = order[start:start + config.minibatch_size]
            ploss, pgrads, pstats = actor_loss_and_grad(
                actor, states[idx], actions[idx], old_logp[idx], adv[idx],
                config.clip_eps, config.entropy_coef)
            actor.set_params(actor_opt.step(actor.params, pgrads))
            vloss, vgrads = critic_loss_and_grad(critic, states[idx],
                                                 returns[idx])
            critic.set_params(critic_opt.step(critic.params, vgrads))
            stats_acc["policy_loss"].append(ploss)
            stats_acc["value_loss"].append(vloss)
            stats_acc["entropy"].append(pstats["entropy"])
            stats_acc["approx_kl"].append(pstats["approx_kl"])
            stats_acc["clip_frac"].append(pstats["clip_frac"])
    return {k: float(np.mean(v)) for k, v in stats_acc.items()}


# ---- checkpoints -----------------------------------------------------------

def save_checkpoint(path, actor, critic, config, layout_version=CHECKPOINT_VERSION):
    meta = {
        "layout_version": layout_version,
        "actor_sizes": actor.sizes,
        "critic_sizes": critic.sizes,
        "config": {k: v for k, v in vars(config).items()},
    }
    arrays = {}
    for i, p in enumerate(actor.params):
        arrays["actor_%d" % i] = p
    for i, p in enumerate(critic.params):
        arrays["critic_%d" % i] = p
    np.savez(path, meta=json.dumps(meta), **arrays)


def load_checkpoint(path, expected_layout=CHECKPOINT_VERSION):
    data = np.load(path, allow_pickle=False)
    meta = json.loads(str(data["meta"]))
    if expected_layout is not None and meta["layout_version"] != expected_layout:
        raise ValueError(
            "checkpoint layout %r does not match expected %r"
            % (meta["layout_version"], expected_layout))
    rng = np.random.default_rng(0)
    actor = MLP(meta["actor_sizes"], rng)
    critic = MLP(meta["critic_sizes"], rng)
    actor.set_params([data["actor_%d" % i]
                      for i in range(2 * (len(meta["actor_sizes"]) - 1))])
    critic.set_params([data["critic_%d" % i]
                       for i in range(2 * (len(meta["critic_sizes"]) - 1))])
    return actor, critic, meta


def greedy_action(actor, obs):
    logits, _ = actor.forward(np.atleast_2d(obs))
    return int(np.argmax(logits[0]))


# ---- trainer ---------------------------------------------------------------

@dataclass
class TrainStats:
    rows: list = field(default_factory=list)

    def add(self, update_idx, steps, mean_episode_reward, stats):
        self.rows.append({
            "update": update_idx,
            "env_steps": steps,
            "mean_episode_reward": mean_episode_reward,
            "value_loss": stats["value_loss"],
            "policy_loss": stats["policy_loss"],
            "entropy": stats["entropy"],
            "approx_kl": stats["approx_kl"],
            "clip_frac": stats["clip_frac"],
        })

    def to_csv(self, path):
        if not self.rows:
            return
        with open(path, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(self.rows[0].keys()))
            w.writeheader()
            w.writerows(self.rows)


class PPOTrainer:
    """Owns the nets, optimizers and parallel environments."""

    def __init__(self, env_factory, obs_dim, n_actions, config, seed=0,
                 n_envs=None):
        self.config = config
        self.n_envs = n_envs if n_envs is not None else config.n_envs
        rng = np.random.default_rng(seed)
        hidden = config.hidden_units
        self.actor = MLP([obs_dim, hidden, hidden, n_actions], rng,
                         out_gain=0.01)
        self.critic = MLP([obs_dim, hidden, hidden, 1], rng, out_gain=1.0)
        self.actor_opt = Adam(self.actor.params, config.learning_rate,
                              config.adam_beta1, config.adam_beta2,
                              config.adam_eps)
        self.critic_opt = Adam(self.critic.params, config.learning_rate,
                               config.adam_beta1, config.adam_beta2,
                               config.adam_eps)
        self.envs = [env_factory(i) for i in range(self.n_envs)]
        self.seed = seed
        # independent per-environment sampling streams, index-addressed so an
        # n_envs=1 run replays environment 0 of a wider run exactly
        self.action_rngs = [np.random.default_rng([seed, 7919 + i])
                            for i in range(self.n_envs)]
        self.update_rng = np.random.default_rng([seed, 104729])
        self.stats = TrainStats()
        self.total_steps = 0

    def run_update(self, instance_seeds):
        batch = collect_rollouts(self.envs, self.actor, self.critic,
                                 self.envs[0].episode_len,
                                 instance_seeds, self.action_rngs, self.config)
        stats = update(self.actor, self.critic, self.actor_opt,
                       self.critic_opt, batch, self.config, self.update_rng)
        self.total_steps += batch.actions.size
        mean_ep_reward = float(batch.rewards.sum() / self.n_envs)
        return mean_ep_reward, stats

    def train(self, instance_seed_stream, n_updates):
        """Run updates, consuming n_envs instance seeds per update."""
        base_lr = self.config.learning_rate
        for u in range(n_updates):
            if self.config.anneal_lr:
                frac = 1.0 - u / n_updates
                self.actor_opt.lr = base_lr * frac
                self.critic_opt.lr = base_lr * frac
            seeds = [instance_seed_stream[(u * self.n_envs + i)
                                          % len(instance_seed_stream)]
                     for i in range(self.n_envs)]
            mean_ep_reward, stats = self.run_update(seeds)
            self.stats.add(u, self.total_steps, mean_ep_reward, stats)
        return self.stats
