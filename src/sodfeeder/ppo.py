"""Clipped-surrogate policy optimization with GAE, on the dense nets.

The actor maps observations to 4 action logits (softmax policy); the critic
estimates state values.  Rollouts are collected from independent environment
instances, advantages come from the backward GAE recursion, and updates run
shuffled minibatch epochs with Adam.
"""

from __future__ import annotations

import csv
import json
import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .env import STATE_LAYOUT_VERSION as CHECKPOINT_VERSION
from .env import scenario_fingerprint
from .nets import MLP, Adam, softmax_and_log


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
                        clip_eps, entropy_coef=0.0, surr_clipped=None):
    """Negated clipped surrogate (minimized) plus optional entropy bonus.

    Returns (loss, grads, stats).  Per-sample terms on the clipped side
    contribute zero gradient.  ``surr_clipped`` is
    ``clip_g(clip_eps, advantages)`` when the caller has it already.
    Means are written ``x.sum() / n``: the reduction ``mean`` runs, without
    its wrapper.
    """
    actions = np.asarray(actions, dtype=int)
    n = len(actions)
    rows = np.arange(n)
    logits, cache = actor.forward(states)
    probs, logp_all = softmax_and_log(logits)
    logp = logp_all[rows, actions]
    ratio = np.exp(logp - old_logp)

    surr_unclipped = ratio * advantages
    if surr_clipped is None:
        surr_clipped = clip_g(clip_eps, advantages)
    surr = np.minimum(surr_unclipped, surr_clipped)

    entropy = -(probs * logp_all).sum(axis=1)
    entropy_mean = entropy.sum() / n
    loss = -(surr.sum() / n) - entropy_coef * entropy_mean

    # gradient wrt logits: w * (probs - onehot), which is
    # -w * (onehot - probs) up to the sign of a zero
    clipped_out = np.where(advantages >= 0, ratio > 1 + clip_eps,
                           ratio < 1 - clip_eps)
    w = np.where(clipped_out, 0.0, surr_unclipped) / n
    dlogits = probs.copy()
    dlogits[rows, actions] -= 1.0
    dlogits *= w[:, None]
    if entropy_coef != 0.0:
        dH = -probs * (logp_all + entropy[:, None])
        dlogits -= entropy_coef * dH / n
    grads = actor.backward(cache, dlogits)

    stats = {
        "entropy": float(entropy_mean),
        "approx_kl": float((old_logp - logp).sum() / n),
        "clip_frac": np.count_nonzero(clipped_out) / n,
    }
    return float(loss), grads, stats


def critic_loss_and_grad(critic, states, targets):
    """Mean squared error between value predictions and return targets."""
    targets = np.asarray(targets, dtype=float)
    out, cache = critic.forward(states)
    v = out[:, 0]
    err = v - targets
    n = len(err)
    loss = float((err * err).sum() / n)
    dout = (2.0 * err / n)[:, None]
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


def sample_action(probs, rngs):
    """One action index per row of the (n_envs, n_actions) table ``probs``,
    row i drawn with ``rngs[i]``: the same draw as
    ``rngs[i].choice(n_actions, p=probs[i])``, without its argument checks.
    ``bisect_right`` on a row of the cumulative table finds the index that
    ``searchsorted(side="right")`` would."""
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return [bisect_right(row, rng.random())
            for row, rng in zip(cdf.tolist(), rngs)]


def collect_rollouts(envs, actor, critic, n_steps, instance_seeds,
                     action_rngs, config):
    """Run each environment ``n_steps`` from a fresh episode, sampling from
    the current policy.  Environments are independent; results concatenate
    deterministically by environment index."""
    n_envs = len(envs)
    obs = np.array([env.reset(instance_seeds[i])
                    for i, env in enumerate(envs)])
    obs_dim = obs.shape[1]
    states = np.zeros((n_steps, n_envs, obs_dim))
    actions = np.zeros((n_steps, n_envs), dtype=int)
    rewards = np.zeros((n_steps, n_envs))
    dones = np.zeros((n_steps, n_envs))
    log_probs = np.zeros((n_steps, n_envs))
    values = np.zeros((n_steps, n_envs))

    rows = np.arange(n_envs)
    for t in range(n_steps):
        logits, _ = actor.forward(obs)
        probs, logp_all = softmax_and_log(logits)
        vals, _ = critic.forward(obs)
        states[t] = obs
        values[t] = vals[:, 0]
        acts = sample_action(probs, action_rngs)
        steps = [env.step(a) for env, a in zip(envs, acts)]
        actions[t] = acts
        rewards[t] = [s[1] for s in steps]
        dones[t] = [s[2] for s in steps]
        log_probs[t] = logp_all[rows, acts]
        obs = np.array([s[0] for s in steps])

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
    surr_clipped = clip_g(config.clip_eps, adv)
    n = len(actions)
    stats_acc = {"value_loss": [], "policy_loss": [], "entropy": [],
                 "approx_kl": [], "clip_frac": []}
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.minibatch_size):
            idx = order[start:start + config.minibatch_size]
            mb_states = states[idx]
            ploss, pgrads, pstats = actor_loss_and_grad(
                actor, mb_states, actions[idx], old_logp[idx], adv[idx],
                config.clip_eps, config.entropy_coef, surr_clipped[idx])
            actor_opt.step(pgrads)
            vloss, vgrads = critic_loss_and_grad(critic, mb_states,
                                                 returns[idx])
            critic_opt.step(vgrads)
            pstats.update(policy_loss=ploss, value_loss=vloss)
            for k, acc in stats_acc.items():
                acc.append(pstats[k])
    return {k: float(np.mean(v)) for k, v in stats_acc.items()}


# ---- checkpoints -----------------------------------------------------------

def save_checkpoint(path, actor, critic, config, scenario):
    """Write the nets, the state layout version and the fingerprint of the
    ``scenario`` they were trained for, which ``load_checkpoint`` checks."""
    meta = {
        "layout_version": CHECKPOINT_VERSION,
        "actor_sizes": actor.sizes,
        "critic_sizes": critic.sizes,
        "config": {k: v for k, v in vars(config).items()},
        "scenario": scenario_fingerprint(scenario),
    }
    arrays = {"%s_%d" % (name, i): p
              for name, net in (("actor", actor), ("critic", critic))
              for i, p in enumerate(net.params)}
    np.savez(path, meta=json.dumps(meta), **arrays)


def load_checkpoint(path, scenario):
    """Read the nets back for ``scenario``.  A checkpoint written for another
    state layout is refused, and so is one whose embedded fingerprint differs
    from the scenario's (or that has none)."""
    data = np.load(path, allow_pickle=False)
    meta = json.loads(str(data["meta"]))
    if meta["layout_version"] != CHECKPOINT_VERSION:
        raise ValueError(
            "checkpoint layout %r does not match expected %r"
            % (meta["layout_version"], CHECKPOINT_VERSION))
    want = json.loads(json.dumps(scenario_fingerprint(scenario)))
    got = meta.get("scenario") or {}
    differ = [k for k in want if got.get(k) != want[k]]
    if differ:
        raise ValueError("checkpoint %s does not match the scenario's %s"
                         % (path, ", ".join(differ)))
    rng = np.random.default_rng(0)
    actor = MLP(meta["actor_sizes"], rng)
    critic = MLP(meta["critic_sizes"], rng)
    for name, net in (("actor", actor), ("critic", critic)):
        for i, p in enumerate(net.params):
            p[...] = data["%s_%d" % (name, i)]
    return actor, critic, meta


def greedy_logits(actor, obs):
    """``actor.forward(obs)[0][0]`` as a list, computed on the 1-D
    observation without the batch wrapper; equal to it bit for bit."""
    h = obs
    for W, b in zip(actor.W[:-1], actor.b):
        h = h @ W
        h += b
        np.tanh(h, out=h)
    out = h @ actor.W[-1]
    out += actor.b[-1]
    logits = out.tolist()
    if not all(map(math.isfinite, logits)):
        raise FloatingPointError("non-finite values in forward pass")
    return logits


def greedy_action(actor, obs):
    """The first action of maximal logit, as ``argmax`` picks it."""
    logits = greedy_logits(actor, obs)
    return logits.index(max(logits))


# ---- trainer ---------------------------------------------------------------

@dataclass
class TrainStats:
    rows: list = field(default_factory=list)

    def add(self, update_idx, steps, mean_episode_reward, stats):
        """One row: the update's counters, then ``stats`` in its own order."""
        self.rows.append({"update": update_idx, "env_steps": steps,
                          "mean_episode_reward": mean_episode_reward,
                          **stats})

    def to_csv(self, path):
        if not self.rows:
            return
        with open(path, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(self.rows[0].keys()))
            w.writeheader()
            w.writerows(self.rows)


class PPOTrainer:
    """Owns the nets, optimizers and parallel environments.

    ``config.n_envs`` sets the number of environments; ``n_envs`` may only
    repeat it.
    """

    def __init__(self, env_factory, obs_dim, n_actions, config, seed=0,
                 n_envs=None):
        if n_envs is not None and n_envs != config.n_envs:
            raise ValueError("n_envs=%r contradicts ppo.n_envs=%r; set the "
                             "count in the config" % (n_envs, config.n_envs))
        self.config = config
        self.n_envs = config.n_envs
        rng = np.random.default_rng(seed)
        hidden = config.hidden_units
        self.actor = MLP([obs_dim, hidden, hidden, n_actions], rng,
                         out_gain=0.01)
        self.critic = MLP([obs_dim, hidden, hidden, 1], rng, out_gain=1.0)
        self.actor_opt = Adam(self.actor.flat, config.learning_rate,
                              config.adam_beta1, config.adam_beta2,
                              config.adam_eps)
        self.critic_opt = Adam(self.critic.flat, config.learning_rate,
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
        """One rollout and update; the stats carry their wall times
        ``rollout_s`` and ``update_s``."""
        t0 = time.perf_counter()
        batch = collect_rollouts(self.envs, self.actor, self.critic,
                                 self.envs[0].episode_len,
                                 instance_seeds, self.action_rngs, self.config)
        t1 = time.perf_counter()
        stats = update(self.actor, self.critic, self.actor_opt,
                       self.critic_opt, batch, self.config, self.update_rng)
        stats["rollout_s"] = t1 - t0
        stats["update_s"] = time.perf_counter() - t1
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
