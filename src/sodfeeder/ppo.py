"""Clipped-surrogate policy optimization with GAE, on the dense nets.

The actor maps observations to 4 action logits (softmax policy); the critic
estimates state values.  Rollouts are collected from independent environment
instances, advantages come from the backward GAE recursion, and updates run
shuffled minibatch epochs with Adam.

Rollouts run in this process.  An update runs the actor's and the critic's
minibatch steps in two processes at once: ``update`` forks one child for
the critic and reaps it before it returns (see ``update``).
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .econ import write_table
from .env import N_ACTIONS, STATE_DIM, scenario_fingerprint
from .env import STATE_LAYOUT_VERSION as CHECKPOINT_VERSION
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


def compute_gae(rewards, values, discount, lam):
    """Advantages and value targets for (T, N) float arrays of a rollout
    whose last step ends every episode, and no earlier step any: nothing is
    bootstrapped past it, and the recursion starts from zero there."""
    next_values = np.concatenate([values[1:], np.zeros_like(values[:1])])
    deltas = td_error(rewards, values, next_values, discount, 0.0)
    adv = gae_from_deltas(deltas, discount, lam, np.zeros(len(deltas)))
    return adv, adv + values


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
    log_probs: np.ndarray    # (T, N), recorded at sampling time
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
    the current policy.  ``n_steps`` is the episode length, so every episode
    ends at the last step and at no other, as ``compute_gae`` assumes.
    Environments are independent; results concatenate deterministically by
    environment index."""
    n_envs = len(envs)
    obs = np.array([env.reset(instance_seeds[i])
                    for i, env in enumerate(envs)])
    obs_dim = obs.shape[1]
    states = np.zeros((n_steps, n_envs, obs_dim))
    actions = np.zeros((n_steps, n_envs), dtype=int)
    rewards = np.zeros((n_steps, n_envs))
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
        log_probs[t] = logp_all[rows, acts]
        obs = np.array([s[0] for s in steps])

    batch = RolloutBatch(states, actions, rewards, log_probs)
    batch.advantages, batch.returns = compute_gae(
        rewards, values, config.discount, config.gae_lambda)
    return batch


# ---- updates ---------------------------------------------------------------

def critic_steps(critic, critic_opt, states, returns, minibatches):
    """The critic's Adam steps over ``minibatches``, in order; returns the
    value loss of each."""
    losses = []
    for idx in minibatches:
        vloss, vgrads = critic_loss_and_grad(critic, states[idx],
                                             returns[idx])
        critic_opt.step(vgrads)
        losses.append(vloss)
    return losses


def _fork(fn):
    """Fork a process that runs ``fn`` and writes to a pipe, pickled, (None,
    its result) or (the exception it raised, None); returns (pid, read end).
    The child never returns: it exits with status 0 once it has written,
    with 1 if it could not."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    code = 1
    try:
        os.close(r)
        try:
            payload = pickle.dumps((None, fn()))
        except BaseException as exc:
            payload = pickle.dumps((exc, None))
        with os.fdopen(w, "wb") as f:
            f.write(payload)
        code = 0
    finally:
        os._exit(code)


def _reap(pid, r, kill):
    """Close the pipe and wait for the child, killing it first if ``kill``;
    returns its wait status."""
    if kill:
        os.kill(pid, signal.SIGKILL)
    os.close(r)
    return os.waitpid(pid, 0)[1]


def _join(pid, r):
    """Read what the forked process sent, reap it and return its result;
    raises its exception, or ``RuntimeError`` if it died without sending
    one."""
    chunks = []
    try:
        while chunk := os.read(r, 1 << 16):
            chunks.append(chunk)
    except BaseException:
        _reap(pid, r, kill=True)
        raise
    code = os.waitstatus_to_exitcode(_reap(pid, r, kill=False))
    if code < 0:
        raise RuntimeError("the forked process was killed by signal %d"
                           % -code)
    if code:
        raise RuntimeError("the forked process exited with status %d" % code)
    exc, result = pickle.loads(b"".join(chunks))
    if exc is not None:
        raise exc
    return result


def update(actor, critic, actor_opt, critic_opt, batch, config, rng):
    """Shuffled minibatch epochs over one rollout batch.

    Every epoch's permutation is drawn up front, so ``rng`` is consumed as
    when the epochs ran one after the other.  The actor and the critic share
    no parameter, so their steps run at the same time: a forked child runs
    the critic's over the same minibatches while this process runs the
    actor's, then sends back the critic's parameters, Adam moments and value
    losses, and exits before ``update`` returns.  With a single CPU, or
    while other threads run, the critic's steps run here after the actor's.
    The results equal the interleaved serial loop's bit for bit.  An
    exception in the child is raised here; if the actor's steps raise, the
    child is killed and reaped first.
    """
    states, actions, old_logp, adv, returns = batch.flatten()
    if config.normalize_advantages:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    surr_clipped = clip_g(config.clip_eps, adv)
    n = len(actions)
    size = config.minibatch_size
    orders = [rng.permutation(n) for _ in range(config.epochs)]
    minibatches = [order[start:start + size]
                   for order in orders for start in range(0, n, size)]
    # the child has only the forking thread, so a lock that another thread
    # held at the fork would stay held in it: fork only without other threads
    child = None
    if len(os.sched_getaffinity(0)) > 1 and threading.active_count() == 1:
        child = _fork(lambda: (
            critic_steps(critic, critic_opt, states, returns, minibatches),
            critic.flat, critic_opt.m, critic_opt.v))
    try:
        actor_stats = []
        for idx in minibatches:
            ploss, pgrads, pstats = actor_loss_and_grad(
                actor, states[idx], actions[idx], old_logp[idx], adv[idx],
                config.clip_eps, config.entropy_coef, surr_clipped[idx])
            actor_opt.step(pgrads)
            actor_stats.append((ploss, pstats))
    except BaseException:
        if child is not None:
            _reap(*child, kill=True)
        raise
    if child is None:
        value_losses = critic_steps(critic, critic_opt, states, returns,
                                    minibatches)
    else:
        # in place: critic_opt.params and the W and b views share critic.flat
        (value_losses, critic.flat[...], critic_opt.m[...],
         critic_opt.v[...]) = _join(*child)
        critic_opt.t += len(minibatches)
    return {
        "value_loss": float(np.mean(value_losses)),
        "policy_loss": float(np.mean([p for p, _ in actor_stats])),
        **{k: float(np.mean([s[k] for _, s in actor_stats]))
           for k in ("entropy", "approx_kl", "clip_frac")},
    }


# ---- checkpoints -----------------------------------------------------------

def save_checkpoint(path, actor, scenario):
    """Write the actor: its parameters and, in ``meta``, its layer sizes,
    the state layout version and the fingerprint of the ``scenario`` it was
    trained for, which ``load_checkpoint`` checks."""
    meta = {"layout_version": CHECKPOINT_VERSION, "sizes": actor.sizes,
            "scenario": scenario_fingerprint(scenario)}
    np.savez(path, meta=json.dumps(meta), actor=actor.flat)


def load_checkpoint(path, scenario):
    """The actor saved at ``path``, for ``scenario``.  Every check below
    runs before a net is built, and each refusal is a ``ValueError`` that
    names the file."""
    def refused(why):
        return ValueError("checkpoint %s %s" % (path, why))
    with np.load(path, allow_pickle=False) as data:
        if "meta" not in data:
            raise refused("has no meta entry")
        try:
            meta = json.loads(str(data["meta"]))
        except ValueError:
            meta = None
        if not isinstance(meta, dict):
            raise refused("has a meta entry that is not a JSON object")
        if meta.get("layout_version") != CHECKPOINT_VERSION:
            raise refused("has layout %r, not %r" % (
                meta.get("layout_version"), CHECKPOINT_VERSION))
        want = json.loads(json.dumps(scenario_fingerprint(scenario)))
        got = meta.get("scenario")
        differ = [k for k in want
                  if not isinstance(got, dict) or got.get(k) != want[k]]
        if differ:
            raise refused("does not match the scenario's " + ", ".join(differ))
        sizes = meta.get("sizes")
        if not (isinstance(sizes, list) and len(sizes) >= 2
                and all(type(n) is int and n > 0 for n in sizes)
                and sizes[0] == STATE_DIM and sizes[-1] == N_ACTIONS):
            raise refused("has meta sizes %r, not positive ints from %d "
                          "inputs to %d actions"
                          % (sizes, STATE_DIM, N_ACTIONS))
        if "actor" not in data:
            raise refused("has no actor entry")
        flat = data["actor"]
    count = sum((n_in + 1) * n_out for n_in, n_out in zip(sizes, sizes[1:]))
    # the dtype first: isfinite refuses a text array
    if (flat.shape != (count,) or flat.dtype != float
            or not np.isfinite(flat).all()):
        raise refused("has an actor entry that is not the %d finite floats "
                      "that the sizes %s give" % (count, sizes))
    actor = MLP(sizes, np.random.default_rng(0))
    actor.flat[...] = flat
    return actor


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
        header = list(self.rows[0])
        write_table(path, header, ([row[k] for k in header]
                                   for row in self.rows))


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
