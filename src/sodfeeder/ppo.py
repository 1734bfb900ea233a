"""Clipped-surrogate policy optimization with GAE, on the dense nets.

The actor maps observations to 4 action logits (softmax policy); the critic
estimates state values.  Rollouts are collected from independent environment
instances, advantages come from the backward GAE recursion, and updates run
shuffled minibatch epochs with Adam.

An update runs in two processes (see ``PPOTrainer.run_update``): a forked
partner steps the second half of the environments while this process steps
the first; each joins both halves and runs the critic's value passes for
half of the steps.  Then the partner takes the critic's minibatch steps while
this process takes the actor's, and sends back what it changed.  One partner
serves every update of a trainer until ``PPOTrainer.close``; it keeps no
learned state between updates.  With fewer than 4 environments, with one
CPU, or while another thread runs, everything runs here.
"""

from __future__ import annotations

import io
import json
import logging
import math
import os
import pickle
import signal
import threading
import time
import weakref
import zipfile
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.npyio import NpzFile

from .corridor import Network
from .econ import append_rows, write_table
from .env import N_ACTIONS, STATE_DIM, scenario_fingerprint
from .env import STATE_LAYOUT_VERSION as CHECKPOINT_VERSION
from .nets import MLP, Adam, softmax_and_log
from .scenario import Scenario

LOG = logging.getLogger(__name__)


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


def collect_rollouts(envs, actor, n_steps, instance_seeds, action_rngs):
    """Run each environment ``n_steps`` from a fresh episode, sampling from
    the current policy.  ``n_steps`` is the episode length, so every episode
    ends at the last step and at no other, as ``compute_gae`` assumes.
    Environments are independent; results concatenate deterministically by
    environment index.  ``add_advantages`` fills in the rest."""
    n_envs = len(envs)
    obs = np.array([env.reset(instance_seeds[i])
                    for i, env in enumerate(envs)])
    obs_dim = obs.shape[1]
    states = np.zeros((n_steps, n_envs, obs_dim))
    actions = np.zeros((n_steps, n_envs), dtype=int)
    rewards = np.zeros((n_steps, n_envs))
    log_probs = np.zeros((n_steps, n_envs))

    rows = np.arange(n_envs)
    for t in range(n_steps):
        logits, _ = actor.forward(obs)
        probs, logp_all = softmax_and_log(logits)
        states[t] = obs
        acts = sample_action(probs, action_rngs)
        steps = [env.step(a) for env, a in zip(envs, acts)]
        actions[t] = acts
        rewards[t] = [s[1] for s in steps]
        log_probs[t] = logp_all[rows, acts]
        obs = np.array([s[0] for s in steps])
    return RolloutBatch(states, actions, rewards, log_probs)


def add_advantages(batch, critic, config, steps=slice(None), swap=None):
    """Set the batch's advantages and returns from the critic's values.

    The values come from one forward pass per step over every environment's
    state: the critic's 1-column output layer is a matrix-vector product
    that BLAS rounds by a row's place in its blocks of rows, so a pass over
    part of the environments need not equal those rows of the whole.  With
    ``swap``, only the passes of the slice ``steps`` run here, and
    ``swap(rows)`` trades their values for the other steps' from elsewhere.
    """
    values = np.empty(batch.rewards.shape)
    for t in range(len(values))[steps]:
        values[t] = critic.forward(batch.states[t])[0][:, 0]
    if swap is not None:
        values[np.delete(np.arange(len(values)), steps)] = swap(values[steps])
    batch.advantages, batch.returns = compute_gae(
        batch.rewards, values, config.discount, config.gae_lambda)


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


def _write(fd, obj):
    """Send ``obj`` down the pipe ``fd``: its pickle, after the pickle's
    length as 8 bytes."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _read_exactly(fd, n):
    chunks = []
    while n:
        chunk = os.read(fd, min(n, 1 << 20))
        if not chunk:
            raise EOFError("the pipe closed before a whole message came")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _read(fd):
    """The next object that ``_write`` sent down the pipe ``fd``; raises
    ``EOFError`` if the writer closed it first."""
    return pickle.loads(_read_exactly(
        fd, int.from_bytes(_read_exactly(fd, 8), "little")))


class _Partner:
    """A forked process that runs ``work(send, receive)``, with one pipe
    each way between it and this process.

    The partner's messages arrive here from ``receive`` as the objects that
    it passed to ``send``.  If ``work`` raises, the exception is sent
    instead, and ``receive`` raises it here.  The partner never returns: it
    exits with status 0 once ``work`` has returned or its exception is sent,
    and with 1 if that could not be sent.  ``close`` or ``join`` reaps it,
    in the process that forked it only.
    """

    def __init__(self, work):
        self.parent = os.getpid()
        fds = []
        try:
            fds += os.pipe()   # to the partner
            fds += os.pipe()   # from the partner
            self.pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        if self.pid:
            os.close(fds[0])
            os.close(fds[3])
            self.w, self.r = fds[1], fds[2]
            return
        code = 1
        try:
            os.close(fds[1])
            os.close(fds[2])
            try:
                work(lambda obj: _write(fds[3], (None, obj)),
                     lambda: _read(fds[0]))
            except BaseException as exc:
                _write(fds[3], (exc, None))
            code = 0
        finally:
            os._exit(code)

    def send(self, obj):
        """Send ``obj`` to the partner.  If it has gone, raise what it left:
        its exception, or ``RuntimeError``."""
        try:
            _write(self.w, obj)
        except BrokenPipeError:
            self.receive()
            raise

    def receive(self):
        """The partner's next message.  Raises its exception, or
        ``RuntimeError`` if it died without sending one, after reaping
        it."""
        try:
            exc, obj = _read(self.r)
        except EOFError:
            self.join()
            raise RuntimeError("the partner process exited without sending "
                               "its results") from None
        if exc is not None:
            self.close()
            raise exc
        return obj

    def swap(self, obj):
        """The partner's next message, then ``obj`` sent to it.  The partner
        writes first: two writers would block each other once a message
        overfills a pipe, as half the value rows do past about 91 envs."""
        theirs = self.receive()
        self.send(obj)
        return theirs

    def close(self, kill=True):
        """Reap the partner, killing it first if ``kill``, and close the
        pipes; returns its exit code, or None if it was reaped before or
        not forked here.  Later partners hold copies of the pipe ends here,
        so only a kill ends a waiting one."""
        if self.pid is None or os.getpid() != self.parent:
            return None
        pid, self.pid = self.pid, None
        if kill:
            os.kill(pid, signal.SIGKILL)
        os.close(self.r)
        os.close(self.w)
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def join(self):
        """Reap the partner, which has exited; raises ``RuntimeError`` unless
        it exited with status 0."""
        code = self.close(kill=False)
        if code < 0:
            raise RuntimeError("the partner process was killed by signal %d"
                               % -code)
        if code:
            raise RuntimeError("the partner process exited with status %d"
                               % code)


def draw_minibatches(n, config, rng):
    """Every epoch's minibatches of ``n`` sample indices, in order; ``rng``
    is consumed as when the epochs ran one after the other."""
    size = config.minibatch_size
    return [order[start:start + size]
            for order in [rng.permutation(n) for _ in range(config.epochs)]
            for start in range(0, n, size)]


def update(actor, critic, actor_opt, critic_opt, batch, config, rng,
           partner=None):
    """Shuffled minibatch epochs over one rollout batch.

    The actor and the critic share no parameter, so their steps may run at
    the same time: ``partner``, if given, is a ``_Partner`` whose process
    holds the same critic, ``critic_opt``, states, returns and ``rng``
    state; it draws the same minibatches, takes the critic's steps while
    this process takes the actor's, and sends back the critic's parameters,
    Adam moments and value losses.  Without one, the critic's steps run here
    after the actor's.  Either way the results equal the interleaved serial
    loop's bit for bit.
    """
    states, actions, old_logp, adv, returns = batch.flatten()
    if config.normalize_advantages:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    surr_clipped = clip_g(config.clip_eps, adv)
    minibatches = draw_minibatches(len(actions), config, rng)
    actor_stats = []
    for idx in minibatches:
        ploss, pgrads, pstats = actor_loss_and_grad(
            actor, states[idx], actions[idx], old_logp[idx], adv[idx],
            config.clip_eps, config.entropy_coef, surr_clipped[idx])
        actor_opt.step(pgrads)
        actor_stats.append((ploss, pstats))
    if partner is None:
        value_losses = critic_steps(critic, critic_opt, states, returns,
                                    minibatches)
    else:
        # in place: critic_opt.params and the W and b views share critic.flat
        (value_losses, critic.flat[...], critic_opt.m[...],
         critic_opt.v[...]) = partner.receive()
        critic_opt.t += len(minibatches)
    return {
        "value_loss": float(np.mean(value_losses)),
        "policy_loss": float(np.mean([p for p, _ in actor_stats])),
        **{k: float(np.mean([s[k] for _, s in actor_stats]))
           for k in ("entropy", "approx_kl", "clip_frac")},
    }


def _join(batch, half):
    """``batch`` with ``half``'s environments after its own, in each field
    that ``batch`` holds."""
    return RolloutBatch(*(
        None if a is None else np.concatenate([a, getattr(half, k)], axis=1)
        for k in ("states", "actions", "rewards", "log_probs")
        for a in [getattr(batch, k)]))


def update_path(n_envs):
    """How ``PPOTrainer.run_update`` runs for ``n_envs`` environments:
    ``forked`` when a forked partner steps the second half of them;
    otherwise in this process, and the value names why: ``few_envs``,
    ``one_cpu`` or ``other_thread``.

    A 1-row ``MLP.forward`` takes another BLAS path than a row of a wider
    batch, so the environments split only when each half has 2 or more.  A
    lock that another thread held at the fork would stay held in the child,
    which has only the forking thread, so nothing is forked while another
    thread runs.
    """
    if n_envs < 4:
        return "few_envs"
    if len(os.sched_getaffinity(0)) < 2:
        return "one_cpu"
    return "other_thread" if threading.active_count() > 1 else "forked"


def _shared(envs):
    """The ``Network`` and ``Scenario`` objects that ``envs`` hold, which
    stepping never replaces: their states refer to these by position."""
    return [v for env in envs for v in vars(env).values()
            if isinstance(v, (Network, Scenario))]


def _dump_envs(envs):
    """The states of ``envs`` as one pickle, with each object of
    ``_shared(envs)`` stored as its position."""
    ids = {id(v): k for k, v in enumerate(_shared(envs))}
    out = io.BytesIO()
    pickler = pickle.Pickler(out, pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = lambda obj: ids.get(id(obj))
    pickler.dump([vars(env) for env in envs])
    return out.getvalue()


def _load_envs(envs, data):
    """Set the states of ``envs`` in place from ``_dump_envs`` of their
    counterparts in another process."""
    unpickler = pickle.Unpickler(io.BytesIO(data))
    unpickler.persistent_load = _shared(envs).__getitem__
    for env, state in zip(envs, unpickler.load()):
        env.__dict__.update(state)


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
    # an empty file, broken zip bytes, a text file (which np.load takes for
    # a pickle) and a .npy file are none of them an archive
    try:
        data = np.load(path, allow_pickle=False)
    except (EOFError, ValueError, zipfile.BadZipFile):
        data = None
    if not isinstance(data, NpzFile):
        raise refused("is not an .npz archive")
    # a damaged entry fails its CRC or zlib check, and one of objects is
    # refused without allow_pickle, when it is read
    with data:
        try:
            entries = {k: data[k] for k in ("meta", "actor") if k in data}
        except (ValueError, zipfile.BadZipFile, zlib.error):
            raise refused("has an entry that is not a readable array") \
                from None
    if "meta" not in entries:
        raise refused("has no meta entry")
    try:
        meta = json.loads(str(entries["meta"]))
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
                      "inputs to %d actions" % (sizes, STATE_DIM, N_ACTIONS))
    if "actor" not in entries:
        raise refused("has no actor entry")
    flat = entries["actor"]
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
    """A training run's stats rows.  With ``path``, that CSV table is
    started afresh and each row is appended to it as it is added."""
    rows: list = field(default_factory=list)
    path: str = None

    def add(self, update_idx, steps, mean_episode_reward, stats):
        """One row, logged: the update's counters, then ``stats`` in its own
        order."""
        row = {"update": update_idx, "env_steps": steps,
               "mean_episode_reward": mean_episode_reward, **stats}
        self.rows.append(row)
        LOG.info("update %d: %d env steps, mean episode reward %.4f, policy "
                 "loss %.4g, value loss %.4g, rollout %.3f s, update %.3f s",
                 update_idx, steps, mean_episode_reward, row["policy_loss"],
                 row["value_loss"], row["rollout_s"], row["update_s"])
        if self.path is not None:
            if len(self.rows) == 1:
                write_table(self.path, list(row), [])
            append_rows(self.path, [list(row.values())])


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
        # the update partner (see run_update) and the finalizer that reaps it
        self._partner = self._reap = None

    def run_update(self, instance_seeds):
        """One rollout and update.  The stats carry their wall times
        ``rollout_s`` and ``update_s``, the ``update_path`` taken and the
        partner's CPU time in the update ``partner_cpu_s`` (0.0 if none).

        On the ``forked`` path a partner process, forked at the first such
        update and kept until ``close``, an in-process update or a failure
        on either side, is first sent all the state it reads here.  The
        environments are independent, so it steps ``envs[h:]``, with ``h``
        ``n_envs // 2``, for the whole episode on its own copies of the nets
        and action streams while this process steps ``envs[:h]``; it sends
        back its batch and stream states, is sent the states and rewards of
        ``envs[:h]``, and each side joins the halves by environment index
        and runs the value passes of half of the steps (see
        ``add_advantages``).  Then the partner takes the critic's minibatch
        steps while this process takes the actor's (see ``update``), and
        last it sends back its environments' states, which are set into the
        same environment objects here.  An exception in the partner is
        raised here, and if this process raises, the partner is killed and
        reaped first.
        """
        t0 = time.perf_counter()
        path = update_path(self.n_envs)
        h = self.n_envs // 2 if path == "forked" else self.n_envs
        if path != "forked":
            self.close()
        elif self._partner is None:
            self._partner = _Partner(self._serve)
            # reaps it when the trainer is collected, or at exit
            self._reap = weakref.finalize(self, self._partner.close)
        partner, partner_cpu_s, opt = self._partner, 0.0, self.critic_opt
        try:
            if partner is not None:
                partner.send((instance_seeds, self.actor.flat,
                              self.critic.flat, opt.m, opt.v, opt.t, opt.lr,
                              self.update_rng.bit_generator.state,
                              [g.bit_generator.state
                               for g in self.action_rngs[h:]]))
            batch = self._collect(slice(0, h), instance_seeds)
            steps, swap = slice(None), None
            if partner is not None:
                half, rng_states = partner.receive()
                for rng, state in zip(self.action_rngs[h:], rng_states):
                    rng.bit_generator.state = state
                partner.send(RolloutBatch(batch.states, None, batch.rewards,
                                          None))
                batch = _join(batch, half)
                steps, swap = slice(0, len(batch.states) // 2), partner.swap
            add_advantages(batch, self.critic, self.config, steps, swap)
            t1 = time.perf_counter()
            stats = update(self.actor, self.critic, self.actor_opt,
                           self.critic_opt, batch, self.config,
                           self.update_rng, partner)
            if partner is not None:
                worlds, partner_cpu_s = partner.receive()
                _load_envs(self.envs[h:], worlds)
        except BaseException:
            self.close()
            raise
        stats["rollout_s"] = t1 - t0
        stats["update_s"] = time.perf_counter() - t1
        stats["update_path"] = path
        stats["partner_cpu_s"] = partner_cpu_s
        self.total_steps += batch.actions.size
        mean_ep_reward = float(batch.rewards.sum() / self.n_envs)
        return mean_ep_reward, stats

    def close(self):
        """Kill and reap the update partner, if one runs; the next update
        that needs one forks another."""
        if self._partner is not None:
            self._partner = None
            self._reap()

    def _collect(self, envs, instance_seeds):
        """``collect_rollouts`` over the slice ``envs`` of the environments,
        their instance seeds and their action streams."""
        return collect_rollouts(self.envs[envs], self.actor,
                                self.envs[0].episode_len,
                                instance_seeds[envs], self.action_rngs[envs])

    def _serve(self, send, receive):
        """The partner's side of ``run_update``, in the forked process: one
        update per request, which holds all it reads of that process's state,
        until reading the next raises ``EOFError``."""
        opt, envs = self.critic_opt, slice(self.n_envs // 2, None)
        while True:
            (instance_seeds, self.actor.flat[...], self.critic.flat[...],
             opt.m[...], opt.v[...], opt.t, opt.lr,
             self.update_rng.bit_generator.state, streams) = receive()
            cpu0 = time.process_time()
            for rng, state in zip(self.action_rngs[envs], streams):
                rng.bit_generator.state = state
            half = self._collect(envs, instance_seeds)
            send((half, [rng.bit_generator.state
                         for rng in self.action_rngs[envs]]))
            batch = _join(receive(), half)
            add_advantages(batch, self.critic, self.config,
                           slice(len(batch.states) // 2, None),
                           lambda rows: send(rows) or receive())
            states = batch.states.reshape(batch.returns.size, -1)
            losses = critic_steps(
                self.critic, opt, states, batch.returns.ravel(),
                draw_minibatches(len(states), self.config, self.update_rng))
            # pickled before the first send that can block, while this
            # process still takes the actor's steps
            worlds = _dump_envs(self.envs[envs])
            send((losses, self.critic.flat, opt.m, opt.v))
            send((worlds, time.process_time() - cpu0))

    def train(self, instance_seed_stream, n_updates):
        """Run updates, n_envs instance seeds each, then ``close``."""
        base_lr = self.config.learning_rate
        try:
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
        finally:
            self.close()
        return self.stats
