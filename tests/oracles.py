"""Independent reference implementations used only by the tests.

Everything here is deliberately naive (double loops, full recomputation) and
shares no decision logic with the package.
"""

import heapq
import math

import numpy as np

from sodfeeder.corridor import Segment
from sodfeeder.demand import (Request, RequestState, endpoint_weights,
                              forecast_demand, segment_shares)
from sodfeeder.dispatch import DispatchController
from sodfeeder.fleet import FleetClass, Stop, StopKind, VehicleStatus
from sodfeeder.nets import softmax_and_log
from sodfeeder.ppo import (RolloutBatch, actor_loss_and_grad, clip_g,
                           compute_gae, critic_loss_and_grad, gae_from_deltas,
                           sample_action, td_error)
from sodfeeder.sim import StepReport

from worldgen import available_vehicles


def oracle_tables(net):
    """``net.times`` and ``net.distances`` as one Dijkstra per source built
    them: the heap pops the nearest open node, and a neighbour's time and
    length are the popped node's plus the edge's."""
    n = net.n_nodes
    times, distances = [], []
    for src in range(n):
        time = [math.inf] * n
        dist = [math.inf] * n
        time[src] = 0.0
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            t, u = heapq.heappop(heap)
            if t > time[u]:
                continue
            for v, et, el in net.adj[u]:
                if t + et < time[v]:
                    time[v] = t + et
                    dist[v] = dist[u] + el
                    heapq.heappush(heap, (time[v], v))
        times.append(time)
        distances.append(dist)
    return times, distances


def bellman_ford_time(net, src):
    """O(V*E) shortest-path times; the slow but obviously-correct oracle."""
    n = net.n_nodes
    dist = [math.inf] * n
    dist[src] = 0.0
    edges = [(u, v, t) for u in range(n) for v, t, _ in net.adj[u]]
    for _ in range(n - 1):
        changed = False
        for u, v, t in edges:
            if dist[u] + t < dist[v] - 1e-15:
                dist[v] = dist[u] + t
                changed = True
        if not changed:
            break
    return dist


def gae_direct(deltas, discount, lam, dones):
    """Direct double-loop evaluation of the exponentially weighted advantage
    sum, cutting at episode boundaries."""
    T = len(deltas)
    out = [0.0] * T
    for t in range(T):
        acc = 0.0
        w = 1.0
        for k in range(t, T):
            acc += w * deltas[k]
            if dones[k]:
                break
            w *= discount * lam
        out[t] = acc
    return out


def oracle_compute_gae(rewards, values, dones, last_values, discount, lam):
    """``compute_gae`` as it was with done flags and a bootstrap from
    ``last_values`` past the last step: advantages and value targets for a
    (T, N) rollout."""
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    dones = np.asarray(dones, dtype=float)
    next_values = np.vstack([values[1:], np.atleast_2d(last_values)])
    deltas = td_error(rewards, values, next_values, discount, dones)
    adv = gae_from_deltas(deltas, discount, lam, dones)
    return adv, adv + values


# ---- demand oracle -----------------------------------------------------------

def oracle_generate_instance(net, profile, horizon, seed):
    """``demand.generate_instance`` before its memo: a fresh draw on every
    call, searching the cumulative table with ``searchsorted``."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = np.random.default_rng(seed)
    weights = endpoint_weights(net, profile)
    total_w = weights.sum()
    if total_w <= 0:
        return []
    cdf = (weights / total_w).cumsum()
    cdf /= cdf[-1]

    rate_max = max(profile.base_rate, profile.end_rate) / 3600.0
    requests = []
    t = 0.0
    rid = 0
    while True:
        if rate_max <= 0:
            break
        t += rng.exponential(1.0 / rate_max)
        if t >= horizon:
            break
        if rng.random() > profile.rate_at(t, horizon) / rate_max:
            continue
        node = int(cdf.searchsorted(rng.random(), side="right"))
        from_terminus = rng.random() < profile.direction_split
        if from_terminus:
            origin, destination = net.terminus, node
        else:
            origin, destination = node, net.terminus
        requests.append(Request(
            id=rid, t_r=t,
            origin=origin, destination=destination))
        rid += 1
    return requests


# ---- window oracle -----------------------------------------------------------

def oracle_window(stops):
    """``(open idx, close idx)`` of a cycle's flexible window, found by stop
    kinds: the last fixed stop before the turnaround and the first fixed
    stop after it.  None for a stop list with no turnaround (a fixed-route
    cycle, or no cycle)."""
    kinds = [s.kind for s in stops]
    if StopKind.TURNAROUND not in kinds:
        return None
    turn = kinds.index(StopKind.TURNAROUND)
    open_idx = max(i for i in range(turn) if kinds[i] == StopKind.FIXED)
    close_idx = min(i for i in range(turn + 1, len(kinds))
                    if kinds[i] == StopKind.FIXED)
    return open_idx, close_idx


# ---- observation oracle ------------------------------------------------------

def oracle_category(world, request):
    """A request's category: the network label of the one end that is not
    the terminus."""
    term = world.net.terminus
    (node,) = [n for n in (request.origin, request.destination) if n != term]
    return world.net.labels[node]


def oracle_observe(env):
    """``ZonalDispatchEnv.observe`` as first written: separate counts over
    the vehicles and over ``available_vehicles(world)``, commitments added
    per category tuple, and ``np.clip`` over the scaled list."""
    w = env.world
    now = w.now
    running = sum(1 for v in w.vehicles
                  if v.status != VehicleStatus.AT_TERMINUS)
    available = sum(1 for v in available_vehicles(w)
                    if v.fleet_class == FleetClass.CONTROLLABLE)
    forecast = forecast_demand(env.scenario.demand, env.scenario.horizon,
                               now, 900.0)

    unassigned = [0.0, 0.0, 0.0]
    for r in w.pending_requests():
        unassigned[oracle_category(w, r)] += 1

    commit = [0.0, 0.0, 0.0]
    for v in w.vehicles:
        window = oracle_window(v.schedule)
        if window is None:
            continue
        open_dep = v.schedule[window[0]].departure
        close_arr = v.schedule[window[1]].arrival
        remaining = max(0.0, close_arr - max(now, open_dep))
        cats = (0, 1, 2) if v.zone == 0 else (v.zone,)
        for c in cats:
            commit[c] += remaining

    since = []
    for c in (0, 1, 2):
        last = w.last_departure[c]
        since.append(env.scenario.norm.time_cap if last is None
                     else now - last)

    raw = [float(running), float(available), forecast]
    for c in (0, 1, 2):
        raw += [unassigned[c], commit[c], float(w.open_processes[c])]
    shares = segment_shares(env.net, env.scenario.demand)
    raw += since + [forecast * shares[c] for c in (0, 1, 2)]
    lo = np.array([r[0] for r in env.ranges], dtype=float)
    span = np.array([r[1] for r in env.ranges], dtype=float) - lo
    return np.clip((np.asarray(raw, dtype=float) - lo) / span, 0.0, 1.0)


# ---- brute-force insertion oracle ------------------------------------------

def _oracle_dwell(stop, dwell_base, dwell_per_pax):
    npax = len(stop.board) + len(stop.alight)
    if stop.kind in (StopKind.FIXED, StopKind.FLEX):
        return dwell_base + dwell_per_pax * npax
    if stop.kind == StopKind.TURNAROUND:
        return dwell_per_pax * npax
    return 0.0


def _oracle_retime(stops, status, next_idx, net, dwell_base, dwell_per_pax):
    if status == VehicleStatus.BOARDING:
        j = 1
    else:
        s = stops[next_idx]
        if next_idx == len(stops) - 1:
            s.departure = s.arrival
        else:
            s.departure = s.arrival + _oracle_dwell(s, dwell_base, dwell_per_pax)
        j = next_idx + 1
    while j < len(stops):
        prev, s = stops[j - 1], stops[j]
        s.arrival = prev.departure + net.travel_time(prev.node, s.node)
        if j == len(stops) - 1:
            s.departure = s.arrival
        else:
            s.departure = s.arrival + _oracle_dwell(s, dwell_base, dwell_per_pax)
        j += 1


def _oracle_times(stops):
    pick, drop = {}, {}
    for s in stops:
        for rid in s.board:
            pick[rid] = s.departure if s.kind == StopKind.TERMINUS_DEPART \
                else s.arrival
        for rid in s.alight:
            drop[rid] = s.arrival
    return pick, drop


def _oracle_cost_terms(world, stops, extra_request=None, extra_fixed=False):
    """(small-magnitude cost, n_requests, n_fixed_served)."""
    c = world.params.coeffs
    dist = 0.0
    for a, b in zip(stops, stops[1:]):
        dist += world.net.travel_distance(a.node, b.node)
    cost = c.gamma_o / 1000.0 * dist
    n_r = n_s = 0
    pick, drop = _oracle_times(stops)
    for rid, dr in drop.items():
        req = extra_request if (extra_request is not None
                                and rid == extra_request.id) \
            else world.requests[rid]
        cost += c.gamma_t / 3600.0 * (dr - req.t_r)
        n_r += 1
        fixed = extra_fixed if (extra_request is not None
                                and rid == extra_request.id) \
            else req.served_at_fixed_stop
        if fixed:
            n_s += 1
    return cost, n_r, n_s


def vehicle_rho(world, schedule):
    """One vehicle's share of the fleet schedule cost: its cost terms minus
    the satisfaction rewards."""
    c = world.params.coeffs
    cost, n_r, n_s = _oracle_cost_terms(world, schedule)
    return cost - c.gamma_r * n_r - c.gamma_s * n_s


def rho(world):
    """Fleet-wide schedule cost over all active vehicle schedules."""
    return sum(vehicle_rho(world, v.schedule)
               for v in world.vehicles if v.schedule)


def zone_compatible(world, request, vehicle):
    """True iff the vehicle's zone assignment serves every service point of
    the request that is neither the terminus nor a fixed stop."""
    if vehicle.zone is None:
        return False
    snap = {world.net.terminus} | set(world.fixed_stop_nodes)
    for node in (request.pickup_node, request.dropoff_node):
        zone = 1 if world.net.labels[node] == Segment.ZONE1 else 2
        if node not in snap and vehicle.zone not in (0, zone):
            return False
    return True


def _oracle_feasible(world, v, stops, request, direct):
    lim = world.params.limits
    window = oracle_window(stops)
    if window is not None:
        if (stops[window[1]].arrival - stops[window[0]].departure
                > lim.flex_window + 1e-6):
            return False
    load = len(v.onboard)
    start = 0 if v.status == VehicleStatus.BOARDING else v.next_idx
    for s in stops[start:]:
        load -= len(s.alight)
        load += len(s.board)
        if load > v.capacity:
            return False
    pick, drop = _oracle_times(stops)
    for rid, dr in drop.items():
        if request is not None and rid == request.id:
            req, dt = request, direct
            riding = False
        else:
            req, dt = world.requests[rid], world.requests[rid].direct_time
            riding = req.state == RequestState.RIDING
        pk = req.pickup_time if riding else pick.get(rid)
        if pk is None:
            continue
        if not riding and pk - req.t_r > lim.max_wait + 1e-6:
            return False
        if dt is not None and dr - pk > lim.max_ride(dt) + 1e-6:
            return False
    return True


def oracle_best_insertion(world, request, plan):
    """Try every (vehicle, pickup placement, dropoff placement) combination
    from scratch and return the feasible one with minimum cost increase.

    Returns (vehicle_id, pickup_idx, dropoff_idx, delta) or None.
    """
    net = world.net
    p = world.params
    snap = {net.terminus} | set(world.fixed_stop_nodes)
    direct = net.travel_time(plan.pickup_node, plan.dropoff_node)
    best = None

    for v in world.vehicles:
        if not v.schedule or v.zone is None:
            continue
        # zone compatibility, restated naively
        ok = True
        for node in (plan.pickup_node, plan.dropoff_node):
            if node in snap:
                continue
            if world.fixed_only:
                ok = False
                break
            zone = 1 if net.labels[node] == Segment.ZONE1 else 2
            if v.zone not in (0, zone):
                ok = False
                break
        if not ok:
            continue
        c = world.params.coeffs
        base_cost, base_nr, base_ns = _oracle_cost_terms(world, v.schedule)
        last = len(v.schedule) - 1
        free_stop = 0 if v.status == VehicleStatus.BOARDING else v.next_idx
        free_ins = 1 if v.status == VehicleStatus.BOARDING else v.next_idx + 1
        window = oracle_window(v.schedule)

        # every way to place the pickup
        pickup_ways = []
        if plan.pickup_node == net.terminus:
            if v.status == VehicleStatus.BOARDING:
                pickup_ways.append(("at", 0))
        elif plan.pickup_node in snap:
            for i in range(max(free_stop, 1), last):
                if (v.schedule[i].node == plan.pickup_node
                        and v.schedule[i].kind == StopKind.FIXED):
                    pickup_ways.append(("at", i))
        elif window is not None:
            for pos in range(max(window[0] + 1, free_ins), window[1] + 1):
                pickup_ways.append(("ins", pos))

        for pway in pickup_ways:
            dropoff_ways = []
            if plan.dropoff_node == net.terminus:
                dropoff_ways.append(("at", last))
            elif plan.dropoff_node in snap:
                lo = pway[1] + 1
                for i in range(max(lo, free_stop), last):
                    if (v.schedule[i].node == plan.dropoff_node
                            and v.schedule[i].kind == StopKind.FIXED):
                        dropoff_ways.append(("at", i))
            elif window is not None:
                lo = max(window[0] + 1, free_ins, pway[1] + 1)
                for pos in range(lo, window[1] + 1):
                    dropoff_ways.append(("ins", pos))

            for dway in dropoff_ways:
                stops = [Stop(s.node, s.kind, list(s.board), list(s.alight),
                              s.arrival, s.departure) for s in v.schedule]
                pk_idx = pway[1]
                if pway[0] == "ins":
                    stops.insert(pk_idx, Stop(plan.pickup_node, StopKind.FLEX,
                                              board=[request.id]))
                else:
                    stops[pk_idx].board.append(request.id)
                dr_idx = dway[1]
                if dway[0] == "ins":
                    stops.insert(dr_idx, Stop(plan.dropoff_node, StopKind.FLEX,
                                              alight=[request.id]))
                else:
                    if pway[0] == "ins" and dr_idx >= pk_idx:
                        dr_idx += 1
                    stops[dr_idx].alight.append(request.id)
                _oracle_retime(stops, v.status, v.next_idx, net,
                               p.dwell_base, p.dwell_per_pax)
                if not _oracle_feasible(world, v, stops, request, direct):
                    continue
                cost, n_r, n_s = _oracle_cost_terms(world, stops, request,
                                                    plan.served_at_fixed)
                delta = (cost - base_cost - c.gamma_r * (n_r - base_nr)
                         - c.gamma_s * (n_s - base_ns))
                key = (delta, v.id, pk_idx, dr_idx)
                if best is None or key < best[0]:
                    best = (key, v.id, pk_idx, dr_idx, stops)
    return best


class OraclePlan:
    def __init__(self, pickup_node, dropoff_node, access, served_at_fixed,
                 feasible):
        self.pickup_node = pickup_node
        self.dropoff_node = dropoff_node
        self.access_time = access
        self.served_at_fixed = served_at_fixed
        self.feasible = feasible


def _oracle_nearest_stop(world, node, walk_speed):
    best, best_t = None, None
    for stop_node in [world.net.terminus] + world.fixed_stop_nodes:
        t = world.net.euclidean(node, stop_node) / walk_speed
        if best_t is None or t < best_t - 1e-9:
            best, best_t = stop_node, t
    return best, best_t


def oracle_resolve(world, request, walk_speed, walk_cap):
    term = world.net.terminus
    access = 0.0
    feasible = True
    nodes = []
    fixed_flags = []
    for node in (request.origin, request.destination):
        seg = world.net.labels[node]
        if node == term:
            nodes.append(term)
            fixed_flags.append(False)
            continue
        if seg == Segment.FIXED or world.fixed_only:
            snap, wt = _oracle_nearest_stop(world, node, walk_speed)
            if world.fixed_only and seg != Segment.FIXED \
                    and wt > walk_cap + 1e-6:
                feasible = False
                nodes.append(node)
                fixed_flags.append(False)
                continue
            access += wt
            nodes.append(snap)
            fixed_flags.append(True)
            continue
        nodes.append(node)
        fixed_flags.append(False)
    return OraclePlan(nodes[0], nodes[1], access, any(fixed_flags), feasible)


def oracle_match(world, *, walk_speed, walk_cap):
    """Sequential greedy matching round against the brute-force enumerator,
    applied to ``world`` (which the caller should deep-copy first).

    Returns {"assigned": [(rid, vid, pickup_idx, dropoff_idx, delta)],
             "rejected": [rid], "pending": [rid]}.
    """
    lim = world.params.limits
    out = {"assigned": [], "rejected": [], "pending": []}

    def visible_pending():
        return [r for r in world.requests
                if r.state == RequestState.PENDING and r.t_r <= world.now]

    for req in visible_pending():
        if world.now - req.t_r > lim.max_wait + 1e-6:
            req.transition(RequestState.REJECTED)
            world.rejected_total += 1
            out["rejected"].append(req.id)

    for req in visible_pending():
        plan = oracle_resolve(world, req, walk_speed, walk_cap)
        if not plan.feasible:
            req.transition(RequestState.REJECTED)
            world.rejected_total += 1
            out["rejected"].append(req.id)
            continue
        best = oracle_best_insertion(world, req, plan)
        if best is None:
            out["pending"].append(req.id)
            continue
        _, vid, pk_idx, dr_idx, stops = best
        v = world.vehicles[vid]
        world.set_schedule(v, stops)
        req.transition(RequestState.ASSIGNED)
        req.vehicle = vid
        req.pickup_node = plan.pickup_node
        req.dropoff_node = plan.dropoff_node
        req.access_time = plan.access_time
        req.served_at_fixed_stop = plan.served_at_fixed
        req.direct_time = world.net.travel_time(plan.pickup_node,
                                                plan.dropoff_node)
        out["assigned"].append((req.id, vid, pk_idx, dr_idx, best[0][0]))
    return out


# ---- per-array Adam ----------------------------------------------------------

class PerArrayAdam:
    """Adam over a list of arrays, returning new arrays from each step: the
    reference for the in-place flat-vector ``nets.Adam``."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        self.t += 1
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            mhat = self.m[i] / (1 - self.beta1 ** self.t)
            vhat = self.v[i] / (1 - self.beta2 ** self.t)
            out.append(p - self.lr * mhat / (np.sqrt(vhat) + self.eps))
        return out


# ---- rescanning step loop ----------------------------------------------------

def rescan_advance_step(world):
    """``World.advance_step`` as a rescan of every vehicle after each event,
    executing the lexicographically least due (time, vehicle id) each time:
    the reference for the event heap."""
    if world.now >= world.params.horizon:
        raise ValueError("clock is past the horizon")
    rep = StepReport()
    step_end = world.now + world.params.t_step
    while True:
        best = None
        for v in world.vehicles:
            if v.status == VehicleStatus.BOARDING:
                t = v.schedule[0].departure
            elif v.status == VehicleStatus.EN_ROUTE:
                t = v.schedule[v.next_idx].arrival
            else:
                continue
            if t <= step_end + 1e-9 and (best is None or (t, v.id) < best[:2]):
                best = (t, v.id, v)
        if best is None:
            break
        world._process_event(best[2], best[0], rep)
    world.now = step_end
    world.step_k += 1
    return rep


# ---- list-building dispatch --------------------------------------------------

class RescanDispatchController(DispatchController):
    """``DispatchController`` whose dispatch lists the free vehicles of the
    class and takes the first: the reference for its one-pass scan."""

    def _dispatch(self, fleet_class, z, source):
        w = self.world
        avail = available_vehicles(w, fleet_class)
        if avail:
            w.dispatch_vehicle(avail[0].id, z)
            w.dispatch_log.append((w.step_k, avail[0].id, source, z))
        return bool(avail)


# ---- serial PPO rollout and update -------------------------------------------

def serial_collect_rollouts(envs, actor, critic, n_steps, instance_seeds,
                            action_rngs, config):
    """``ppo.collect_rollouts`` and ``ppo.add_advantages`` as one process
    runs them over every environment: each step takes the critic's values
    beside the actor's logits."""
    n_envs = len(envs)
    obs = np.array([env.reset(instance_seeds[i])
                    for i, env in enumerate(envs)])
    states = np.zeros((n_steps, n_envs, obs.shape[1]))
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


def serial_run_update(trainer, instance_seeds):
    """``PPOTrainer.run_update`` as one process runs it: the serial rollout
    over every environment, then ``serial_update``.  Returns the batch, the
    mean episode reward and the stats without their wall times and path."""
    batch = serial_collect_rollouts(
        trainer.envs, trainer.actor, trainer.critic,
        trainer.envs[0].episode_len, instance_seeds, trainer.action_rngs,
        trainer.config)
    stats = serial_update(trainer.actor, trainer.critic, trainer.actor_opt,
                          trainer.critic_opt, batch, trainer.config,
                          trainer.update_rng)
    trainer.total_steps += batch.actions.size
    return batch, float(batch.rewards.sum() / trainer.n_envs), stats


def serial_update(actor, critic, actor_opt, critic_opt, batch, config, rng):
    """``ppo.update`` as one process runs it: each epoch draws its
    permutation when it starts, and each minibatch steps the actor, then the
    critic."""
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
