"""Episodic MDP wrapper around one simulation world.

Observation: 18 normalized scalars (layout below).  Actions: 0 dispatch a
regular all-zone cycle, 1/2 dispatch to that zone, 3 hold.  Reward: minus the
number of requests newly rejected during the decision period.

Observation layout (version ``sod-state-v1``)::

    [0]      running vehicles (not at the terminus)
    [1]      available controllable vehicles at the terminus
    [2]      15-min demand forecast, all segments
    [3+3z]   unassigned requests in category z   (z = 0 regular, 1, 2)
    [4+3z]   scheduled flexible seconds committed to category z
    [5+3z]   assigned, unexecuted boarding/alighting processes in category z
    [12..14] time since the last departure serving each category
    [15..17] 15-min demand forecast per category
"""

from __future__ import annotations

import dataclasses
import operator

import numpy as np

from .demand import forecast_demand, segment_shares
from .dispatch import DispatchController, PolicyKind
from .fleet import _AT_TERMINUS, _CONTROLLABLE
from .matching import match_step
from .scenario import build_world

STATE_LAYOUT_VERSION = "sod-state-v1"
STATE_DIM = 18
N_ACTIONS = 4


def scenario_fingerprint(scenario):
    """What a trained policy's observations depend on, as JSON-ready data:
    the state layout, the corridor, the fleet split and the normalization
    ranges (the flexible window scales the commitment features)."""
    return {
        "state_layout": STATE_LAYOUT_VERSION,
        "corridor": dataclasses.asdict(scenario.corridor),
        "n_vehicles": scenario.n_vehicles,
        "n_reserved": scenario.n_reserved,
        "flex_window": scenario.limits.flex_window,
        "norm": dataclasses.asdict(scenario.norm),
    }


class ZonalDispatchEnv:
    """reset/step interface over the SoD world with RL zonal control."""

    def __init__(self, scenario, net=None):
        self.scenario = scenario
        self.net = net if net is not None else scenario.network()
        self.episode_len = scenario.n_steps // scenario.rl_period
        self.world = None
        self.controller = None
        self.t = 0
        self.done = True
        n = scenario.norm
        fleet = scenario.n_vehicles
        # an all-reserved fleet still needs a non-empty range
        controllable = max(1, fleet - scenario.n_reserved)
        commit_cap = fleet * scenario.limits.flex_window
        self.ranges = (
            [(0.0, float(fleet)), (0.0, float(controllable)),
             (0.0, n.forecast_cap)]
            + [(0.0, n.request_cap), (0.0, commit_cap),
               (0.0, n.request_cap)] * 3
            + [(0.0, n.time_cap)] * 3
            + [(0.0, n.forecast_cap)] * 3
        )
        # (lo, hi - lo) per feature, as floats whatever real a cap is given as
        self._bounds = [(float(lo), float(hi) - float(lo))
                        for lo, hi in self.ranges]
        self._seg_shares = segment_shares(self.net, scenario.demand)

    def reset(self, seed):
        self.world = build_world(self.scenario, PolicyKind.RL_ZONAL, seed,
                                 net=self.net)
        self.controller = DispatchController(self.world, PolicyKind.RL_ZONAL,
                                             self.scenario.dispatch)
        self.t = 0
        self.done = False
        return self.observe()

    def step(self, action):
        """Advance one decision period: ``rl_period`` simulation steps, each
        with the headway departures due, then matching and movement; the
        action is taken in the first, after its departures."""
        if self.done:
            raise RuntimeError("step() called on a finished episode")
        # refused before anything moves: operator.index lets numpy integers
        # pass, and a bool is refused though it is an int
        try:
            a = None if isinstance(action, bool) else operator.index(action)
        except TypeError:
            a = None
        if a not in range(N_ACTIONS):
            raise ValueError("action must be an integer in 0-%d, not %r"
                             % (N_ACTIONS - 1, action))
        w = self.world
        rejected_before = w.rejected_total
        infos = []
        for i in range(self.scenario.rl_period):
            self.controller.baseline_dispatch()
            if i == 0:
                self.controller.apply_action(a)
            match_step(w, walk_speed=self.scenario.demand.walk_speed,
                       walk_cap=self.scenario.demand.walk_cap)
            rep = w.advance_step()
            infos.append(rep)
        reward = -(w.rejected_total - rejected_before)
        self.t += 1
        self.done = self.t >= self.episode_len
        return self.observe(), float(reward), self.done, {"reports": infos}

    # ---- observation -------------------------------------------------------

    def observe(self):
        """The normalized state vector (layout above).  One pass over the
        vehicles counts them and sums the committed window seconds in vehicle
        order; each feature is scaled and clamped as a Python float, whose
        subtract, divide, max and min round as numpy's do, so the result
        equals ``tests/oracles.oracle_observe`` bit for bit."""
        w = self.world
        now = w.now
        running = available = 0
        commit = [0.0, 0.0, 0.0]
        # a flexible cycle's window runs from stop k to stop len - 1 - k
        k = len(w.fixed_stop_nodes)
        for v in w.vehicles:
            if v.status is not _AT_TERMINUS:
                running += 1
            elif v.fleet_class is _CONTROLLABLE:
                available += 1
            if not v.schedule:
                continue
            open_dep = v.schedule[k].departure
            close_arr = v.schedule[-1 - k].arrival
            remaining = max(0.0, close_arr - max(now, open_dep))
            if v.zone == 0:
                commit[0] += remaining
                commit[1] += remaining
                commit[2] += remaining
            else:
                commit[v.zone] += remaining

        unassigned = [0, 0, 0]
        for r in w.pending_requests():
            unassigned[r.category] += 1

        forecast = forecast_demand(self.scenario.demand,
                                   self.scenario.horizon, now, 900.0)
        time_cap = self.scenario.norm.time_cap
        last = w.last_departure
        shares = self._seg_shares
        opens = w.open_processes
        raw = (
            running, available, forecast,
            unassigned[0], commit[0], opens[0],
            unassigned[1], commit[1], opens[1],
            unassigned[2], commit[2], opens[2],
            time_cap if last[0] is None else now - last[0],
            time_cap if last[1] is None else now - last[1],
            time_cap if last[2] is None else now - last[2],
            forecast * shares[0], forecast * shares[1], forecast * shares[2],
        )
        x = [(f - lo) / span for f, (lo, span) in zip(raw, self._bounds)]
        # max(0.0, v) and then min(1.0, v), written out: a tie keeps the
        # bound, as np.maximum(v, 0.0) and np.minimum(v, 1.0) do, so this is
        # np.clip(v, 0, 1) on every feature but a NaN, which no world gives
        return np.array([(v if v < 1.0 else 1.0) if v > 0.0 else 0.0
                         for v in x])
