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

import numpy as np

from .demand import forecast_demand, segment_shares
from .dispatch import DispatchController, PolicyKind
from .fleet import FleetClass, VehicleStatus
from .matching import match_step
from .scenario import build_world

STATE_LAYOUT_VERSION = "sod-state-v1"
STATE_DIM = 18
N_ACTIONS = 4

# looked up once: enum member access is slow, and observe runs every step
_AT_TERMINUS = VehicleStatus.AT_TERMINUS
_CONTROLLABLE = FleetClass.CONTROLLABLE


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


def bounds(ranges):
    """Arrays ``lo`` and ``hi - lo`` of a list of (min, max) ranges."""
    lo = np.array([r[0] for r in ranges], dtype=float)
    hi = np.array([r[1] for r in ranges], dtype=float)
    if np.any(hi <= lo):
        raise ValueError("every range needs min < max")
    return lo, hi - lo


def normalize(raw, ranges):
    """Elementwise (x - min) / (max - min), clamped to [0, 1]."""
    lo, span = bounds(ranges)
    return np.clip((np.asarray(raw, dtype=float) - lo) / span, 0.0, 1.0)


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
        self._bounds = bounds(self.ranges)
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
        """Advance one decision period: override, action, matching, movement."""
        if self.done:
            raise RuntimeError("step() called on a finished episode")
        w = self.world
        rejected_before = w.rejected_total
        self.controller.baseline_dispatch()
        self.controller.apply_action(int(action))
        infos = []
        for _ in range(self.scenario.rl_period):
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
        order; the result equals ``tests/oracles.oracle_observe`` bit for
        bit."""
        w = self.world
        now = w.now
        running = available = 0
        commit = [0.0, 0.0, 0.0]
        for v in w.vehicles:
            if v.status is not _AT_TERMINUS:
                running += 1
            elif v.fleet_class is _CONTROLLABLE:
                available += 1
            if v.window_open_idx is None or not v.schedule:
                continue
            open_dep = v.schedule[v.window_open_idx].departure
            close_arr = v.schedule[v.window_close_idx].arrival
            remaining = max(0.0, close_arr - max(now, open_dep))
            if v.zone == 0:
                commit[0] += remaining
                commit[1] += remaining
                commit[2] += remaining
            else:
                commit[v.zone] += remaining

        unassigned = [0, 0, 0]
        for r in w.pending_requests():
            unassigned[w.category_of(r)] += 1

        forecast = forecast_demand(self.scenario.demand, self.scenario.horizon,
                                   now, 900.0)
        time_cap = self.scenario.norm.time_cap
        last = w.last_departure
        shares = self._seg_shares
        opens = w.open_processes
        x = np.array([
            running, available, forecast,
            unassigned[0], commit[0], opens[0],
            unassigned[1], commit[1], opens[1],
            unassigned[2], commit[2], opens[2],
            time_cap if last[0] is None else now - last[0],
            time_cap if last[1] is None else now - last[1],
            time_cap if last[2] is None else now - last[2],
            forecast * shares[0], forecast * shares[1], forecast * shares[2],
        ], dtype=float)
        lo, span = self._bounds
        x -= lo
        x /= span
        # equal to np.clip(x, 0, 1) on finite input, without its wrapper
        np.maximum(x, 0.0, out=x)
        np.minimum(x, 1.0, out=x)
        return x
