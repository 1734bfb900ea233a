"""In-memory spans and counters around calls into sodfeeder's public functions.

Tracing works from outside the program: ``install`` replaces module and class
attributes (for example ``sodfeeder.env.match_step`` or
``Network.travel_time``) with wrappers that time the call, and ``uninstall``
puts the originals back.  Nothing under ``src/`` changes.

Every wrapped call adds to a per-name row of (calls, inclusive seconds, self
seconds).  Self time is the call's duration minus the time covered by wrapped
calls made inside it.  Calls of the coarse functions also keep a span
``(id, name, start, end, parent id, op id)`` in memory; the two leaf functions
that fire hundreds of thousands of times per episode (the corridor queries and
``retime``) are aggregated only, so their cost shows in the counts and the
overhead ratio but not as individual spans.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict

ROOT_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.rows = {}                    # name -> [calls, total_s, self_s]
        self.counters = defaultdict(int)
        self.spans = []
        self.op_id = None
        self._stack = []
        self._ids = itertools.count()
        self._undo = []

    # ---- wrappers ------------------------------------------------------------

    def timed(self, name, fn, after=None, keep_span=True):
        """Wrap ``fn`` so each call is timed under ``name``.

        ``after(result, args)`` runs outside the timed interval and feeds the
        counters.
        """
        row = self.rows.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[0]
                parent[0] += dur
                if keep_span:
                    spans.append((frame[1], name, start, end, parent[1],
                                  tracer.op_id))
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counted(self, name, fn):
        """Wrap ``fn`` so each call adds one to counter ``name``, untimed."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owners, attr, wrapper_of):
        """Replace ``attr`` on every owner by ``wrapper_of(original)``.

        Owners that share one original share one wrapper.
        """
        made = {}
        for owner in owners:
            original = getattr(owner, attr)
            if id(original) not in made:
                made[id(original)] = wrapper_of(original)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, made[id(original)])

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---- ops -----------------------------------------------------------------

    def run_op(self, op_id, fn, *args):
        """Run one benchmark op under a root span; returns (result, seconds)."""
        self.op_id = op_id
        root = [0.0, next(self._ids)]
        self._stack.append(root)
        row = self.rows.setdefault(ROOT_SPAN, [0, 0.0, 0.0])
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            row[0] += 1
            row[1] += dur
            row[2] += dur - root[0]
            self.spans.append((root[1], ROOT_SPAN, start, end, None, op_id))
        return result, dur

    # ---- read-out ------------------------------------------------------------

    def calls(self, name):
        return self.rows.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name):
        return self.rows.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name):
        return self.rows.get(name, (0, 0.0, 0.0))[2]

    def layer_self_s(self):
        """Self seconds summed per layer (the name up to its first dot)."""
        out = defaultdict(float)
        for name, (_, _, self_s) in self.rows.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def self_time_table(self):
        wall = self.total_s(ROOT_SPAN)
        lines = ["%-28s %9s %10s %10s %7s" % ("span", "calls", "total_s",
                                             "self_s", "self%")]
        for name, (calls, total, self_s) in sorted(
                self.rows.items(), key=lambda kv: -kv[1][2]):
            if not calls:
                continue
            lines.append("%-28s %9d %10.4f %10.4f %6.1f%%" % (
                name, calls, total, self_s,
                100.0 * self_s / wall if wall > 0 else 0.0))
        return lines

    def write_spans(self, path):
        with open(path, "w") as f:
            for sid, name, start, end, parent, op in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "op": op}) + "\n")


def install(tracer):
    """Wrap sodfeeder's public functions; returns the tracer."""
    from sodfeeder import (corridor, demand, dispatch, econ, env, experiments,
                           matching, nets, ppo, scenario, sim)
    t = tracer
    c = t.counters

    def timed(name, after=None, keep_span=True):
        return lambda fn: t.timed(name, fn, after, keep_span)

    def counted(name):
        return lambda fn: t.counted(name, fn)

    # corridor: the shortest-path queries
    for attr in ("travel_time", "travel_distance"):
        t.patch([corridor.Network], attr,
                timed("corridor.query", keep_span=False))

    # fleet: retime, reached from sim (dispatch) and from matching (one call
    # per candidate schedule built)
    t.patch([sim], "retime", timed("fleet.retime", keep_span=False))

    def built(_result, _args):
        c["matching.candidates_built"] += 1

    t.patch([matching], "retime",
            timed("fleet.retime", after=built, keep_span=False))

    # matching
    def matched(rep, _args):
        c["matching.assigned"] += len(rep.assigned)
        c["matching.rejected"] += len(rep.rejected)

    t.patch([matching, env, experiments], "match_step",
            timed("matching.match_step", after=matched))

    def enumerated(cands, _args):
        c["matching.candidates_feasible"] += len(cands)
        if not cands:
            c["matching.retries"] += 1

    t.patch([matching], "enumerate_candidates",
            timed("matching.enumerate", after=enumerated))

    # sim
    def stepped(rep, _args):
        c["sim.events"] += rep.boardings + rep.alightings + rep.arrivals
        c["sim.violations"] += len(rep.infeasibilities)

    t.patch([sim.World], "advance_step", timed("sim.advance_step", after=stepped))
    t.patch([sim.World], "pending_requests", timed("sim.pending_requests"))
    t.patch([sim.World], "dispatch_vehicle", counted("dispatch.dispatches"))

    # dispatch
    def with_skips(original):
        def baseline_dispatch(self):
            before = self.world.lateness_skips
            original(self)
            c["dispatch.lateness_skips"] += self.world.lateness_skips - before
        return t.timed("dispatch.baseline_dispatch", baseline_dispatch)

    t.patch([dispatch.DispatchController], "baseline_dispatch", with_skips)

    # demand, scenario, econ
    def generated(requests, _args):
        c["demand.requests"] += len(requests)

    t.patch([demand], "generate_instance",
            timed("demand.generate_instance", after=generated))
    t.patch([scenario, env, experiments], "build_world",
            timed("scenario.build_world"))
    t.patch([econ, experiments], "generalized_cost",
            timed("econ.generalized_cost"))

    # env
    for attr in ("step", "observe", "reset"):
        t.patch([env.ZonalDispatchEnv], attr, timed("env." + attr))

    # nets
    t.patch([nets.MLP], "forward", timed("nets.forward"))
    t.patch([nets.MLP], "backward", timed("nets.backward"))
    t.patch([nets.Adam], "step", timed("nets.adam"))

    # ppo
    t.patch([ppo.PPOTrainer], "run_update", timed("ppo.run_update"))
    t.patch([ppo], "collect_rollouts", timed("ppo.collect_rollouts"))
    t.patch([ppo], "sample_action", timed("ppo.sample_action"))
    t.patch([ppo], "update", timed("ppo.update"))
    t.patch([ppo], "actor_loss_and_grad", counted("ppo.update.minibatches"))

    # experiments
    t.patch([experiments], "run_simulation", timed("experiments.run_simulation"))
    return t
