"""Workloads, per-episode audit and reference check of the sodfeeder benchmark.

Every workload is a closed loop in one process: the next op starts only when
the previous one has finished.  An op is one episode (``eval``, ``peak``) or
one ``PPOTrainer.run_update`` (``train-offpeak``).  The workload seed offsets
the instance seeds, so the program only ever receives generated demand.

Simulated statistics are the correctness check, not a metric: each op is
audited after it ran (outside the timed interval), and at the default seed
its outputs are compared with ``reference.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import sodfeeder  # noqa: E402
from sodfeeder import (corridor, dispatch, econ, env, experiments,  # noqa: E402
                       matching, ppo, scenario)
from sodfeeder.demand import RequestState  # noqa: E402
from sodfeeder.fleet import VehicleStatus  # noqa: E402

import tracer as tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 0
SEED_STRIDE = 100_000     # instance seeds of workload seed n start at n * stride
SETUP_REPEATS = 7
SLACK = 1e-6              # the simulator's own tolerance on wait and ride
PARAM_RTOL = 1e-9
POLICIES = ("fixed_route", "sod", "nominal_zonal", "rl_zonal")
# per-layer self-time shares are reported for these layers; "bench" is the
# harness itself (time inside an op but outside every wrapped call)
LAYERS = ("corridor", "demand", "fleet", "matching", "sim", "dispatch",
          "econ", "scenario", "env", "nets", "ppo", "experiments", "bench")


def check_program_origin():
    """The program must come from this checkout's ``src``, nowhere else."""
    here = Path(sodfeeder.__file__).resolve().parent
    if here != SRC / "sodfeeder":
        raise ImportError("sodfeeder was imported from %s, not %s"
                          % (here, SRC / "sodfeeder"))


# ---- set-up ------------------------------------------------------------------

def scaled_scenario(factor):
    """The default scenario with both demand rates multiplied by ``factor``."""
    base = sodfeeder.Scenario()
    d = base.demand
    return dataclasses.replace(base, demand=dataclasses.replace(
        d, base_rate=d.base_rate * factor, end_rate=d.end_rate * factor))


@dataclasses.dataclass
class Context:
    scenario: object
    net: object
    trainer: object = None


def build_context(factor, with_trainer):
    """Scenario, corridor with every shortest path computed, and the seeded
    trainer whose actor drives ``rl_zonal``."""
    sc = scaled_scenario(factor)
    sc.validate()
    net = corridor.build_corridor(sc.corridor)
    for a in range(net.n_nodes):
        for b in range(net.n_nodes):
            net.travel_time(a, b)
    trainer = None
    if with_trainer:
        trainer = ppo.PPOTrainer(
            env_factory=lambda i: env.ZonalDispatchEnv(sc, net=net),
            obs_dim=env.STATE_DIM, n_actions=env.N_ACTIONS, config=sc.ppo,
            seed=0, n_envs=sc.ppo.n_envs)
    return Context(sc, net, trainer)


def steps_per_episode():
    sc = sodfeeder.Scenario()
    return sc.n_steps // sc.rl_period


# ---- records -----------------------------------------------------------------

def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def metrics_digest(m):
    """Exact digest of every RunMetrics field."""
    return _digest(dataclasses.astuple(m))


def param_abs_sum(trainer):
    flat = np.concatenate([trainer.actor.flat_params(),
                           trainer.critic.flat_params()])
    return float(np.abs(flat).sum())


# ---- audit -------------------------------------------------------------------

def audit_world(world, reports=None):
    """Problems found in one finished episode; empty when it is sound."""
    lim = world.params.limits
    problems = []
    by_vehicle = {v.id: [] for v in world.vehicles}
    for r in world.requests:
        s = r.state
        picked = r.pickup_time is not None
        dropped = r.dropoff_time is not None
        legal = {
            RequestState.PENDING: r.vehicle is None and not picked,
            RequestState.REJECTED: r.vehicle is None and not picked,
            RequestState.ASSIGNED: r.vehicle is not None and not picked,
            RequestState.RIDING: (picked and not dropped
                                  and r.vehicle is not None
                                  and r.id in world.vehicles[r.vehicle].onboard),
            RequestState.SERVED: (picked and dropped and r.vehicle is not None
                                  and r.t_r <= r.pickup_time <= r.dropoff_time),
        }[s]
        if not legal:
            problems.append("request %d: illegal %s record" % (r.id, s.value))
        if s is not RequestState.PENDING and r.t_r > world.now:
            problems.append("request %d: handled before it was made" % r.id)
        if picked and r.pickup_time - r.t_r > lim.max_wait + SLACK:
            problems.append("request %d: waited %.3f s" % (
                r.id, r.pickup_time - r.t_r))
        if (dropped and r.direct_time is not None
                and r.dropoff_time - r.pickup_time
                > lim.max_ride(r.direct_time) + SLACK):
            problems.append("request %d: rode %.3f s" % (
                r.id, r.dropoff_time - r.pickup_time))
        if picked and r.vehicle in by_vehicle:
            by_vehicle[r.vehicle].append((r.pickup_time, 1))
            by_vehicle[r.vehicle].append(
                (r.dropoff_time if dropped else float("inf"), -1))
    for v in world.vehicles:
        load = peak = 0
        # at equal times alightings (-1) come first, as at a stop
        for _, delta in sorted(by_vehicle[v.id]):
            load += delta
            peak = max(peak, load)
        if peak > v.capacity or len(v.onboard) > v.capacity:
            problems.append("vehicle %d: load %d over capacity %d"
                            % (v.id, peak, v.capacity))
        if v.status is VehicleStatus.AT_TERMINUS and v.onboard:
            problems.append("vehicle %d: riders on board at the terminus"
                            % v.id)
    for rep in reports or ():
        for item in rep.infeasibilities:
            problems.append("step report: %r" % (item,))
    return problems


# ---- workloads ---------------------------------------------------------------

class Workload:
    """One closed-loop workload.

    ``run(ctx, seed, k)`` executes op ``k`` and is the only timed call;
    ``record(ctx, k, out)`` turns its output into ``(record, problems)``.
    """
    name = ""
    demand_factor = 1.0
    with_trainer = False
    op_unit = "episode"
    episodes_per_op = 1
    group = 1          # ops that must finish together (one paired comparison)
    min_ops = 1        # reference prefix; every measured run completes it
    trace_ops = 1

    def setup(self):
        return build_context(self.demand_factor, self.with_trainer)

    def instance_seed(self, ctx, seed, i):
        return ctx.scenario.seeds.eval_start + seed * SEED_STRIDE + i


class Eval(Workload):
    name = "eval"
    with_trainer = True
    group = len(POLICIES)
    min_ops = 8 * len(POLICIES)
    trace_ops = 2 * len(POLICIES)

    def run(self, ctx, seed, k):
        kind = sodfeeder.PolicyKind(POLICIES[k % len(POLICIES)])
        inst = self.instance_seed(ctx, seed, k // len(POLICIES))
        return experiments.run_simulation(
            ctx.scenario, kind, inst, actor=ctx.trainer.actor, net=ctx.net)

    def record(self, ctx, k, out):
        m, world = out
        rec = {"seed_index": k // len(POLICIES),
               "policy": POLICIES[k % len(POLICIES)],
               "digest": metrics_digest(m), "served": m.served,
               "total_cost": m.total_cost}
        return rec, audit_world(world)


class Peak(Workload):
    name = "peak"
    demand_factor = 3.0
    min_ops = 6
    trace_ops = 3

    def run(self, ctx, seed, k):
        sc = ctx.scenario
        kind = sodfeeder.PolicyKind.SOD
        world = scenario.build_world(sc, kind, self.instance_seed(ctx, seed, k),
                                     net=ctx.net)
        ctrl = dispatch.DispatchController(world, kind, sc.dispatch)
        reports = []
        for _ in range(sc.n_steps):
            ctrl.baseline_dispatch()
            matching.match_step(world, walk_speed=sc.demand.walk_speed,
                                walk_cap=sc.demand.walk_cap)
            reports.append(world.advance_step())
        return econ.generalized_cost(world), world, reports

    def record(self, ctx, k, out):
        m, world, reports = out
        rec = {"seed_index": k, "policy": "sod", "digest": metrics_digest(m),
               "served": m.served, "total_cost": m.total_cost}
        return rec, audit_world(world, reports)


class TrainOffpeak(Workload):
    name = "train-offpeak"
    demand_factor = 0.1
    with_trainer = True
    op_unit = "update"
    episodes_per_op = sodfeeder.PPOConfig().n_envs
    min_ops = 8
    trace_ops = 4

    def instance_seed(self, ctx, seed, i):
        return ctx.scenario.seeds.train_start + seed * SEED_STRIDE + i

    def run(self, ctx, seed, k):
        n = ctx.trainer.n_envs
        seeds = [self.instance_seed(ctx, seed, k * n + i) for i in range(n)]
        return ctx.trainer.run_update(seeds)

    def record(self, ctx, k, out):
        reward, _ = out
        checksum = param_abs_sum(ctx.trainer)
        rec = {"update": k, "mean_episode_reward": reward,
               "param_abs_sum": checksum,
               "digest": _digest((reward, checksum))}
        problems = []
        for i, e in enumerate(ctx.trainer.envs):
            problems += ["env %d: %s" % (i, p) for p in audit_world(e.world)]
        return rec, problems


WORKLOADS = {w.name: w for w in (Eval(), Peak(), TrainOffpeak())}


# ---- reference ---------------------------------------------------------------

def load_reference(path=REFERENCE_PATH):
    with open(path) as f:
        return json.load(f)


def reference_mismatch(workload, k, rec, reference):
    """Why op ``k`` differs from the reference, or None when it matches or
    lies beyond the reference prefix."""
    ref = reference.get(workload)
    if ref is None:
        return "no reference for workload %s" % workload
    if k >= len(ref):
        return None
    want = ref[k]
    if "param_abs_sum" in want:
        if rec["mean_episode_reward"] != want["mean_episode_reward"]:
            return "update %d: mean episode reward %r, reference %r" % (
                k, rec["mean_episode_reward"], want["mean_episode_reward"])
        a, b = rec["param_abs_sum"], want["param_abs_sum"]
        if abs(a - b) > PARAM_RTOL * abs(b):
            return "update %d: parameter checksum %r, reference %r" % (k, a, b)
        return None
    if rec["digest"] != want["digest"]:
        return "op %d (%s): metrics digest %s, reference %s" % (
            k, want["policy"], rec["digest"], want["digest"])
    return None


def write_reference(path=REFERENCE_PATH):
    """Record the reference prefix of every workload at the default seed."""
    out = {}
    for name, wl in WORKLOADS.items():
        ctx = wl.setup()
        recs = []
        for k in range(wl.min_ops):
            rec, problems = wl.record(ctx, k, wl.run(ctx, DEFAULT_SEED, k))
            if problems:
                raise RuntimeError("%s op %d fails its audit: %s"
                                   % (name, k, problems[:3]))
            recs.append(rec)
        out[name] = recs
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return out


# ---- measurement -------------------------------------------------------------

class Ledger:
    """Op records, failures and the outputs digest of one run."""

    def __init__(self, workload, seed, reference):
        self.workload = workload
        self.check_reference = seed == DEFAULT_SEED
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.digests = {}      # op -> digest, over the reference prefix
        self.messages = []

    def add(self, ctx, k, run):
        """Run op ``k`` through ``run`` (which returns (output, seconds)),
        audit it and book the outcome; returns the seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out, seconds = run()
        except Exception:
            self.failed += 1
            self.messages.append("op %d raised:\n%s" % (
                k, traceback.format_exc()))
            return time.perf_counter() - start
        rec, problems = self.workload.record(ctx, k, out)
        if self.check_reference:
            why = reference_mismatch(self.workload.name, k, rec,
                                     self.reference)
            if why:
                problems.append(why)
        if k < self.workload.min_ops:
            seen = self.digests.setdefault(k, rec["digest"])
            if seen != rec["digest"]:
                problems.append("op %d differs from its earlier run" % k)
        if problems:
            self.failed += 1
            self.messages.append("op %d: %s" % (k, "; ".join(problems[:5])))
        return seconds

    def outputs_digest(self):
        return _digest(tuple(self.digests[k] for k in sorted(self.digests)))


def timed_call(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


# ---- machine speed -------------------------------------------------------------
#
# On a shared virtual machine one CPU's speed can change by up to 2x within
# minutes (seen on a 2-vCPU Xeon VM, independently per vCPU), so a time
# measured once cannot be compared with one measured a few minutes later.  After every op a fixed pure-Python
# calibration unit runs for a share of the op's time on the same CPU, and the
# op's time is scaled by REF_UNIT_S over the mean unit time measured just
# before and just after it.  The reported times are thus host seconds at one
# reference speed: that of a machine where one unit takes REF_UNIT_S.  The
# raw times are printed next to them.

REF_UNIT_S = 0.003
CAL_SHARE = 0.3          # calibration time per second of op time
CAL_MIN_UNITS = 3


class _Node:
    __slots__ = ("id", "cost", "nbrs")

    def __init__(self, i):
        self.id = i
        self.cost = 0.0
        self.nbrs = []


def calibration_unit():
    """A fixed mix of object, list, dict, float and call work (about 3 ms)."""
    nodes = [_Node(i) for i in range(60)]
    for n in nodes:
        n.nbrs = [nodes[(n.id * 7 + k) % 60] for k in range(1, 5)]
    table = {}
    total = 0.0
    for rnd in range(40):
        for n in nodes:
            best = None
            for m in n.nbrs:
                c = abs(m.id - n.id) * 1.5 + m.cost * 0.5
                if best is None or c < best:
                    best = c
            n.cost = best + rnd * 0.01
            table[(n.id, rnd % 5)] = n.cost
        total += min(nodes, key=lambda x: x.cost).cost + len(table)
    return total


class SpeedScale:
    """Turns raw op times into times at the reference speed."""

    def __init__(self):
        self.before = self._slice(0.0)
        self.factors = []

    def _slice(self, seconds):
        units, spent = 0, 0.0
        while units < CAL_MIN_UNITS or spent < seconds:
            _, dt = timed_call(calibration_unit)
            units += 1
            spent += dt
        return spent, units

    def scale(self, raw_s):
        """Calibrate after an op that took ``raw_s``; returns its scaled time."""
        after = self._slice(CAL_SHARE * raw_s)
        unit_s = (self.before[0] + after[0]) / (self.before[1] + after[1])
        self.before = after
        factor = REF_UNIT_S / unit_s
        self.factors.append(factor)
        return raw_s * factor


def measure_setup(wl, speed, repeats=SETUP_REPEATS):
    raw, scaled = [], []
    ctx = None
    for _ in range(repeats):
        ctx, dt = timed_call(wl.setup)
        raw.append(dt)
        scaled.append(speed.scale(dt))
    return ctx, raw, scaled


def percentile(values, q):
    """The q-th percentile (q in 1..99) by ``statistics.quantiles``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_untraced(wl, seed, seconds, reference, min_ops=None):
    """The measured closed loop: ops until ``seconds`` of wall time have
    passed, the reference prefix is complete and the last paired group is
    whole."""
    min_ops = wl.min_ops if min_ops is None else min_ops
    speed = SpeedScale()
    ctx, setup_raw, setup_scaled = measure_setup(wl, speed)
    ledger = Ledger(wl, seed, reference)
    raw, scaled = [], []
    start = time.perf_counter()
    k = 0
    while (time.perf_counter() - start < seconds or k < min_ops
           or k % wl.group != 0):
        raw.append(ledger.add(
            ctx, k, lambda: timed_call(wl.run, ctx, seed, k)))
        scaled.append(speed.scale(raw[-1]))
        k += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    episodes = len(scaled) * wl.episodes_per_op
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "episodes_per_s": (episodes / sum(scaled), "1/s"),
        "op_s.p50": (statistics.median(scaled), "s"),
        "op_s.p90": (percentile(scaled, 90), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "ops": len(scaled), "host_s": sum(raw), "wall_s":
            time.perf_counter() - start,
        "setup_repeats": len(setup_raw),
        "beyond_p90": sum(t > metrics["op_s.p90"][0] for t in scaled),
        "raw": {"setup_s": statistics.median(setup_raw),
                "episodes_per_s": episodes / sum(raw),
                "op_s.p50": statistics.median(raw),
                "op_s.p90": percentile(raw, 90)},
        "speed_factor": statistics.median(speed.factors),
    }
    return metrics, ledger, notes


def run_traced(wl, seed, reference, n_ops=None):
    """The same ``n_ops`` ops twice: untraced, then traced on a fresh set-up.
    Returns per-layer metrics from the traced pass and the tracer."""
    n_ops = wl.trace_ops if n_ops is None else n_ops
    ledger = Ledger(wl, seed, reference)
    speed = SpeedScale()
    ctx = wl.setup()
    plain_s = sum(speed.scale(ledger.add(
        ctx, k, lambda: timed_call(wl.run, ctx, seed, k)))
        for k in range(n_ops))
    ctx = wl.setup()
    t = tracing.install(tracing.Tracer())
    try:
        traced_s = sum(speed.scale(ledger.add(
            ctx, k, lambda: t.run_op(k, wl.run, ctx, seed, k)))
            for k in range(n_ops))
    finally:
        t.uninstall()
    factor = statistics.median(speed.factors[n_ops:])
    return layer_metrics(t, traced_s / plain_s, factor), ledger, t


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t, overhead, factor):
    """Per-layer metrics of a traced pass.  Seconds are scaled to the
    reference speed by ``factor``; shares are of the pass's wall time."""
    c = t.counters
    wall = t.total_s(tracing.ROOT_SPAN)
    enum_calls = t.calls("matching.enumerate")
    m = {
        "corridor.queries": (t.calls("corridor.query"), "count"),
        "corridor.query_s": (t.total_s("corridor.query"), "s"),
        "fleet.retime.calls": (t.calls("fleet.retime"), "count"),
        "fleet.retime.s": (t.total_s("fleet.retime"), "s"),
        "matching.match_step.calls": (t.calls("matching.match_step"), "count"),
        "matching.match_step.self_s": (t.self_s("matching.match_step"), "s"),
        "matching.enumerate.calls": (enum_calls, "count"),
        "matching.enumerate.self_s": (t.self_s("matching.enumerate"), "s"),
        "matching.assigned": (c["matching.assigned"], "count"),
        "matching.rejected": (c["matching.rejected"], "count"),
        "matching.retries": (c["matching.retries"], "count"),
        "matching.candidates_built": (c["matching.candidates_built"], "count"),
        "matching.candidates_feasible":
            (c["matching.candidates_feasible"], "count"),
        "matching.assign_ratio":
            (_ratio(c["matching.assigned"], enum_calls), "ratio"),
        "matching.feasible_ratio":
            (_ratio(c["matching.candidates_feasible"],
                    c["matching.candidates_built"]), "ratio"),
        "sim.advance_step.calls": (t.calls("sim.advance_step"), "count"),
        "sim.advance_step.self_s": (t.self_s("sim.advance_step"), "s"),
        "sim.pending_requests.calls": (t.calls("sim.pending_requests"), "count"),
        "sim.pending_requests.s": (t.total_s("sim.pending_requests"), "s"),
        "sim.events": (c["sim.events"], "count"),
        "sim.violations": (c["sim.violations"], "count"),
        "dispatch.baseline_dispatch.s":
            (t.total_s("dispatch.baseline_dispatch"), "s"),
        "dispatch.dispatches": (c["dispatch.dispatches"], "count"),
        "dispatch.lateness_skips": (c["dispatch.lateness_skips"], "count"),
        "demand.generate_instance.s":
            (t.total_s("demand.generate_instance"), "s"),
        "demand.requests": (c["demand.requests"], "count"),
        "scenario.build_world.s": (t.total_s("scenario.build_world"), "s"),
        "econ.generalized_cost.s": (t.total_s("econ.generalized_cost"), "s"),
        "env.step.self_s": (t.self_s("env.step"), "s"),
        "env.observe.calls": (t.calls("env.observe"), "count"),
        "env.observe.s": (t.total_s("env.observe"), "s"),
        "env.reset.s": (t.total_s("env.reset"), "s"),
        "nets.forward.calls": (t.calls("nets.forward"), "count"),
        "nets.forward.s": (t.total_s("nets.forward"), "s"),
        "nets.backward.s": (t.total_s("nets.backward"), "s"),
        "nets.adam.s": (t.total_s("nets.adam"), "s"),
        "ppo.collect_rollouts.self_s": (t.self_s("ppo.collect_rollouts"), "s"),
        "ppo.sample_action.s": (t.total_s("ppo.sample_action"), "s"),
        "ppo.update.s": (t.total_s("ppo.update"), "s"),
        "ppo.update.minibatches": (c["ppo.update.minibatches"], "count"),
        "experiments.run_simulation.self_s":
            (t.self_s("experiments.run_simulation"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    m = {k: (v * factor if unit == "s" else v, unit)
         for k, (v, unit) in m.items()}
    shares = t.layer_self_s()
    for layer in LAYERS:
        m["self_share." + layer] = (_ratio(shares.get(layer, 0.0), wall),
                                    "ratio")
    return m


# ---- machine -----------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_name():
    try:
        cfg = np.show_config(mode="dicts")
        return cfg["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def machine_info():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": _git_sha(),
        "loadavg": list(os.getloadavg()),
    }
