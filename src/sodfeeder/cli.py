"""Command-line entry points: simulate, train, compare, dump-network,
dump-demand."""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .demand import generate_instance
from .dispatch import PolicyKind
from .econ import (METRIC_FIELDS, write_metrics_csv, write_summary_json,
                   write_table)
from .experiments import compare, run_simulation, train_rl
from .ppo import load_checkpoint
from .scenario import Scenario

LOG = logging.getLogger("sodfeeder")

_POLICY_NAMES = {k.value: k for k in PolicyKind}


def _load_scenario(args):
    if args.config:
        return Scenario.from_yaml(args.config)
    return Scenario()


def _add_common(p):
    p.add_argument("--config", help="scenario YAML; defaults used if omitted")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--log-level", default="info")


def cmd_simulate(args):
    sc = _load_scenario(args)
    kind = _POLICY_NAMES[args.policy]
    actor = None
    if kind is PolicyKind.RL_ZONAL:
        if not args.checkpoint:
            LOG.error("policy rl_zonal requires --checkpoint")
            return 2
        actor = load_checkpoint(args.checkpoint, sc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sc.to_yaml(out / "scenario.yaml")
    metrics, world = run_simulation(sc, kind, args.seed, actor=actor)
    write_metrics_csv([({"policy": kind.value, "seed": args.seed}, metrics)],
                      out / "metrics.csv")
    write_summary_json({f: getattr(metrics, f) for f in METRIC_FIELDS},
                       out / "metrics.json")
    write_table(out / "dispatch_log.csv", ["step", "vehicle", "source", "z"],
                world.dispatch_log)
    LOG.info("served %d / generated %d, cost %.2f", metrics.served,
             metrics.generated, metrics.total_cost)
    return 0


def cmd_train(args):
    sc = _load_scenario(args)
    # the sizes go through the scenario, which checks them before any output
    if args.instances is not None:
        sc = replace(sc, seeds=replace(sc.seeds, train_count=args.instances))
    if args.envs is not None:
        sc = replace(sc, ppo=replace(sc.ppo, n_envs=args.envs))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sc.to_yaml(out / "scenario.yaml")
    ckpt = args.checkpoint or str(out / "policy.npz")
    train_rl(sc, out_checkpoint=ckpt,
             stats_path=str(out / "training_stats.csv"), seed=args.seed)
    LOG.info("checkpoint written to %s", ckpt)
    return 0


def cmd_compare(args):
    sc = _load_scenario(args)
    if args.n_seeds is not None:
        sc = replace(sc, seeds=replace(sc.seeds, eval_count=args.n_seeds))
    names = args.policies.split(",")
    unknown = [p for p in names if p not in _POLICY_NAMES]
    if unknown:
        raise ValueError("unknown policy %s in --policies; known: %s"
                         % (", ".join(unknown), ", ".join(_POLICY_NAMES)))
    policies = [_POLICY_NAMES[p] for p in names]
    actor = None
    if PolicyKind.RL_ZONAL in policies:
        if not args.checkpoint:
            LOG.error("comparing rl_zonal requires --checkpoint")
            return 2
        actor = load_checkpoint(args.checkpoint, sc)
    if args.seeds:
        seeds = [int(s) for s in Path(args.seeds).read_text().split()]
    else:
        seeds = sc.seeds.eval_seeds()
    compare(sc, policies, seeds, actor=actor, out_dir=args.out)
    sc.to_yaml(Path(args.out) / "scenario.yaml")
    LOG.info("comparison written to %s", args.out)
    return 0


def cmd_dump_network(args):
    sc = _load_scenario(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    net = sc.network()
    write_table(out / "nodes.csv", ["id", "x", "y", "segment", "is_mainline"],
                ([i, x, y, net.labels[i].name, int(net.is_mainline(i))]
                 for i, (x, y) in enumerate(net.coords)))
    write_table(out / "edges.csv", ["u", "v", "length", "time"],
                ([u, v, l, t] for u, legs in enumerate(net.adj)
                 for v, t, l in legs))
    LOG.info("%d nodes written", net.n_nodes)
    return 0


def cmd_dump_demand(args):
    sc = _load_scenario(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reqs = generate_instance(sc.network(), sc.demand, sc.horizon, args.seed)
    write_table(out / ("demand_seed%d.csv" % args.seed),
                ["id", "t_r", "origin", "destination"],
                ([r.id, r.t_r, r.origin, r.destination] for r in reqs))
    LOG.info("%d requests written", len(reqs))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="sodfeeder")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one episode under a policy")
    _add_common(p)
    p.add_argument("--policy", required=True, choices=sorted(_POLICY_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the RL zonal dispatch policy")
    _add_common(p)
    p.add_argument("--instances", type=int, default=None,
                   help="number of training instances (seeds.train_count)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--envs", type=int, default=None,
                   help="parallel environments (ppo.n_envs); fewer than 4 "
                   "train in one process")
    p.add_argument("--checkpoint", help="output checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="paired comparison across policies")
    _add_common(p)
    p.add_argument("--policies",
                   default="fixed_route,sod,nominal_zonal,rl_zonal")
    p.add_argument("--seeds", help="file with one seed per line")
    p.add_argument("--n-seeds", type=int, default=None,
                   help="number of evaluation seeds (seeds.eval_count)")
    p.add_argument("--checkpoint")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("dump-network", help="write the corridor as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_dump_network)

    p = sub.add_parser("dump-demand", help="write one demand instance as CSV")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_dump_demand)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper(), 20),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        LOG.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
