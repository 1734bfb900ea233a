import csv
import json
import logging

import pytest

from sodfeeder import env, experiments
from sodfeeder.cli import build_parser, main
from sodfeeder.demand import generate_instance
from sodfeeder.scenario import Scenario, SeedConfig


@pytest.fixture()
def fast_config(tmp_path):
    sc = Scenario(horizon=1800.0, warmup=600.0)
    path = tmp_path / "scenario.yaml"
    sc.to_yaml(path)
    return str(path)


def test_parser_has_all_subcommands():
    parser = build_parser()
    subs = next(a for a in parser._actions
                if a.dest == "command").choices.keys()
    assert set(subs) == {"simulate", "train", "compare", "dump-network",
                         "dump-demand"}


def test_simulate_writes_outputs(tmp_path, fast_config):
    out = tmp_path / "sim"
    rc = main(["simulate", "--policy", "sod", "--seed", "3",
               "--config", fast_config, "--out", str(out)])
    assert rc == 0
    assert (out / "metrics.csv").exists()
    assert (out / "dispatch_log.csv").exists()
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["generated"] >= 0


def test_simulate_rl_requires_checkpoint(tmp_path, fast_config):
    rc = main(["simulate", "--policy", "rl_zonal", "--config", fast_config,
               "--out", str(tmp_path / "x")])
    assert rc == 2


def test_simulate_rejects_unknown_policy(tmp_path):
    with pytest.raises(SystemExit):
        main(["simulate", "--policy", "warp_drive",
              "--out", str(tmp_path / "x")])


def test_bad_config_is_reported(tmp_path):
    bad = tmp_path / "bad.yaml"
    for text in ["no_such_field: 1\n", "demand:\n  foo: 1\n",
                 "limits:\n  capacity: 20\n", "horizon: 10830\n",
                 "rl_period: 7\n", "n_vehicles: 0\nn_reserved: 0\n",
                 # not a mapping, a scalar section, a non-numeric field
                 "- 1\n", "demand: 5\n", "demand:\n  base_rate: abc\n"]:
        bad.write_text(text)
        rc = main(["simulate", "--policy", "sod", "--config", str(bad),
                   "--out", str(tmp_path / "x")])
        assert rc == 1, text


def test_dump_network(tmp_path):
    out = tmp_path / "net"
    rc = main(["dump-network", "--out", str(out)])
    assert rc == 0
    assert (out / "nodes.csv").exists()
    assert (out / "edges.csv").exists()


def test_dump_demand(tmp_path, fast_config):
    out = tmp_path / "dem"
    rc = main(["dump-demand", "--seed", "9", "--config", fast_config,
               "--out", str(out)])
    assert rc == 0
    with open(out / "demand_seed9.csv", newline="") as f:
        rows = [(int(r["id"]), float(r["t_r"]), int(r["origin"]),
                 int(r["destination"])) for r in csv.DictReader(f)]
    sc = Scenario.from_yaml(fast_config)
    want = generate_instance(sc.network(), sc.demand, sc.horizon, 9)
    assert rows and rows == [(r.id, r.t_r, r.origin, r.destination)
                             for r in want]


def test_train_keeps_the_configs_instance_count(tmp_path):
    config = tmp_path / "scenario.yaml"
    Scenario(horizon=1800.0, warmup=600.0,
             seeds=SeedConfig(train_count=4)).to_yaml(config)
    out = tmp_path / "train"
    rc = main(["train", "--envs", "2", "--config", str(config),
               "--out", str(out)])
    assert rc == 0
    rows = (out / "training_stats.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2     # header + 4 instances / 2 envs


def test_train_and_compare_round_trip(tmp_path, fast_config):
    out = tmp_path / "train"
    rc = main(["train", "--instances", "8", "--envs", "2",
               "--config", fast_config, "--out", str(out)])
    assert rc == 0
    ckpt = out / "policy.npz"
    assert ckpt.exists()
    assert (out / "training_stats.csv").exists()

    cmp_out = tmp_path / "cmp"
    rc = main(["compare", "--policies", "fixed_route,sod,rl_zonal",
               "--n-seeds", "2", "--checkpoint", str(ckpt),
               "--config", fast_config, "--out", str(cmp_out)])
    assert rc == 0
    assert (cmp_out / "runs.csv").exists()
    assert (cmp_out / "aggregate.csv").exists()
    assert (cmp_out / "summary.json").exists()
    assert (cmp_out / "action_density.csv").exists()
    runs = (cmp_out / "runs.csv").read_text().strip().splitlines()
    assert len(runs) == 1 + 3 * 2     # header + 3 policies x 2 seeds

    # the checkpoint refuses a scenario with another fleet split
    other = tmp_path / "other.yaml"
    Scenario(horizon=1800.0, warmup=600.0, n_vehicles=6,
             n_reserved=3).to_yaml(other)
    rc = main(["compare", "--policies", "rl_zonal", "--n-seeds", "1",
               "--checkpoint", str(ckpt), "--config", str(other),
               "--out", str(tmp_path / "cmp2")])
    assert rc == 1


@pytest.mark.parametrize("args,field", [
    (["train", "--instances", "8", "--envs", "0"], "ppo.n_envs"),
    (["train", "--instances", "0"], "seeds.train_count"),
    (["compare", "--policies", "sod", "--n-seeds", "0"], "seeds.eval_count"),
    # evaluation seeds 0..10000 would include training seed 10000
    (["compare", "--policies", "sod", "--n-seeds", "10001"],
     "seeds.eval_count"),
    (["compare", "--policies", "sod", "--seeds", "EMPTY"], "seeds"),
])
def test_bad_run_size_fails_before_any_episode(args, field, tmp_path,
                                               fast_config, monkeypatch,
                                               caplog):
    def no_episode(*a, **k):
        raise AssertionError("an episode started")
    monkeypatch.setattr(env, "build_world", no_episode)
    monkeypatch.setattr(experiments, "build_world", no_episode)
    empty = tmp_path / "seeds.txt"
    empty.write_text("")
    out = tmp_path / "out"
    args = [str(empty) if a == "EMPTY" else a for a in args]
    with caplog.at_level(logging.ERROR, logger="sodfeeder"):
        rc = main(args + ["--config", fast_config, "--out", str(out)])
    assert rc == 1
    assert field in caplog.text
    assert not out.exists()


def test_compare_rl_requires_checkpoint(tmp_path, fast_config):
    rc = main(["compare", "--policies", "rl_zonal", "--n-seeds", "1",
               "--config", fast_config, "--out", str(tmp_path / "y")])
    assert rc == 2
