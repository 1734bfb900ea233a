import csv
import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from sodfeeder import env, experiments
from sodfeeder.cli import build_parser, main
from sodfeeder.demand import generate_instance
from sodfeeder.scenario import Scenario, SeedConfig

from checkpoints import NOT_A_CHECKPOINT, RAW_FILES, write_malformed


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


@pytest.mark.parametrize("lengths", ["abc", "[1200, x, 800]"])
def test_dump_network_reports_bad_segment_lengths(lengths, tmp_path, caplog):
    bad = tmp_path / "bad.yaml"
    bad.write_text("corridor:\n  segment_lengths: %s\n" % lengths)
    out = tmp_path / "net"
    with caplog.at_level(logging.ERROR, logger="sodfeeder"):
        rc = main(["dump-network", "--config", str(bad), "--out", str(out)])
    assert rc == 1
    assert "corridor.segment_lengths" in caplog.text
    assert not out.exists()


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
    (["compare", "--policies", "sod,foo"], "foo"),
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


@pytest.mark.parametrize("command", [
    ["simulate", "--policy", "rl_zonal"],
    ["compare", "--policies", "sod,rl_zonal", "--n-seeds", "1"],
])
def test_an_npz_that_is_not_a_checkpoint_is_one_error(command, tmp_path,
                                                      fast_config, caplog):
    bad = tmp_path / "x.npz"
    np.savez(bad, weights=np.zeros(3))
    with caplog.at_level(logging.ERROR, logger="sodfeeder"):
        rc = main(command + ["--checkpoint", str(bad), "--config",
                             fast_config, "--out", str(tmp_path / "out")])
    assert rc == 1
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and errors[0].exc_info is None
    assert errors[0].getMessage() == "checkpoint %s has no meta entry" % bad
    assert "Traceback" not in caplog.text


def _one_error(caplog):
    """The run logged exactly one error, without a traceback."""
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and errors[0].exc_info is None
    assert "Traceback" not in caplog.text


CHECKPOINT_COMMANDS = [
    ["simulate", "--policy", "rl_zonal"],
    ["compare", "--policies", "sod,rl_zonal", "--n-seeds", "1"],
]


@pytest.mark.parametrize("name",
                         sorted(NOT_A_CHECKPOINT) + sorted(RAW_FILES))
@pytest.mark.parametrize("command", CHECKPOINT_COMMANDS, ids=lambda c: c[0])
def test_a_malformed_checkpoint_is_one_error(command, name, tmp_path,
                                             fast_config, caplog):
    bad = tmp_path / (name + ".npz")
    match = write_malformed(bad, name)
    with caplog.at_level(logging.ERROR, logger="sodfeeder"):
        rc = main(command + ["--checkpoint", str(bad), "--config",
                             fast_config, "--out", str(tmp_path / "out")])
    assert rc == 1
    _one_error(caplog)
    assert str(bad) + match in caplog.text


# every command, with run sizes that keep it short
COMMANDS = [
    ["simulate", "--policy", "sod"],
    ["train", "--instances", "2", "--envs", "2"],
    ["compare", "--policies", "sod", "--n-seeds", "1"],
    ["dump-network"],
    ["dump-demand"],
]


# (command, flag, what stands at the path): a directory where a file is
# read, a file where the output directory goes; train's --checkpoint is an
# output path, and only compare reads --seeds
UNOPENABLE = ([(c, "--config", "dir") for c in COMMANDS]
              + [(c, "--out", "file") for c in COMMANDS]
              + [(c, "--checkpoint", "dir") for c in CHECKPOINT_COMMANDS]
              + [(COMMANDS[2], "--seeds", "dir")])


@pytest.mark.parametrize("command,flag,kind", UNOPENABLE,
                         ids=["%s %s %s" % (c[0], f, k)
                              for c, f, k in UNOPENABLE])
def test_a_path_that_cannot_be_opened_is_one_error(command, flag, kind,
                                                   tmp_path, fast_config,
                                                   caplog):
    path = tmp_path / "given"
    if kind == "dir":
        path.mkdir()
    else:
        path.write_text("")
    args = {"--config": fast_config, "--out": str(tmp_path / "out"),
            flag: str(path)}
    with caplog.at_level(logging.ERROR, logger="sodfeeder"):
        rc = main(command + [a for kv in args.items() for a in kv])
    assert rc == 1
    _one_error(caplog)
    assert str(path) in caplog.text


# each command, and the scenario it runs: fast_config's with its flags set
@pytest.mark.parametrize("command,ran", [
    pytest.param(["simulate", "--policy", "sod"], lambda sc: sc,
                 id="simulate"),
    pytest.param(["train", "--instances", "4", "--envs", "2"],
                 lambda sc: replace(sc, seeds=replace(sc.seeds, train_count=4),
                                    ppo=replace(sc.ppo, n_envs=2)),
                 id="train"),
    pytest.param(["compare", "--policies", "sod", "--n-seeds", "2"],
                 lambda sc: replace(sc, seeds=replace(sc.seeds, eval_count=2)),
                 id="compare"),
])
def test_a_run_records_the_scenario_it_ran(command, ran, tmp_path,
                                           fast_config):
    out = tmp_path / "out"
    assert main(command + ["--config", fast_config, "--out", str(out)]) == 0
    assert Scenario.from_yaml(out / "scenario.yaml") == \
        ran(Scenario.from_yaml(fast_config))


def test_compare_rl_requires_checkpoint(tmp_path, fast_config):
    rc = main(["compare", "--policies", "rl_zonal", "--n-seeds", "1",
               "--config", fast_config, "--out", str(tmp_path / "y")])
    assert rc == 2
