"""Scenario configs are frozen and checked when built."""

import contextlib
import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sodfeeder import corridor, costs, demand, dispatch
from sodfeeder import scenario as scenario_module
from sodfeeder.cli import main
from sodfeeder.corridor import MAX_NODES, CorridorSpec
from sodfeeder.costs import RANGES, check_types
from sodfeeder.demand import DemandProfile
from sodfeeder.dispatch import DispatchConfig
from sodfeeder.scenario import (MAX_DEPARTURES, MAX_FIXED_STOPS,
                                MAX_HIDDEN_UNITS, MAX_REQUESTS, MAX_SEEDS,
                                MAX_STEPS, MAX_VEHICLES, PPOConfig, Scenario,
                                SeedConfig)

NAN = math.nan
INF = math.inf

# (section or None for a top-level field, field, a value it must refuse)
BAD_VALUES = [
    (None, "capacity", 0),
    (None, "capacity", 2.5),
    (None, "n_vehicles", 2.5),
    (None, "rl_period", 1.0),
    (None, "fixed_stop_spacing", 2000.0),    # beyond the 1200 m fixed segment
    (None, "dwell_base", -50.0),
    (None, "boarding_duration", -1.0),
    (None, "n_reserved", -1),
    (None, "horizon", math.inf),
    (None, "warmup", NAN),
    ("demand", "walk_speed", 0.0),
    ("demand", "base_rate", NAN),
    ("seeds", "train_count", -5),
    ("seeds", "eval_count", 2.5),
    ("ppo", "minibatch_size", 0),
    ("ppo", "n_envs", 0),
    ("ppo", "n_envs", 2.5),
    ("ppo", "epochs", 0),
    ("ppo", "hidden_units", 0),
    ("ppo", "learning_rate", -1.0),
    ("coeffs", "gamma_o", NAN),
    ("limits", "max_wait", NAN),
    ("dispatch", "nominal_offset", NAN),
    ("corridor", "side_depth", NAN),
    ("corridor", "segment_lengths", "abc"),
    ("corridor", "segment_lengths", [1200.0, "x", 800.0]),
    ("corridor", "segment_lengths", [1200.0, 2200.0]),
    ("corridor", "segment_lengths", 5600.0),
    # YAML reads yes/true as a bool, which int() and the >= checks take as 1
    (None, "capacity", True),
    (None, "dwell_base", True),
    ("ppo", "epochs", True),
    # inf passed every "positive" or "non-negative" float field; a base_rate
    # of inf would draw requests without end
    ("demand", "base_rate", INF),
    (None, "dwell_base", INF),
    ("dispatch", "full_headway", INF),
    ("corridor", "side_depth", INF),
    # counts over their caps: each would loop about 1e12 times in a run
    (None, "t_step", 1e-9),
    (None, "horizon", 1e12),
    (None, "fixed_stop_spacing", 1e-9),
    ("corridor", "side_spacing", 1e-9),
    ("corridor", "side_node_spacing", 1e-9),
    ("corridor", "side_depth", 1e12),
    (None, "n_vehicles", 10**12),
    ("seeds", "train_count", 10**12),
    ("seeds", "eval_count", 10**12),
    ("ppo", "hidden_units", 10**12),
]


def _config(section, name, value):
    return {name: value} if section is None else {section: {name: value}}


@pytest.mark.parametrize("section,name,value", BAD_VALUES)
def test_bad_value_fails_when_built(section, name, value, tmp_path):
    with pytest.raises(ValueError, match=name):
        if section is None:
            Scenario(**{name: value})
        else:
            type(getattr(Scenario(), section))(**{name: value})
    with pytest.raises(ValueError, match=name):
        Scenario.from_dict(_config(section, name, value))
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(_config(section, name, value)))
    assert main(["simulate", "--policy", "sod", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1


# a rate's request count needs the horizon, so a lone DemandProfile builds
# and the scenario that holds it refuses it
@pytest.mark.parametrize("name", ["base_rate", "end_rate"])
def test_a_rate_past_the_request_cap_fails_when_built(name, tmp_path):
    profile = DemandProfile(**{name: 1e12})
    with pytest.raises(ValueError, match="demand.%s" % name):
        Scenario(demand=profile)
    with pytest.raises(ValueError, match="demand.%s" % name):
        Scenario.from_dict(_config("demand", name, 1e12))
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(_config("demand", name, 1e12)))
    assert main(["simulate", "--policy", "sod", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("value", ["false", 0, 1.0, None])
def test_a_bool_field_refuses_anything_but_true_or_false(value, tmp_path):
    # YAML reads "false" in quotes as text, which would be truthy
    with pytest.raises(ValueError, match=r"ppo\.anneal_lr must be a bool"):
        Scenario.from_dict({"ppo": {"anneal_lr": value}})
    with pytest.raises(ValueError, match=r"ppo\.anneal_lr must be a bool"):
        PPOConfig(anneal_lr=value)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"ppo": {"anneal_lr": value}}))
    assert main(["simulate", "--policy", "sod", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert Scenario.from_dict({"ppo": {"anneal_lr": False}}).ppo.anneal_lr \
        is False


def test_every_int_field_refuses_a_fraction():
    sc = Scenario()
    types = [Scenario] + [type(getattr(sc, f.name))
                          for f in dataclasses.fields(sc)
                          if dataclasses.is_dataclass(getattr(sc, f.name))]
    checked = set()
    for tp in types:
        for f in dataclasses.fields(tp):
            if f.type in ("int", int):
                with pytest.raises(ValueError,
                                   match=r"\b%s must be an integer" % f.name):
                    tp(**{f.name: 2.5})
                checked.add(f.name)
    assert {"n_vehicles", "capacity", "n_envs", "eval_count"} <= checked


def test_every_float_field_refuses_a_bool():
    # each section checks its own fields when built, from Python or YAML,
    # and no float field takes NaN or +-inf either
    sc = Scenario()
    sections = [("", Scenario)] + [
        (f.name + ".", type(getattr(sc, f.name)))
        for f in dataclasses.fields(sc)
        if dataclasses.is_dataclass(getattr(sc, f.name))]
    checked = set()
    for prefix, tp in sections:
        for f in dataclasses.fields(tp):
            if f.type in ("float", float):
                with pytest.raises(ValueError, match=r"^%s%s must be a float"
                                   % (prefix.replace(".", r"\."), f.name)):
                    tp(**{f.name: True})
                for value in (NAN, INF, -INF):
                    with pytest.raises(ValueError, match=r"^%s%s must "
                                       % (prefix.replace(".", r"\."), f.name)):
                        tp(**{f.name: value})
                checked.add(prefix + f.name)
    assert {"corridor.mainline_speed", "demand.walk_speed", "limits.max_wait",
            "coeffs.gamma_o", "dispatch.full_headway", "ppo.clip_eps",
            "norm.time_cap", "horizon"} <= checked


def _declared_ranges():
    """(section prefix, section type, range, field) for each field that a
    range names, recorded from the ``check_types`` call of every section of
    a default scenario."""
    rows = []

    def recording(config, prefix="", at_most=None, **ranges):
        rows.extend((prefix, type(config), kind, name)
                    for kind, names in ranges.items() for name in names)
        check_types(config, prefix, at_most, **ranges)

    with contextlib.ExitStack() as stack:
        for module in (corridor, costs, demand, dispatch, scenario_module):
            stack.enter_context(
                mock.patch.object(module, "check_types", recording))
        Scenario()
    return rows


DECLARED_RANGES = _declared_ranges()

# values just outside each range, one past each end that it has
OUTSIDE = {
    "positive": (0, -1),
    "non_negative": (-1,),
    "at_least_1": (0,),
    "closed_unit": (-0.5, 1.5),
    "half_open_unit": (-0.5, 1.0),
    "open_unit": (0.0, 1.0),
}


def test_every_number_field_of_every_section_has_a_range():
    types = {tp for _, tp, _, _ in DECLARED_RANGES}
    assert len(types) == 9
    numbers = {(tp, f.name) for tp in types for f in dataclasses.fields(tp)
               if f.type in ("float", float, "int", int)}
    assert {(tp, name) for _, tp, _, name in DECLARED_RANGES} == numbers
    assert {kind for _, _, kind, _ in DECLARED_RANGES} == set(RANGES) \
        == set(OUTSIDE)


@pytest.mark.parametrize("prefix,tp,kind,name", DECLARED_RANGES,
                         ids=[p + n for p, _, _, n in DECLARED_RANGES])
def test_a_value_just_outside_its_range_is_refused(prefix, tp, kind, name):
    is_float = tp.__dataclass_fields__[name].type in ("float", float)
    message = "^%s must %s$" % (re.escape(prefix + name),
                                re.escape(RANGES[kind][1]))
    for value in OUTSIDE[kind]:
        with pytest.raises(ValueError, match=message):
            tp(**{name: float(value) if is_float else value})


def test_numpy_integers_are_stored_as_ints(tmp_path):
    sc = Scenario(n_vehicles=np.int64(6), n_reserved=np.int32(3),
                  seeds=SeedConfig(eval_count=np.int64(7)))
    assert type(sc.n_vehicles) is int and type(sc.n_reserved) is int
    assert sc.seeds.eval_seeds() == list(range(7))
    sc.to_yaml(tmp_path / "sc.yaml")
    assert Scenario.from_yaml(tmp_path / "sc.yaml") == sc


def test_overlapping_seed_ranges_fail_when_built():
    with pytest.raises(ValueError, match="overlap"):
        SeedConfig(train_start=50, train_count=10, eval_start=0,
                   eval_count=51)
    # adjacent ranges share no seed
    SeedConfig(train_start=50, train_count=10, eval_start=0, eval_count=50)
    SeedConfig(train_start=0, train_count=10, eval_start=10, eval_count=5)


def test_scenario_and_every_section_are_frozen():
    sc = Scenario()
    configs = [sc] + [getattr(sc, f.name) for f in dataclasses.fields(sc)
                      if dataclasses.is_dataclass(getattr(sc, f.name))]
    assert len(configs) == 9
    for cfg in configs:
        for f in dataclasses.fields(cfg):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))


@pytest.mark.parametrize("build,names", [
    (lambda: CorridorSpec(mainline_length=1000.0),
     ["corridor.segment_lengths", "corridor.mainline_length"]),
    (lambda: Scenario(rl_period=7), ["rl_period", "RL periods"]),
], ids=["segment-sum", "rl-period"])
def test_a_cross_field_error_names_its_fields(build, names):
    with pytest.raises(ValueError) as err:
        build()
    for name in names:
        assert name in str(err.value)


@pytest.mark.parametrize("name", ["full_headway", "reserved_headway",
                                  "nominal_period"])
def test_a_headway_with_too_many_departures_is_refused(name):
    # DispatchConfig alone does not know the horizon, so the scenario checks
    with pytest.raises(ValueError, match=r"horizon .* dispatch\.%s" % name):
        Scenario(dispatch=DispatchConfig(**{name: 1e-9}))
    with pytest.raises(ValueError, match=r"dispatch\.%s" % name):
        Scenario.from_dict({"dispatch": {name: 1e-9}})


@pytest.mark.parametrize("at_cap,past_cap,name", [
    ({"horizon": 50_000.0, "t_step": 0.5},
     {"horizon": 50_000.5, "t_step": 0.5}, "t_step"),
    ({"corridor": {"side_depth": 0.0, "side_spacing": 5600.0 / 1999}},
     {"corridor": {"side_depth": 0.0, "side_spacing": 5600.0 / 2000}},
     "corridor.side_spacing"),
    ({"corridor": {"segment_lengths": [1000.0, 2300.0, 2300.0]},
      "fixed_stop_spacing": 1.0},
     {"corridor": {"segment_lengths": [1000.0, 2300.0, 2300.0]},
      "fixed_stop_spacing": 0.999}, "fixed_stop_spacing"),
    ({"horizon": 6250.0, "t_step": 62.5, "dispatch": {"full_headway": 0.0625}},
     {"horizon": 6250.0, "t_step": 62.5, "dispatch": {"full_headway": 0.0624}},
     "dispatch.full_headway"),
    # 10 h at MAX_REQUESTS / 10 requests/h
    ({"horizon": 36_000.0, "demand": {"base_rate": MAX_REQUESTS / 10}},
     {"horizon": 36_000.0, "demand": {"base_rate": MAX_REQUESTS / 10 + 0.1}},
     "demand.base_rate"),
    ({"horizon": 36_000.0, "demand": {"end_rate": MAX_REQUESTS / 10}},
     {"horizon": 36_000.0, "demand": {"end_rate": MAX_REQUESTS / 10 + 0.1}},
     "demand.end_rate"),
    ({"n_vehicles": MAX_VEHICLES}, {"n_vehicles": MAX_VEHICLES + 1},
     "n_vehicles"),
    ({"seeds": {"train_count": MAX_SEEDS}},
     {"seeds": {"train_count": MAX_SEEDS + 1}}, "seeds.train_count"),
    ({"seeds": {"eval_count": MAX_SEEDS, "train_start": MAX_SEEDS}},
     {"seeds": {"eval_count": MAX_SEEDS + 1, "train_start": 2 * MAX_SEEDS}},
     "seeds.eval_count"),
    ({"ppo": {"hidden_units": MAX_HIDDEN_UNITS}},
     {"ppo": {"hidden_units": MAX_HIDDEN_UNITS + 1}}, "ppo.hidden_units"),
], ids=["steps", "nodes", "fixed-stops", "departures", "requests-base",
        "requests-end", "vehicles", "train-seeds", "eval-seeds",
        "hidden-units"])
def test_each_cap_admits_its_count_and_refuses_more(at_cap, past_cap, name):
    # built only: no network or episode of a config at a cap
    Scenario.from_dict(at_cap)
    with pytest.raises(ValueError, match=re.escape(name)):
        Scenario.from_dict(past_cap)


def _fields(data, prefix=""):
    """The dotted name of every field of ``Scenario().to_dict()``."""
    for key, value in data.items():
        if isinstance(value, dict):
            yield from _fields(value, key + ".")
        else:
            yield prefix + key


FIELDS = sorted(_fields(Scenario().to_dict()))
EDIT_VALUES = [NAN, INF, -INF, 0, -1, 1e-9, 1e12, 10**12, True, "abc"]


@given(edits=st.lists(st.tuples(st.sampled_from(FIELDS),
                                st.sampled_from(EDIT_VALUES)),
                      min_size=1, max_size=2, unique_by=lambda e: e[0]))
@settings(max_examples=400, deadline=None, derandomize=True)
# each field with a count cap, past it, whatever the draws reach
@example(edits=[("demand.base_rate", 1e12)])
@example(edits=[("demand.end_rate", 1e12)])
@example(edits=[("n_vehicles", 10**12)])
@example(edits=[("seeds.train_count", 10**12)])
@example(edits=[("seeds.eval_count", 10**12), ("seeds.eval_start", 10**12)])
@example(edits=[("ppo.hidden_units", 10**12)])
def test_an_edited_config_names_a_field_or_builds_within_the_caps(edits):
    data = Scenario().to_dict()
    for name, value in edits:
        section, _, key = name.rpartition(".")
        (data[section] if section else data)[key] = value
    try:
        sc = Scenario.from_dict(data)
    except ValueError as exc:
        assert any(re.search(r"\b%s\b" % re.escape(name), str(exc))
                   for name, _ in edits), (edits, str(exc))
        return
    # the counts by arithmetic, never by building the network or a world,
    # so that a cap that lets a huge config through fails here, not hangs
    c = sc.corridor
    assert sc.n_steps <= MAX_STEPS
    assert 1 + math.ceil(c.mainline_length / c.side_spacing) * (
        1 + math.ceil(c.side_depth / c.side_node_spacing)) <= MAX_NODES
    assert c.segment_lengths[0] // sc.fixed_stop_spacing <= MAX_FIXED_STOPS
    for headway in (sc.dispatch.full_headway, sc.dispatch.reserved_headway,
                    sc.dispatch.nominal_period):
        assert math.ceil(sc.horizon / headway) <= MAX_DEPARTURES
    d = sc.demand
    assert max(d.base_rate, d.end_rate) * sc.horizon / 3600 <= MAX_REQUESTS
    assert sc.n_vehicles <= MAX_VEHICLES
    assert max(sc.seeds.train_count, sc.seeds.eval_count) <= MAX_SEEDS
    assert sc.ppo.hidden_units <= MAX_HIDDEN_UNITS
