"""Scenario configuration: every constant of the experiment in one place.

A scenario bundles corridor geometry, demand profile, fleet and cost
parameters, dispatch headways, horizon bookkeeping, observation normalization
ranges and the PPO hyperparameters.  Defaults reproduce the reference
setting; any field can be overridden from a YAML file.  A scenario and each
of its sections are frozen and checked when built, so every one that exists
is valid, and the simulation world reads its parameters from it directly.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import yaml

from .corridor import CorridorSpec, build_corridor
from .costs import CostCoefficients, FeasibilityLimits, check_types
from .demand import DemandProfile
from .dispatch import DispatchConfig
from .sim import World


# Caps on the counts that a scenario's fields set, each computed from the
# fields by arithmetic, so that a tiny step, spacing or headway fails when
# built instead of looping for hours (a day at 1 s steps is 86,400 steps).
MAX_STEPS = 100_000          # simulation steps per horizon
MAX_FIXED_STOPS = 1_000      # stops on the fixed segment
MAX_DEPARTURES = 100_000     # per horizon, of each dispatch headway or period
MAX_REQUESTS = 100_000       # candidate requests the sampler draws per horizon
# Caps on the counts that int fields set directly, each section's
# ``check_types`` ``at_most``.
MAX_VEHICLES = 1_000         # n_vehicles
MAX_SEEDS = 1_000_000        # seeds.train_count and seeds.eval_count
MAX_HIDDEN_UNITS = 1_024     # ppo.hidden_units, the width of each MLP layer
MAX_ENVS = 1_000             # ppo.n_envs, environments built per trainer
MAX_EPOCHS = 1_000           # ppo.epochs, passes over each rollout batch


@dataclass(frozen=True)
class SeedConfig:
    """Disjoint ranges of demand-instance seeds for training and
    evaluation; the counts are the run sizes."""
    train_start: int = 10_000
    train_count: int = 2_000
    eval_start: int = 0
    eval_count: int = 100

    def train_seeds(self):
        return list(range(self.train_start,
                          self.train_start + self.train_count))

    def eval_seeds(self):
        return list(range(self.eval_start, self.eval_start + self.eval_count))

    def __post_init__(self):
        check_types(self, "seeds.", non_negative=("train_start", "eval_start"),
                    at_least_1=("train_count", "eval_count"),
                    at_most={"train_count": MAX_SEEDS,
                             "eval_count": MAX_SEEDS})
        a, b = self.train_start, self.eval_start
        if max(a, b) < min(a + self.train_count, b + self.eval_count):
            raise ValueError(
                "training seeds [%d, %d) and evaluation seeds [%d, %d) "
                "overlap: move seeds.train_start or seeds.eval_start, or "
                "shrink seeds.train_count or seeds.eval_count"
                % (a, a + self.train_count, b, b + self.eval_count))


@dataclass(frozen=True)
class PPOConfig:
    clip_eps: float = 0.2
    discount: float = 0.99
    gae_lambda: float = 0.95
    minibatch_size: int = 64
    epochs: int = 10
    learning_rate: float = 0.003
    n_envs: int = 8
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    hidden_units: int = 64
    entropy_coef: float = 0.0
    normalize_advantages: bool = True
    anneal_lr: bool = True

    def __post_init__(self):
        check_types(
            self, "ppo.", open_unit=("clip_eps",),
            closed_unit=("discount", "gae_lambda"),
            half_open_unit=("adam_beta1", "adam_beta2"),
            at_least_1=("minibatch_size", "epochs", "n_envs", "hidden_units"),
            positive=("learning_rate", "adam_eps"),
            non_negative=("entropy_coef",),
            at_most={"hidden_units": MAX_HIDDEN_UNITS, "n_envs": MAX_ENVS,
                     "epochs": MAX_EPOCHS})


@dataclass(frozen=True)
class NormalizationRanges:
    """Upper ends of the observation features that no other field fixes.

    The fleet-count and flexible-commitment ranges follow from the fleet and
    the flexible window; ``ZonalDispatchEnv`` derives them.
    """
    request_cap: float = 20.0
    time_cap: float = 1800.0
    forecast_cap: float = 15.0

    def __post_init__(self):
        check_types(self, "norm.", positive=(
            "request_cap", "time_cap", "forecast_cap"))


@functools.lru_cache(maxsize=8)
def _network(spec):
    return build_corridor(spec)


@dataclass(frozen=True)
class Scenario:
    corridor: CorridorSpec = field(default_factory=CorridorSpec)
    demand: DemandProfile = field(default_factory=DemandProfile)
    limits: FeasibilityLimits = field(default_factory=FeasibilityLimits)
    coeffs: CostCoefficients = field(default_factory=CostCoefficients)
    dispatch: DispatchConfig = field(default_factory=DispatchConfig)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    seeds: SeedConfig = field(default_factory=SeedConfig)
    norm: NormalizationRanges = field(default_factory=NormalizationRanges)
    horizon: float = 10800.0
    warmup: float = 3600.0
    t_step: float = 60.0
    rl_period: int = 1            # simulation steps per RL decision
    n_vehicles: int = 8
    n_reserved: int = 4
    capacity: int = 20
    boarding_duration: float = 300.0
    dwell_base: float = 20.0
    dwell_per_pax: float = 2.0
    fixed_stop_spacing: float = 400.0

    def __post_init__(self):
        """The checks of its own fields and those that span sections; each
        section checked itself when it was built."""
        check_types(
            self, positive=("horizon", "t_step", "fixed_stop_spacing"),
            non_negative=("warmup", "n_reserved", "boarding_duration",
                          "dwell_base", "dwell_per_pax"),
            at_least_1=("rl_period", "n_vehicles", "capacity"),
            at_most={"n_vehicles": MAX_VEHICLES})
        if not self.warmup < self.horizon:
            raise ValueError("warmup must end before the horizon")
        if self.horizon / self.t_step > MAX_STEPS:
            raise ValueError("horizon %g / t_step %g gives more than %d "
                             "simulation steps"
                             % (self.horizon, self.t_step, MAX_STEPS))
        # the sampler draws candidates at the higher rate and thins them
        d = self.demand
        if max(d.base_rate, d.end_rate) * self.horizon / 3600.0 > MAX_REQUESTS:
            name = "base_rate" if d.base_rate >= d.end_rate else "end_rate"
            raise ValueError(
                "demand.%s %g requests/h over the horizon %g s gives more "
                "than %d candidate requests"
                % (name, getattr(d, name), self.horizon, MAX_REQUESTS))
        if not math.isclose(self.n_steps * self.t_step, self.horizon):
            raise ValueError("horizon %g is not a multiple of t_step %g"
                             % (self.horizon, self.t_step))
        if self.n_steps % self.rl_period:
            raise ValueError("rl_period %d does not split the %d simulation "
                             "steps into whole RL periods"
                             % (self.rl_period, self.n_steps))
        if self.n_reserved > self.n_vehicles:
            raise ValueError("n_reserved must be at most n_vehicles")
        fixed_end = self.corridor.segment_lengths[0]
        if self.fixed_stop_spacing > fixed_end:
            raise ValueError("fixed_stop_spacing must be at most %g, so that "
                             "the fixed segment has a stop" % fixed_end)
        if fixed_end / self.fixed_stop_spacing > MAX_FIXED_STOPS:
            raise ValueError(
                "corridor.segment_lengths[0] %g / fixed_stop_spacing %g gives "
                "more than %d fixed stops"
                % (fixed_end, self.fixed_stop_spacing, MAX_FIXED_STOPS))
        for name in ("full_headway", "reserved_headway", "nominal_period"):
            headway = getattr(self.dispatch, name)
            if self.horizon / headway > MAX_DEPARTURES:
                raise ValueError(
                    "horizon %g / dispatch.%s %g gives more than %d "
                    "departures" % (self.horizon, name, headway,
                                    MAX_DEPARTURES))

    # a built scenario is valid; this re-runs its own checks for callers
    # that ask
    validate = __post_init__

    @property
    def n_steps(self):
        return int(round(self.horizon / self.t_step))

    def network(self):
        """The corridor network, shared by every scenario with this spec."""
        return _network(self.corridor)

    # ---- serialization -----------------------------------------------------

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["corridor"]["segment_lengths"] = list(d["corridor"]["segment_lengths"])
        return d

    def to_yaml(self, path):
        with open(path, "w") as f:
            yaml.safe_dump(self.to_dict(), f, sort_keys=False)

    @classmethod
    def from_dict(cls, data):
        """A scenario from parsed YAML: a mapping of top-level fields and
        sections, each section a mapping of its own fields."""
        def fields_of(tp, sub, section=None):
            """``sub`` as keyword arguments of ``tp``: known fields only.
            Each section checks its field types itself (YAML reads ``abc``
            or ``1e3`` as text, ``yes`` as true)."""
            where = ("scenario section %r" % section if section
                     else "the scenario")
            if not isinstance(sub, dict):
                raise ValueError("%s must be a mapping of fields, not %r"
                                 % (where, sub))
            for key in sub:
                if key not in tp.__dataclass_fields__:
                    raise ValueError("unknown field %r in %s" % (key, where))
            return dict(sub)

        nested = {
            "corridor": CorridorSpec, "demand": DemandProfile,
            "limits": FeasibilityLimits, "coeffs": CostCoefficients,
            "dispatch": DispatchConfig, "ppo": PPOConfig,
            "seeds": SeedConfig, "norm": NormalizationRanges,
        }
        kwargs = fields_of(cls, {} if data is None else data)
        for key in nested.keys() & kwargs.keys():
            sub = {} if kwargs[key] is None else kwargs[key]
            kwargs[key] = nested[key](**fields_of(nested[key], sub, key))
        return cls(**kwargs)

    @classmethod
    def from_yaml(cls, path):
        with open(path) as f:
            data = yaml.safe_load(f)
        return cls.from_dict(data)


def build_world(scenario, policy_kind, seed, net=None):
    """Fresh world with a newly generated demand instance for one episode."""
    from .demand import generate_instance
    if net is None:
        net = scenario.network()
    requests = generate_instance(net, scenario.demand, scenario.horizon, seed)
    return World(net, scenario, requests,
                 fixed_only=policy_kind.fixed_only,
                 split_fleet=policy_kind.split_fleet)
