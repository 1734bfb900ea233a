"""Scenario configuration: every constant of the experiment in one place.

A scenario bundles corridor geometry, demand profile, fleet and cost
parameters, dispatch headways, horizon bookkeeping, observation normalization
ranges and the PPO hyperparameters.  Defaults reproduce the reference
setting; any field can be overridden from a YAML file.  A scenario is frozen,
and the simulation world reads its parameters from it directly.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import yaml

from .corridor import CorridorSpec, build_corridor
from .costs import CostCoefficients, FeasibilityLimits
from .demand import DemandProfile
from .dispatch import DispatchConfig
from .sim import World


@dataclass
class SeedConfig:
    train_start: int = 10_000
    train_count: int = 2_000
    eval_start: int = 0
    eval_count: int = 100

    def train_seeds(self, count=None):
        n = count if count is not None else self.train_count
        return list(range(self.train_start, self.train_start + n))

    def eval_seeds(self, count=None):
        n = count if count is not None else self.eval_count
        return list(range(self.eval_start, self.eval_start + n))

    def validate(self):
        train = set(self.train_seeds())
        if train & set(self.eval_seeds()):
            raise ValueError("training and evaluation seed sets overlap")


@dataclass
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

    def validate(self):
        if not 0 < self.clip_eps < 1:
            raise ValueError("clip_eps must lie in (0, 1)")
        if not 0 <= self.discount <= 1 or not 0 <= self.gae_lambda <= 1:
            raise ValueError("discount and gae_lambda must lie in [0, 1]")


@dataclass
class NormalizationRanges:
    """Upper ends of the observation features that no other field fixes.

    The fleet-count and flexible-commitment ranges follow from the fleet and
    the flexible window; ``ZonalDispatchEnv`` derives them.
    """
    request_cap: float = 20.0
    time_cap: float = 1800.0
    forecast_cap: float = 15.0


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

    def validate(self):
        self.corridor.validate()
        self.demand.validate()
        self.limits.validate()
        self.coeffs.validate()
        self.dispatch.validate()
        self.ppo.validate()
        self.seeds.validate()
        if self.horizon <= 0 or self.t_step <= 0:
            raise ValueError("horizon and t_step must be positive")
        if not 0 <= self.warmup < self.horizon:
            raise ValueError("warmup must lie inside the horizon")
        if not math.isclose(self.n_steps * self.t_step, self.horizon):
            raise ValueError("horizon %g is not a multiple of t_step %g"
                             % (self.horizon, self.t_step))
        if self.rl_period < 1 or self.n_steps % self.rl_period:
            raise ValueError("the %d simulation steps do not split into RL "
                             "periods of %d" % (self.n_steps, self.rl_period))
        if self.n_vehicles < 1:
            raise ValueError("n_vehicles must be at least 1")
        if self.n_reserved > self.n_vehicles:
            raise ValueError("reserved fleet exceeds total fleet")

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
        def build(section, tp, sub):
            kwargs = dict(sub or {})
            for key in kwargs:
                if key not in tp.__dataclass_fields__:
                    raise ValueError("unknown field %r in scenario section %r"
                                     % (key, section))
            if tp is CorridorSpec and "segment_lengths" in kwargs:
                kwargs["segment_lengths"] = tuple(kwargs["segment_lengths"])
            return tp(**kwargs)

        nested = {
            "corridor": CorridorSpec, "demand": DemandProfile,
            "limits": FeasibilityLimits, "coeffs": CostCoefficients,
            "dispatch": DispatchConfig, "ppo": PPOConfig,
            "seeds": SeedConfig, "norm": NormalizationRanges,
        }
        kwargs = {}
        for key, value in (data or {}).items():
            if key in nested:
                kwargs[key] = build(key, nested[key], value)
            elif key in cls.__dataclass_fields__:
                kwargs[key] = value
            else:
                raise ValueError("unknown scenario field %r" % key)
        sc = cls(**kwargs)
        sc.validate()
        return sc

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
