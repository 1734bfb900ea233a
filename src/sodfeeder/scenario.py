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
import numbers
import operator
from dataclasses import dataclass, field

import yaml

from .corridor import CorridorSpec, build_corridor
from .costs import CostCoefficients, FeasibilityLimits
from .demand import DemandProfile
from .dispatch import DispatchConfig
from .sim import World


def _check_ints(config, prefix=""):
    """Make each field of ``config`` declared ``int`` a plain int.

    A field takes what ``operator.index`` accepts, so numpy integers pass;
    anything else, such as 2.5, raises a ``ValueError`` naming the field.
    """
    for f in dataclasses.fields(config):
        if f.type not in ("int", int):
            continue
        value = getattr(config, f.name)
        try:
            object.__setattr__(config, f.name, operator.index(value))
        except TypeError:
            raise ValueError("%s%s must be an integer, not %r"
                             % (prefix, f.name, value)) from None


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
        _check_ints(self, "seeds.")
        for name in ("train_start", "eval_start"):
            if not getattr(self, name) >= 0:
                raise ValueError("seeds.%s must be non-negative" % name)
        for name in ("train_count", "eval_count"):
            if not getattr(self, name) >= 1:
                raise ValueError("seeds.%s must be at least 1" % name)
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
        _check_ints(self, "ppo.")
        if not 0 < self.clip_eps < 1:
            raise ValueError("ppo.clip_eps must lie in (0, 1)")
        for name in ("discount", "gae_lambda"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError("ppo.%s must lie in [0, 1]" % name)
        for name in ("adam_beta1", "adam_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError("ppo.%s must lie in [0, 1)" % name)
        for name in ("minibatch_size", "epochs", "n_envs", "hidden_units"):
            if not getattr(self, name) >= 1:
                raise ValueError("ppo.%s must be at least 1" % name)
        for name in ("learning_rate", "adam_eps"):
            if not getattr(self, name) > 0:
                raise ValueError("ppo.%s must be positive" % name)
        if not self.entropy_coef >= 0:
            raise ValueError("ppo.entropy_coef must be non-negative")


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
        for name in ("request_cap", "time_cap", "forecast_cap"):
            if not getattr(self, name) > 0:
                raise ValueError("norm.%s must be positive" % name)


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
        """The checks that span fields; each section checked itself when it
        was built."""
        _check_ints(self)
        for name in ("horizon", "t_step"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError("%s must be positive and finite" % name)
        if not 0 <= self.warmup < self.horizon:
            raise ValueError("warmup must lie inside the horizon")
        if not math.isclose(self.n_steps * self.t_step, self.horizon):
            raise ValueError("horizon %g is not a multiple of t_step %g"
                             % (self.horizon, self.t_step))
        if not self.rl_period >= 1 or self.n_steps % self.rl_period:
            raise ValueError("the %d simulation steps do not split into RL "
                             "periods of %d" % (self.n_steps, self.rl_period))
        for name in ("n_vehicles", "capacity"):
            if not getattr(self, name) >= 1:
                raise ValueError("%s must be at least 1" % name)
        if not 0 <= self.n_reserved <= self.n_vehicles:
            raise ValueError("n_reserved must lie in [0, n_vehicles]")
        for name in ("boarding_duration", "dwell_base", "dwell_per_pax"):
            if not getattr(self, name) >= 0:
                raise ValueError("%s must be non-negative" % name)
        fixed_end = self.corridor.segment_lengths[0]
        if not 0 < self.fixed_stop_spacing <= fixed_end:
            raise ValueError("fixed_stop_spacing must lie in (0, %g], the "
                             "fixed segment, so that it has a stop"
                             % fixed_end)

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
            """``sub`` as keyword arguments of ``tp``: known fields only, and
            a number for each ``float`` field (YAML reads ``abc`` or ``1e3``
            as text)."""
            where = ("scenario section %r" % section if section
                     else "the scenario")
            if not isinstance(sub, dict):
                raise ValueError("%s must be a mapping of fields, not %r"
                                 % (where, sub))
            for key, value in sub.items():
                f = tp.__dataclass_fields__.get(key)
                if f is None:
                    raise ValueError("unknown field %r in %s" % (key, where))
                if (f.type in ("float", float)
                        and not isinstance(value, numbers.Real)):
                    raise ValueError("%s%s must be a number, not %r"
                                     % (section + "." if section else "",
                                        key, value))
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
