"""Semi-on-demand SAV feeder corridor simulator with RL zonal dispatching."""

from .corridor import CorridorSpec, Network, Segment, build_corridor
from .costs import CostCoefficients, FeasibilityLimits
from .demand import (DemandProfile, Request, RequestState, forecast_demand,
                     generate_instance)
from .dispatch import DispatchConfig, DispatchController, PolicyKind
from .econ import RunMetrics, aggregate, generalized_cost
from .env import ZonalDispatchEnv
from .experiments import compare, run_simulation, train_rl
from .matching import match_step
from .ppo import PPOTrainer, load_checkpoint, save_checkpoint
from .scenario import PPOConfig, Scenario, build_world

__version__ = "0.1.0"
