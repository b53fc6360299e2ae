"""Differentiable trajectory optimization for aerial data collection.

A deterministic MLP policy steers a vehicle that drains data backlogs
from ground users; gradients of the cumulative backlog objective are
computed exactly by reverse sweeps over the rollout tape and verified
against finite differences. Greedy and genetic-algorithm planners plus
a sweep harness round out the experiment tooling.
"""

from .adjoint import GradientBundle, backward_closedloop, backward_openloop
from .baselines import (
    ConstantController,
    GaConfig,
    GreedyConfig,
    GreedyController,
    MissionMetrics,
    evaluate_policy,
    ga_optimize,
    mission_metrics,
)
from .env import (
    Control,
    NumericFailure,
    Scenario,
    ScenarioError,
    SequenceController,
    State,
    TrajectoryRecord,
    generate_scenario,
    load_scenario,
    rollout,
    save_scenario,
)
from .gradcheck import run_gradcheck, save_gradcheck_report
from .policy import PolicyController, PolicyParams, init_params, load_checkpoint, save_checkpoint
from .sweep import SweepSpec, aggregate, derive_seed, run_sweep
from .trainer import TrainConfig, TrainingError, TrainingLog, save_training_log, train

__version__ = "0.1.0"
