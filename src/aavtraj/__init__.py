"""Differentiable trajectory optimization for aerial data collection.

A deterministic MLP policy steers a vehicle that drains data backlogs
from ground users; gradients of the cumulative backlog objective are
computed exactly by reverse sweeps over the rollout tape and verified
against finite differences. Greedy and genetic-algorithm planners plus
a sweep harness round out the experiment tooling.
"""

from .adjoint import (
    GradientBundle,
    backward_closedloop,
    backward_openloop,
    cost_grad_state,
    hamiltonian,
    jacobian_control,
    jacobian_state,
)
from .baselines import (
    ConstantController,
    GaConfig,
    GreedyConfig,
    GreedyController,
    MissionMetrics,
    SequenceController,
    evaluate_policy,
    ga_optimize,
    greedy_action,
    mission_metrics,
)
from .env import (
    Control,
    NumericFailure,
    Scenario,
    ScenarioError,
    State,
    TrajectoryRecord,
    generate_scenario,
    initial_state,
    load_scenario,
    rate,
    rate_gradients,
    rates,
    rollout,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    stage_cost,
    step,
    step_kinematics,
    step_tasks,
)
from .gradcheck import make_instance, run_gradcheck, save_gradcheck_report
from .policy import (
    LayerSpec,
    PolicyController,
    PolicyParams,
    forward,
    init_params,
    load_checkpoint,
    observation_jacobian,
    observe,
    save_checkpoint,
    unpack,
    vjp,
)
from .smoothing import smoothness_grads, smoothness_penalty, wrap_angle
from .sweep import SweepSpec, aggregate, derive_seed, run_sweep
from .trainer import (
    TrainConfig,
    TrainingError,
    TrainingLog,
    clip_gradient,
    init_opt_state,
    optimizer_step,
    save_training_log,
    train,
)

__version__ = "0.1.0"
