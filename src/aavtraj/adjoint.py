"""Exact reverse-mode gradients of the rollout objective.

Both sweeps walk a recorded trajectory tape backwards with explicit
co-state algebra; no general-purpose autodiff is involved, so every
intermediate is inspectable. The open-loop sweep treats the recorded
controls as free variables and yields the classic costate recursion
plus per-step action gradients. The closed-loop sweep additionally
chains through the control law, which is what makes its parameter
gradient match finite differences of the training objective.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import (
    Control,
    NumericFailure,
    Scenario,
    ScenarioError,
    State,
    TrajectoryRecord,
    rate_gradients,
    stage_cost,
    step,
)
from .policy import (
    PolicyParams,
    activations,
    add_param_grads,
    backprop,
    head_cotangent,
    observation_jacobian,
    observations,
    observe,
    unpack,
    vjp,  # not called here, like observe: perfbench/tracing.py wraps both under these names
)
from .smoothing import smoothness_grads, smoothness_penalty

SWEEP_BLOCK = 8  # closed-loop sweep steps whose parameter gradients are formed together


def state_jacobians(positions: np.ndarray, masks: np.ndarray, scn: Scenario) -> np.ndarray:
    """d next_state / d state of every step, (T, 2+K, 2+K), from the

    pre-step positions (T, 2) and the recorded clamp masks (T, K).

    Block structure: the position rows are the identity (position does
    not feed back on itself beyond translation), clamped backlog rows
    are zero, active backlog rows couple to position through the rate
    gradient at the pre-step position.
    """
    t_len, k = masks.shape
    jac = np.zeros((t_len, 2 + k, 2 + k))
    jac[:, 0, 0] = 1.0
    jac[:, 1, 1] = 1.0
    jac[:, 2:, :2] = -masks[:, :, None] * scn.tau * rate_gradients(positions, scn)
    users = np.arange(2, 2 + k)
    jac[:, users, users] = masks
    return jac


def control_jacobians(controls: np.ndarray, scn: Scenario) -> np.ndarray:
    """d next_state / d control of every (v, theta) row of controls, as

    (T, 2+K, 2); backlog rows are zero because the drain rate uses the
    pre-step position.
    """
    v, theta = controls[:, 0], controls[:, 1]
    c, s = np.cos(theta), np.sin(theta)
    jac = np.zeros((controls.shape[0], 2 + scn.k, 2))
    jac[:, 0, 0] = scn.tau * c
    jac[:, 1, 0] = scn.tau * s
    jac[:, 0, 1] = -v * scn.tau * s
    jac[:, 1, 1] = v * scn.tau * c
    return jac


def cost_gradients(positions: np.ndarray, scn: Scenario) -> np.ndarray:
    """Gradient of the stage cost in the state at every row of positions

    (N, 2), as (N, 2+K); the distance term takes the zero subgradient
    when the vehicle sits exactly on a user.
    """
    grad = np.zeros((positions.shape[0], 2 + scn.k))
    grad[:, 2:] = 1.0
    if scn.dist_weight > 0.0:
        diff = positions[:, None, :] - scn.user_positions
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        nonzero = dist > 0.0
        units = np.zeros_like(diff)
        units[nonzero] = diff[nonzero] / dist[nonzero, None]
        grad[:, :2] = scn.dist_weight * np.sum(units, axis=1)
    return grad


# single-step forms, for a caller holding one State; perfbench/tracing.py wraps these names


def jacobian_state(x: State, u: Control, mask: np.ndarray, scn: Scenario) -> np.ndarray:
    """state_jacobians of the single step (x, u) with clamp mask."""
    return state_jacobians(x.q[None], np.asarray(mask, dtype=np.float64).reshape(1, scn.k), scn)[0]


def jacobian_control(x: State, u: Control, scn: Scenario) -> np.ndarray:
    """control_jacobians of the single control u."""
    return control_jacobians(np.array([[u.v, u.theta]]), scn)[0]


def cost_grad_state(x: State, scn: Scenario) -> np.ndarray:
    """cost_gradients at the single state x."""
    return cost_gradients(x.q[None], scn)[0]


def _check_record(traj: TrajectoryRecord) -> int:
    t = traj.steps
    if (
        traj.positions.shape[0] != t + 1
        or traj.backlogs.shape[0] != t + 1
        or traj.active_masks.shape[0] != t
        or traj.stage_costs.shape[0] != t
    ):
        raise ScenarioError("trajectory record has inconsistent lengths")
    return t


def backward_openloop(traj: TrajectoryRecord, scn: Scenario) -> tuple[list, np.ndarray]:
    """Costate recursion over the tape with the controls held as free

    variables. Returns (costates, action_grads): costates[t] is the total
    derivative of the task cost in states[t] (length T+1) and
    action_grads[t] = B_t^T costate[t+1] is d J / d u_t (shape (T, 2)).
    The initial state carries no direct cost term, so costates[0] is the
    pure dynamics pullback.
    """
    t_len = _check_record(traj)
    n = 2 + scn.k
    if t_len == 0:
        return [np.zeros(n)], np.zeros((0, 2))
    b_mats = control_jacobians(traj.controls, scn)
    a_mats = state_jacobians(traj.positions[:-1], traj.active_masks, scn)
    cost_grads = cost_gradients(traj.positions, scn)
    lam = cost_grads[t_len]
    costates = [lam]
    grads = np.zeros((t_len, 2))
    for t in range(t_len - 1, -1, -1):
        grads[t] = b_mats[t].T @ lam
        lam = a_mats[t].T @ lam
        if t >= 1:
            lam = lam + cost_grads[t]
        costates.append(lam)
    costates.reverse()
    return costates, grads


def hamiltonian(x: State, u: Control, lam_next: np.ndarray, scn: Scenario) -> float:
    """Stage cost plus the costate-weighted transition, the scalar whose

    control derivative the action gradients realize.
    """
    lam_next = np.asarray(lam_next, dtype=np.float64).reshape(2 + scn.k)
    x_next, _ = step(x, u, scn)
    return stage_cost(x, scn) + float(lam_next @ x_next.as_vector())


@dataclass
class GradientBundle:
    """Everything the optimizer needs from one reverse sweep."""

    action_grads: np.ndarray
    param_grad: np.ndarray
    j_task: float
    j_smooth: float
    j_total: float


def backward_closedloop(
    traj: TrajectoryRecord,
    params: PolicyParams,
    scn: Scenario,
    beta: float = 0.0,
    alpha: float = 1e-3,
) -> GradientBundle:
    """Reverse sweep of the full training objective through the policy.

    The policy's forward pass is recomputed from the tape's states in one
    batched pass, and the headings it gives must be the tape's bit for
    bit, so the tape must come from rolling out these parameter values;
    the per-step Jacobians are built for the whole tape before the sweep.
    Unlike the open-loop sweep, the costate here also flows backwards
    through the control law (observation Jacobian composed with the
    policy VJP), and the smoothness partials enter each action gradient
    directly.
    """
    t_len = _check_record(traj)
    p = params.flat.size
    controls = traj.controls
    j_task = traj.task_cost()
    j_smooth = smoothness_penalty(controls, alpha)
    j_total = j_task + beta * j_smooth
    if t_len == 0:
        return GradientBundle(np.zeros((0, 2)), np.zeros(p), j_task, j_smooth, j_total)

    layers = unpack(params)
    acts = activations(layers, observations(traj.positions[:-1], traj.backlogs[:-1], scn))
    if not np.array_equal(acts[-1][:, 1], controls[:, 1]):
        raise ScenarioError("trajectory record was rolled out with different params")
    heads = acts[-1][:, 0].tolist()
    s_grads = smoothness_grads(controls, alpha) if beta != 0.0 else np.zeros((t_len, 2))
    obs_jac = observation_jacobian(scn)
    b_mats = control_jacobians(controls, scn)
    a_mats = state_jacobians(traj.positions[:-1], traj.active_masks, scn)
    cost_grads = cost_gradients(traj.positions, scn)
    param_grad = np.zeros(p)
    action_grads = np.zeros((t_len, 2))

    lam = cost_grads[t_len]
    # The sweep runs in blocks of SWEEP_BLOCK steps, the last block first.
    # After each block, its steps' parameter gradients join the sum in sweep
    # order (t = T-1 first), so only one block of them is held at a time.
    for hi in range(t_len, 0, -SWEEP_BLOCK):
        lo = max(hi - SWEEP_BLOCK, 0)
        slopes = [1.0 - a[lo:hi] ** 2 for a in acts[1:-1]]  # per block: no second tape-sized copy
        cotangents = []
        for t in range(hi - 1, lo - 1, -1):
            g_u = b_mats[t].T @ lam + beta * s_grads[t]
            action_grads[t] = g_u
            delta = head_cotangent(g_u, heads[t], params.v_max)
            step_cotangents, o_grad = backprop(layers, [s[t - lo] for s in slopes], delta)
            cotangents.append(step_cotangents)
            lam = a_mats[t].T @ lam + obs_jac.T @ o_grad
            if t >= 1:
                lam = lam + cost_grads[t]
            if not np.isfinite(lam).all():
                raise NumericFailure(t, "backward")
        add_param_grads(
            param_grad,
            params.spec,
            [np.array(rows) for rows in zip(*cotangents)],
            [a[lo:hi][::-1] for a in acts[:-1]],
        )

    if not np.all(np.isfinite(param_grad)):
        raise NumericFailure(0, "backward")
    return GradientBundle(action_grads, param_grad, j_task, j_smooth, j_total)
