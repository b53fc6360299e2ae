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
    head_slopes,
    input_jacobians,
    observation_jacobian,
    observations,
    observe,
    pullback,
    unpack,
    vjp,  # not called here, like observe: perfbench/tracing.py wraps both under these names
)
from .smoothing import smoothness_grads, smoothness_penalty


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
    """Reverse sweep of the full training objective through the policy,

    written as the discrete adjoint recurrence of the closed loop.

    The policy's forward pass is recomputed from the tape's states in one
    batched pass, and the headings it gives must be the tape's bit for
    bit, so the tape must come from rolling out these parameter values.
    With the forward pass known, the sweep is linear in the costate:
    lam_t = M_t^T lam_{t+1} + e_t, where M_t = A_t + B_t du_dx_t chains the
    state Jacobian with the control law (du_dx_t = diag(h_t) J_t O: head
    slope, policy input Jacobian, observation Jacobian) and e_t is the
    stage-cost gradient plus du_dx_t^T of the smoothness partials. Every
    M_t and e_t is built for the whole tape at once; only the T mat-vecs of
    the recurrence run in sequence. The action gradients and the one
    batched policy pullback of the parameter gradient follow from the
    costates.
    """
    t_len = _check_record(traj)
    controls = traj.controls
    j_task = traj.task_cost()
    j_smooth = smoothness_penalty(controls, alpha)
    j_total = j_task + beta * j_smooth
    if t_len == 0:
        return GradientBundle(np.zeros((0, 2)), np.zeros(params.flat.size), j_task, j_smooth, j_total)

    layers = unpack(params)
    acts = activations(layers, observations(traj.positions[:-1], traj.backlogs[:-1], scn))
    if not np.array_equal(acts[-1][:, 1], controls[:, 1]):
        raise ScenarioError("trajectory record was rolled out with different params")
    slopes = head_slopes(acts[-1], params.v_max)
    du_dx = input_jacobians(layers, acts, slopes) @ observation_jacobian(scn)
    b_mats = control_jacobians(controls, scn)
    m_mats = state_jacobians(traj.positions[:-1], traj.active_masks, scn)
    m_mats += b_mats @ du_dx
    lam = cost_gradients(traj.positions, scn)  # rows 0..T-1 start as e_t, row T is lam_T
    lam[0] = 0.0  # the initial state carries no cost term
    s_grads = np.zeros((t_len, 2))
    if beta != 0.0:
        s_grads = beta * smoothness_grads(controls, alpha)
        lam[:-1] += np.einsum("ti,tij->tj", s_grads, du_dx)
    for t in range(t_len - 1, -1, -1):
        lam[t] += lam[t + 1] @ m_mats[t]
    bad = np.flatnonzero(~np.isfinite(lam[:-1]).all(axis=1))
    if bad.size:
        raise NumericFailure(int(bad[-1]), "backward")  # the first step the sweep reaches

    action_grads = np.einsum("tij,ti->tj", b_mats, lam[1:]) + s_grads
    param_grad, _ = pullback(layers, acts, slopes * action_grads)
    if not np.all(np.isfinite(param_grad)):
        raise NumericFailure(0, "backward")
    return GradientBundle(action_grads, param_grad, j_task, j_smooth, j_total)
