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
    rate_gradients_of_offsets,
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
    return _state_jacobians(masks, rate_gradients(positions, scn), scn)


def _state_jacobians(masks: np.ndarray, rate_grads: np.ndarray, scn: Scenario) -> np.ndarray:
    """state_jacobians from the rate gradients (T, K, 2) at the pre-step positions."""
    t_len, k = masks.shape
    n = 2 + k
    jac = np.zeros((t_len, n, n))
    flat = jac.reshape(t_len, n * n)
    flat[:, : 2 * n : n + 1] = 1.0  # the position rows
    flat[:, 2 * (n + 1) :: n + 1] = masks  # the backlog rows' diagonal
    np.multiply((-masks * scn.tau)[:, :, None], rate_grads, out=jac[:, 2:, :2])
    return jac


def control_jacobians(controls: np.ndarray, scn: Scenario) -> np.ndarray:
    """d next_state / d control of every (v, theta) row of controls, as

    (T, 2+K, 2); backlog rows are zero because the drain rate uses the
    pre-step position. The entries are tau * (cos, sin) and, for the
    heading, (-v * tau * sin, v * tau * cos), multiplied out left to right.
    """
    v, theta = controls[:, 0], controls[:, 1]
    c, s = np.cos(theta), np.sin(theta)
    jac = np.zeros((controls.shape[0], 2 + scn.k, 2))
    tau = scn.tau
    np.multiply(c, tau, out=jac[:, 0, 0])
    np.multiply(s, tau, out=jac[:, 1, 0])
    vt = v * tau
    np.multiply(vt, c, out=jac[:, 1, 1])
    np.negative(v, out=vt)
    vt *= tau
    np.multiply(vt, s, out=jac[:, 0, 1])
    return jac


def cost_gradients(positions: np.ndarray, scn: Scenario) -> np.ndarray:
    """Gradient of the stage cost in the state at every row of positions

    (N, 2), as (N, 2+K); the distance term takes the zero subgradient
    when the vehicle sits exactly on a user.
    """
    diff = positions[:, None, :] - scn.user_positions
    return _cost_gradients(diff, np.sum(diff * diff, axis=2), scn)


def _cost_gradients(diff: np.ndarray, d2: np.ndarray, scn: Scenario) -> np.ndarray:
    """cost_gradients from the offsets q - w_i (N, K, 2) and their squared lengths (N, K)."""
    grad = np.empty((diff.shape[0], 2 + scn.k))
    grad[:, 2:] = 1.0
    if scn.dist_weight > 0.0:
        dist = np.sqrt(d2)
        units = np.zeros_like(diff)
        np.divide(diff, dist[:, :, None], out=units, where=(dist > 0.0)[:, :, None])
        np.multiply(np.sum(units, axis=1), scn.dist_weight, out=grad[:, :2])
    else:
        grad[:, :2] = 0.0
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
    # the vehicle-to-user offsets of every visited state, shared by the
    # rate gradients (pre-step rows) and the stage-cost gradients (all rows)
    diff = traj.positions[:, None, :] - scn.user_positions
    d2 = np.sum(diff * diff, axis=2)
    m_mats = _state_jacobians(traj.active_masks, rate_gradients_of_offsets(diff[:-1], d2[:-1], scn), scn)
    m_mats += b_mats @ du_dx
    lam = _cost_gradients(diff, d2, scn)  # rows 0..T-1 start as e_t, row T is lam_T
    lam[0] = 0.0  # the initial state carries no cost term
    s_grads = np.zeros((t_len, 2))
    if beta != 0.0:
        s_grads = beta * smoothness_grads(controls, alpha)
        lam[:-1] += np.einsum("ti,tij->tj", s_grads, du_dx)
    for t in range(t_len - 1, -1, -1):
        lam[t] += lam[t + 1] @ m_mats[t]
    if not np.isfinite(lam[:-1]).all():
        bad = np.flatnonzero(~np.isfinite(lam[:-1]).all(axis=1))
        raise NumericFailure(int(bad[-1]), "backward")  # the first step the sweep reaches

    action_grads = np.einsum("tij,ti->tj", b_mats, lam[1:]) + s_grads
    param_grad, _ = pullback(layers, acts, slopes * action_grads)
    if not np.isfinite(param_grad).all():
        raise NumericFailure(0, "backward")
    return GradientBundle(action_grads, param_grad, j_task, j_smooth, j_total)
