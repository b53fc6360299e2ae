"""Exact reverse-mode gradients of the rollout objective.

Both sweeps run one discrete adjoint recurrence (_costates) backwards
over a recorded trajectory tape, with explicit costate algebra and no
general-purpose autodiff, so every intermediate is inspectable. The
open-loop sweep holds the recorded controls as free variables; the
closed-loop sweep also chains through the control law, which is what
makes its parameter gradient match finite differences of the objective.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .env import (
    Control,
    NumericFailure,
    Scenario,
    ScenarioError,
    State,
    TrajectoryRecord,
    rate_gradients_of_offsets,
)
from .policy import (
    PolicyParams,
    SweepScratch,
    control_law_pass,
    observe,
    vjp,  # not called here, like observe: perfbench/tracing.py wraps both under these names
)
from .smoothing import smoothness_grads, smoothness_penalty


def state_jacobians(masks: np.ndarray, rate_grads: np.ndarray, scn: Scenario,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """d next_state / d state of every step, (T, 2+K, 2+K), from the

    recorded clamp masks (T, K) and the rate gradients (T, K, 2) at the
    pre-step positions, written into out when given.

    Block structure: the position rows are the identity (position does
    not feed back on itself beyond translation), clamped backlog rows
    are zero, active backlog rows couple to position through the rate
    gradient at the pre-step position.
    """
    t_len, k = masks.shape
    n = 2 + k
    if out is None:
        jac = np.zeros((t_len, n, n))
    else:
        jac = out
        jac[...] = 0.0
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


def cost_gradients(diff: np.ndarray, d2: np.ndarray, scn: Scenario) -> np.ndarray:
    """Gradient of the stage cost in the state at N positions, as (N, 2+K),

    from their offsets q - w_i (N, K, 2) and squared lengths (N, K); the
    distance term takes the zero subgradient when the vehicle sits
    exactly on a user.
    """
    grad = np.zeros((diff.shape[0], 2 + scn.k))
    grad[:, 2:] = 1.0
    if scn.dist_weight > 0.0:
        dist = np.sqrt(d2)
        units = np.zeros_like(diff)
        np.divide(diff, dist[:, :, None], out=units, where=(dist > 0.0)[:, :, None])
        np.multiply(np.sum(units, axis=1), scn.dist_weight, out=grad[:, :2])
    return grad


# single-step forms, for a caller holding one State; perfbench/tracing.py wraps these names


def jacobian_state(x: State, u: Control, mask: np.ndarray, scn: Scenario) -> np.ndarray:
    """state_jacobians of the single step (x, u) with clamp mask."""
    mask = np.asarray(mask, dtype=np.float64).reshape(1, scn.k)
    diff = x.q[None, None, :] - scn.user_positions
    return state_jacobians(mask, rate_gradients_of_offsets(diff, np.sum(diff * diff, axis=2), scn), scn)[0]


def jacobian_control(x: State, u: Control, scn: Scenario) -> np.ndarray:
    """control_jacobians of the single control u."""
    return control_jacobians(np.array([[u.v, u.theta]]), scn)[0]


def cost_grad_state(x: State, scn: Scenario) -> np.ndarray:
    """cost_gradients at the single state x."""
    diff = x.q[None, None, :] - scn.user_positions
    return cost_gradients(diff, np.sum(diff * diff, axis=2), scn)[0]


def _check_record(traj: TrajectoryRecord, scn: Scenario) -> None:
    """Raise ScenarioError naming the first field whose shape does not fit a tape of scn."""
    t, k = traj.steps, scn.k
    for name, want in (("positions", (t + 1, 2)), ("backlogs", (t + 1, k)), ("controls", (t, 2)),
                       ("active_masks", (t, k)), ("stage_costs", (t,))):
        got = getattr(traj, name).shape
        if got != want:
            raise ScenarioError(f"trajectory record field {name!r} has shape {got}, want {want} for K={k}")


def _costates(traj: TrajectoryRecord, scn: Scenario, du_dx: Optional[np.ndarray],
              extra: Optional[np.ndarray], scratch: Optional[SweepScratch] = None) -> tuple[np.ndarray, np.ndarray]:
    """The discrete adjoint recurrence lam_t = M_t^T lam_{t+1} + e_t over a

    checked tape, from lam_T, the stage-cost gradient at the last state.
    M_t = A_t + B_t du_dx_t chains the state Jacobian with the control
    law's Jacobian du_dx (T, 2, 2+K); e_t is the stage-cost gradient (zero
    at t = 0) plus the rows extra (T, 2+K). Free controls have neither
    (None). M_t and e_t are built for the whole tape at once, in
    scratch.matrices when given; only the T mat-vecs run in sequence, over
    row views. Returns lam (T+1, 2+K) and B (T, 2+K, 2), new arrays.
    """
    t_len, n = traj.steps, 2 + scn.k
    b_mats = control_jacobians(traj.controls, scn)
    # the vehicle-to-user offsets of every visited state, shared by the
    # rate gradients (pre-step rows) and the stage-cost gradients (all rows)
    diff = traj.positions[:, None, :] - scn.user_positions
    d2 = np.sum(diff * diff, axis=2)
    m_out, prod = (None, None) if scratch is None else scratch.matrices(t_len)
    m_mats = state_jacobians(traj.active_masks, rate_gradients_of_offsets(diff[:-1], d2[:-1], scn), scn, m_out)
    if du_dx is not None:
        m_mats += np.matmul(b_mats, du_dx, out=prod)
    lam = cost_gradients(diff, d2, scn)  # rows 0..T-1 start as e_t, row T is lam_T
    lam[0] = 0.0
    if extra is not None:
        lam[:-1] += extra
    tmp, later = np.empty(n), lam[-1]
    for row, m in zip(lam[-2::-1], m_mats[::-1]):  # row views of steps T-1..0
        row += later.dot(m, tmp)  # later @ m, in one call: the routine without its dispatcher
        later = row
    if not np.isfinite(lam[:-1]).all():
        bad = np.flatnonzero(~np.isfinite(lam[:-1]).all(axis=1))
        raise NumericFailure(int(bad[-1]), "backward")  # the first step the sweep reaches
    return lam, b_mats


def backward_openloop(traj: TrajectoryRecord, scn: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The adjoint recurrence with the controls held as free variables

    (M_t = A_t). Returns (costates, action_grads): costates[t] (T+1, 2+K)
    is the total derivative of the task cost in state t, the pure dynamics
    pullback at t = 0, and action_grads[t] = B_t^T costates[t+1] (T, 2) is
    d J / d u_t.
    """
    _check_record(traj, scn)
    lam, b_mats = _costates(traj, scn, None, None)
    return lam, np.matmul(lam[1:, None, :], b_mats)[:, 0]


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

    policy.control_law_pass gives the control law's Jacobian du_dx_t, from
    the tape's recorded forward pass or a recompute (the tape must come
    from rolling out these parameter values), which enters the adjoint
    recurrence (_costates) with du_dx_t^T of the smoothness partials as
    extra e_t rows. The action gradients follow from the costates, and
    the parameter gradient is their policy pullback; the bundle's arrays
    are new ones.
    """
    _check_record(traj, scn)  # before the forward pass, which reads the tape too
    controls = traj.controls
    j_task = traj.task_cost()
    j_smooth = smoothness_penalty(controls, alpha)
    j_total = j_task + beta * j_smooth

    du_dx, scratch, param_pullback = control_law_pass(traj, params, scn)
    s_grads, extra = np.zeros(controls.shape), None
    if beta != 0.0:
        s_grads = beta * smoothness_grads(controls, alpha)
        extra = np.einsum("ti,tij->tj", s_grads, du_dx)
    lam, b_mats = _costates(traj, scn, du_dx, extra, scratch)

    action_grads = np.einsum("tij,ti->tj", b_mats, lam[1:]) + s_grads
    param_grad = param_pullback(action_grads)
    if not np.isfinite(param_grad).all():
        raise NumericFailure(0, "backward")
    return GradientBundle(action_grads, param_grad, j_task, j_smooth, j_total)
