"""Forms the package no longer carries, kept as test oracles.

The single-step forms are written from the package's step, rates and
stage cost, so a test can state a one-state fact (a clamp mask, a
Jacobian column, the Hamiltonian) without a tape. costates_by_matmul is
the adjoint recurrence as it was written before each step became one
ndarray.dot call.
"""
import numpy as np

from aavtraj.adjoint import control_jacobians, cost_gradients, state_jacobians
from aavtraj.env import NumericFailure, rate_gradients_of_offsets, rates, stage_cost, step


def as_vector(x) -> np.ndarray:
    """The state x as one vector [q; d] of length 2 + K."""
    return np.concatenate([x.q, x.d])


def drain_mask(x, scn) -> np.ndarray:
    """The clamp mask of one step from x: 1.0 where the drained backlog

    before the clamp, d - rates(q) * tau, is above zero, else 0.0.
    """
    return (x.d - rates(x.q, scn) * scn.tau > 0.0).astype(np.float64)


def step_and_mask(x, u, scn):
    """step(x, u) and the clamp mask of that step (drain_mask)."""
    return step(x, u, scn), drain_mask(x, scn)


def rate_gradients_at(q, scn) -> np.ndarray:
    """d rate_i / d q at the single position q (2,), as (K, 2)."""
    diff = np.asarray(q, dtype=np.float64) - scn.user_positions
    return rate_gradients_of_offsets(diff, np.sum(diff * diff, axis=-1), scn)


def hamiltonian(x, u, lam_next, scn) -> float:
    """Stage cost plus the costate-weighted transition, the scalar whose

    control derivative the action gradients realize.
    """
    lam_next = np.asarray(lam_next, dtype=np.float64).reshape(2 + scn.k)
    return stage_cost(x, scn) + float(lam_next @ as_vector(step(x, u, scn)))


def costates_by_matmul(traj, scn, du_dx, extra):
    """adjoint._costates without a scratch, each step's mat-vec written

    row += later @ m: (lam, B), or NumericFailure at the first non-finite
    step the sweep reaches.
    """
    b_mats = control_jacobians(traj.controls, scn)
    diff = traj.positions[:, None, :] - scn.user_positions
    d2 = np.sum(diff * diff, axis=2)
    m_mats = state_jacobians(traj.active_masks, rate_gradients_of_offsets(diff[:-1], d2[:-1], scn), scn)
    if du_dx is not None:
        m_mats += np.matmul(b_mats, du_dx)
    lam = cost_gradients(diff, d2, scn)
    lam[0] = 0.0
    if extra is not None:
        lam[:-1] += extra
    for row, later, m in zip(lam[-2::-1], lam[:0:-1], m_mats[::-1]):
        row += later @ m
    if not np.isfinite(lam[:-1]).all():
        raise NumericFailure(int(np.flatnonzero(~np.isfinite(lam[:-1]).all(axis=1))[-1]), "backward")
    return lam, b_mats
