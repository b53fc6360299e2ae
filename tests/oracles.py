"""Single-step forms the package no longer carries, kept as test oracles.

Each is written from the package's step, rates and stage cost, so a test
can state a one-state fact (a clamp mask, a Jacobian column, the
Hamiltonian) without a tape.
"""
import numpy as np

from aavtraj.env import rate_gradients_of_offsets, rates, stage_cost, step


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
