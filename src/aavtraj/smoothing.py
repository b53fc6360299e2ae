"""Control-sequence smoothness penalty and its exact partials.

Penalizes slot-to-slot speed jumps quadratically and heading jumps
through 1 - cos(dtheta), which is 2pi-periodic so wrapped headings cost
nothing extra.
"""
from __future__ import annotations

import math

import numpy as np


def as_control_array(controls) -> np.ndarray:
    """Any (T, 2) array-like of (v, theta) rows as a (T, 2) float64 array."""
    return np.asarray(controls, dtype=np.float64).reshape(-1, 2)


def _changes(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slot-to-slot speed and heading changes of a (T, 2) array, as np.diff gives them."""
    return arr[1:, 0] - arr[:-1, 0], arr[1:, 1] - arr[:-1, 1]


def smoothness_penalty(controls, alpha: float) -> float:
    """sum_t (v_t - v_{t-1})^2 + alpha * (1 - cos(theta_t - theta_{t-1}))."""
    arr = as_control_array(controls)
    if arr.shape[0] < 2:
        return 0.0
    dv, dth = _changes(arr)
    return float((dv * dv).sum() + alpha * (1.0 - np.cos(dth)).sum())


def smoothness_grads(controls, alpha: float) -> np.ndarray:
    """(T, 2) partials of the penalty; boundary slots drop the missing

    neighbour term instead of padding.
    """
    arr = as_control_array(controls)
    t = arr.shape[0]
    grads = np.zeros((t, 2))
    if t < 2:
        return grads
    dv, dth = _changes(arr)
    dv *= 2.0
    sth = np.sin(dth)
    sth *= alpha
    grads[1:, 0] += dv
    grads[:-1, 0] -= dv
    grads[1:, 1] += sth
    grads[:-1, 1] -= sth
    return grads


def wrap_angle(a):
    """Map angles to (-pi, pi]."""
    return -((-np.asarray(a) + math.pi) % (2.0 * math.pi) - math.pi)
