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


def smoothness_penalty(controls, alpha: float) -> float:
    """sum_t (v_t - v_{t-1})^2 + alpha * (1 - cos(theta_t - theta_{t-1}))."""
    arr = as_control_array(controls)
    if arr.shape[0] < 2:
        return 0.0
    dv = np.diff(arr[:, 0])
    dth = np.diff(arr[:, 1])
    return float(np.sum(dv * dv) + alpha * np.sum(1.0 - np.cos(dth)))


def smoothness_grads(controls, alpha: float) -> np.ndarray:
    """(T, 2) partials of the penalty; boundary slots drop the missing

    neighbour term instead of padding.
    """
    arr = as_control_array(controls)
    t = arr.shape[0]
    grads = np.zeros((t, 2))
    if t < 2:
        return grads
    dv = np.diff(arr[:, 0])
    sth = np.sin(np.diff(arr[:, 1]))
    grads[1:, 0] += 2.0 * dv
    grads[:-1, 0] -= 2.0 * dv
    grads[1:, 1] += alpha * sth
    grads[:-1, 1] -= alpha * sth
    return grads


def wrap_angle(a):
    """Map angles to (-pi, pi]."""
    return -((-np.asarray(a) + math.pi) % (2.0 * math.pi) - math.pi)
