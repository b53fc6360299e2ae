"""Finite-difference verification of the closed-loop parameter gradient.

Central differences of the rollout objective are compared entry by
entry against the reverse-sweep gradient. Instances are screened so no
backlog sits within a small margin of the clamp boundary anywhere on
the base trajectory; otherwise a +-h probe could flip a branch and the
comparison would be meaningless.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .adjoint import backward_closedloop
from .csvio import columns, write_csv
from .env import (Scenario, ScenarioError, TrajectoryRecord, check_int, check_positive, check_seed,
                  generate_scenario, rates, rollout)
from .policy import PolicyController, PolicyParams, init_params
from .smoothing import smoothness_penalty

# Denominator floor for relative errors: entries below the floor are in
# effect compared absolutely at floor * tol. Central differences of an
# objective J carry ~eps * |J| / (2h) of cancellation noise, so checks
# should raise the floor until that noise cannot register at the
# tolerance; see noise_floor().
REL_FLOOR = 1e-3
NOISE_SAFETY = 10.0


def relative_error(a: float, b: float, floor: float = REL_FLOOR) -> float:
    # builtin float even for numpy inputs: rows repr() into CSV cells
    return float(abs(a - b) / max(abs(a), abs(b), floor))


def noise_floor(j_value: float, h: float, tol: float, floor: float = REL_FLOOR) -> float:
    """Smallest denominator floor at which double-precision cancellation

    in a central difference of an objective of size |j_value| stays
    below tol, with a safety factor for error accumulation.
    """
    eps = np.finfo(np.float64).eps
    noise = NOISE_SAFETY * eps * max(1.0, abs(j_value)) / (2.0 * h)
    return float(max(floor, noise / tol))


def objective_value(
    params: PolicyParams, scn: Scenario, t_max: int, stop_eps: float, beta: float, alpha: float
) -> float:
    """The scalar the trainer descends, evaluated by a fresh rollout."""
    return _rolled_objective(PolicyController(params, scn), scn, t_max, stop_eps, beta, alpha)


def _rolled_objective(ctl: PolicyController, scn: Scenario, t_max: int, stop_eps: float, beta: float,
                      alpha: float) -> float:
    traj = rollout(ctl, scn, t_max, stop_eps)
    return traj.task_cost() + beta * smoothness_penalty(traj.controls, alpha)


def fd_param_gradient(
    params: PolicyParams,
    scn: Scenario,
    t_max: int,
    stop_eps: float,
    beta: float,
    alpha: float,
    h: float,
    indices: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Central differences of the objective over the given parameter

    indices (all of them by default).
    """
    idx = np.arange(params.flat.size) if indices is None else np.asarray(indices, dtype=int)
    out = np.empty(idx.size)
    # one controller rolls out every probe: its layers are views of probe.flat,
    # which holds params but for the entry being probed
    probe = replace(params, flat=params.flat.copy())
    ctl = PolicyController(probe, scn)
    for j, i in enumerate(idx):
        for sign, slot in ((+1.0, 0), (-1.0, 1)):
            probe.flat[i] = params.flat[i] + sign * h
            val = _rolled_objective(ctl, scn, t_max, stop_eps, beta, alpha)
            out[j] = val if slot == 0 else (out[j] - val) / (2.0 * h)
        probe.flat[i] = params.flat[i]
    return out


def clamp_margin(traj: TrajectoryRecord, scn: Scenario) -> float:
    """Smallest |d_i - R_i * tau| along the tape: distance to the branch

    flip of the backlog clamp.
    """
    t_len = traj.steps
    if t_len == 0:
        return np.inf
    gap = np.abs(traj.backlogs[:t_len] - rates(traj.positions[:t_len], scn) * scn.tau)
    return float(np.min(gap))


def min_positive_backlog(traj: TrajectoryRecord) -> float:
    """Smallest strictly positive backlog seen; guards the termination

    threshold against probe-induced flips.
    """
    pos = traj.backlogs[traj.backlogs > 0.0]
    return float(np.min(pos)) if pos.size else np.inf


@dataclass
class GradcheckInstance:
    scn: Scenario
    params: PolicyParams
    attempts: int


def make_instance(
    k: int,
    horizon: int,
    seed: int,
    hidden: tuple = (64, 64, 32),
    margin: float = 1e-3,
    max_attempts: int = 50,
) -> GradcheckInstance:
    """Deterministically search sub-seeds for an instance whose base

    trajectory stays clear of clamp and termination boundaries and
    spans most of the horizon. Demands are scaled with the horizon so
    fast-draining users can finish mid-trajectory (exercising the
    clamped branch) while slower ones stay active to the end.
    """
    check_seed("seed", seed)
    scale = max(1.0, 0.9 * horizon)
    for attempt in range(max_attempts):
        sub = seed * 1000 + attempt
        scn = generate_scenario(sub, k=k, demand_lo=0.5 * scale, demand_hi=1.0 * scale)
        params = init_params(sub + 1, k, hidden=hidden, v_max=scn.v_max)
        traj = rollout(PolicyController(params, scn), scn, horizon, stop_eps=1e-3)
        if (
            traj.steps >= max(1, (3 * horizon) // 4)
            and clamp_margin(traj, scn) > margin
            and min_positive_backlog(traj) > 0.01
        ):
            return GradcheckInstance(scn=scn, params=params, attempts=attempt + 1)
    raise RuntimeError(f"no clamp-safe instance found in {max_attempts} attempts (seed {seed})")


@dataclass
class GradcheckRow:
    param_index: int
    analytic: float
    finite_diff: float
    rel_err: float


@dataclass
class GradcheckReport:
    rows: list
    max_rel_err: float
    passed: bool
    k: int
    horizon: int
    seed: int
    h: float
    tol: float


def check_indices(indices: Sequence[int], n: int) -> np.ndarray:
    """indices as an int array, or a ScenarioError naming the first bad value:

    none at all, a non-integer, or one outside [0, n).
    """
    values = list(indices)
    if not values:
        raise ScenarioError(f"indices must name at least one parameter, got {indices!r}")
    for i in values:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise ScenarioError(f"parameter index {i!r} is not an integer")
        if not 0 <= i < n:
            raise ScenarioError(f"parameter index {i} outside [0, {n})")
    return np.asarray(values, dtype=int)


def run_gradcheck(
    k: int = 2,
    horizon: int = 20,
    seed: int = 0,
    h: float = 1e-6,
    tol: float = 1e-5,
    hidden: tuple = (64, 64, 32),
    beta: float = 1.0,
    alpha: float = 1e-3,
    stop_eps: float = 1e-3,
    indices: Optional[Sequence[int]] = None,
    sample: Optional[int] = None,
) -> GradcheckReport:
    """Build a clamp-safe instance and compare the reverse-sweep gradient

    against central differences, entry by entry. `indices` restricts the
    check to given parameters (at least one, each an integer in
    [0, n_params)); `sample` draws that many at random (seeded) instead,
    trading coverage for speed. A non-finite relative error fails the
    report.
    """
    for name, value in (("h", h), ("tol", tol)):
        check_positive(name, value)
    inst = make_instance(k, horizon, seed, hidden=hidden)
    traj = rollout(PolicyController(inst.params, inst.scn), inst.scn, horizon, stop_eps)
    bundle = backward_closedloop(traj, inst.params, inst.scn, beta=beta, alpha=alpha)
    n = inst.params.flat.size
    if indices is None and sample is not None:
        check_int("sample", sample, 1)
        picker = np.random.default_rng(seed)
        indices = np.sort(picker.choice(n, size=min(sample, n), replace=False))
    idx = np.arange(n) if indices is None else check_indices(indices, n)
    fd = fd_param_gradient(inst.params, inst.scn, horizon, stop_eps, beta, alpha, h, idx)
    floor = noise_floor(bundle.j_total, h, tol)
    rows = [
        GradcheckRow(int(i), float(bundle.param_grad[i]), float(fd[j]),
                     relative_error(float(bundle.param_grad[i]), float(fd[j]), floor))
        for j, i in enumerate(idx)
    ]
    worst = float(np.max([r.rel_err for r in rows], initial=0.0))  # nan propagates, and fails
    return GradcheckReport(
        rows=rows, max_rel_err=worst, passed=worst <= tol,
        k=k, horizon=horizon, seed=seed, h=h, tol=tol,
    )


GRADCHECK_COLUMNS = columns(GradcheckRow)


def save_gradcheck_report(report: GradcheckReport, path: str) -> None:
    write_csv(path, GRADCHECK_COLUMNS, map(astuple, report.rows))
