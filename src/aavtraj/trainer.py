"""Gradient-descent training of the control law on a single scenario.

Each iteration rolls the current policy out, runs the closed-loop
reverse sweep for an exact parameter gradient, rescales it to a norm
cap and applies one optimizer step. Training stops early once the
objective has moved less than a threshold for a fixed number of
consecutive iterations. A numeric blow-up triggers one retry from
scratch at half the learning rate before the run is declared failed.
"""
from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, field
from typing import Optional

import numpy as np

from .adjoint import backward_closedloop
from .csvio import columns, write_csv
from .env import (NumericFailure, Scenario, ScenarioError, check_int, check_nonnegative, check_positive,
                  check_seed, check_sizes, rollout)
from .policy import PolicyController, PolicyParams, init_params

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingError(RuntimeError):
    """Training aborted after the retry budget; carries the partial log."""

    def __init__(self, msg: str, log: "TrainingLog"):
        super().__init__(msg)
        self.log = log


@dataclass
class TrainConfig:
    max_iters: int = 2000
    t_max: int = 500
    stop_eps: float = 1e-3
    early_stop_delta: float = 1e-3
    early_stop_patience: int = 5
    beta: float = 1.0
    alpha: float = 1e-3
    clip_threshold: float = 10.0
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    hidden: tuple = (64, 64, 32)

    def __post_init__(self):
        self.hidden = check_sizes("hidden", self.hidden, 1)
        if self.optimizer not in ("adam", "sgd"):
            raise ScenarioError(f"unknown optimizer {self.optimizer!r}")
        for name in ("max_iters", "t_max", "early_stop_patience"):
            check_int(name, getattr(self, name), 1)
        for name in ("learning_rate", "clip_threshold", "stop_eps"):
            check_positive(name, getattr(self, name))
        for name in ("early_stop_delta", "beta", "alpha"):  # early_stop_delta 0 disables early stop
            check_nonnegative(name, getattr(self, name))
        check_seed("seed", self.seed)


@dataclass
class IterationRecord:
    iteration: int
    j_task: float
    j_smooth: float
    j_total: float
    grad_norm_pre: float
    grad_norm_post: float
    ms: float
    rollout_ms: float
    backward_ms: float
    opt_ms: float


@dataclass
class TrainingLog:
    rows: list = field(default_factory=list)
    converged: bool = False
    stop_reason: str = ""
    learning_rate: float = 0.0
    seed: int = 0

    @property
    def iterations(self) -> int:
        return len(self.rows)

    def wallclock_ms(self) -> float:
        return float(sum(r.ms for r in self.rows))


def clip_gradient(grad: np.ndarray, threshold: float) -> np.ndarray:
    """Rescale to norm <= threshold without changing direction."""
    check_positive("clip_threshold", threshold)
    grad = np.asarray(grad, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowing sum of squares is handled below
        norm = float(np.linalg.norm(grad))
    if norm <= threshold or norm == 0.0:
        return grad.copy()
    if norm == math.inf and np.isfinite(grad).all():
        # the sum of squares overflowed: grad over its largest magnitude has
        # grad's direction and a norm between 1 and sqrt(size)
        grad = grad / np.abs(grad).max()
        norm = float(np.linalg.norm(grad))
    # threshold / norm can round so the rescaled norm lands an ulp above
    # the threshold; step the scale down until the bound holds exactly
    scale = threshold / norm
    clipped = grad * scale
    while float(np.linalg.norm(clipped)) > threshold:
        scale = np.nextafter(scale, 0.0)
        clipped = grad * scale
    return clipped


@dataclass
class OptState:
    """Optimizer scratch: step count plus Adam moments when applicable."""

    mode: str
    step: int = 0
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None


def init_opt_state(mode: str, n_params: int) -> OptState:
    if mode == "adam":
        return OptState(mode="adam", m=np.zeros(n_params), v=np.zeros(n_params))
    if mode == "sgd":
        return OptState(mode="sgd")
    raise ScenarioError(f"unknown optimizer {mode!r}")


def optimizer_step(
    flat: np.ndarray, grad: np.ndarray, state: OptState, lr: float
) -> tuple[np.ndarray, OptState]:
    """One deterministic update; inputs are never mutated."""
    grad = np.asarray(grad, dtype=np.float64)
    if not np.isfinite(grad).all():
        raise NumericFailure(state.step, "optimizer")
    t = state.step + 1
    # each line is one elementwise pass in the order of
    # flat - lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
    tmp = np.multiply(grad, lr if state.mode == "sgd" else 1.0 - ADAM_BETA1)
    if state.mode == "sgd":
        return flat - tmp, OptState(mode="sgd", step=t)
    m = state.m * ADAM_BETA1
    m += tmp
    np.multiply(grad, 1.0 - ADAM_BETA2, out=tmp)
    tmp *= grad
    v = state.v * ADAM_BETA2
    v += tmp
    np.divide(m, 1.0 - ADAM_BETA1**t, out=tmp)
    tmp *= lr
    den = np.divide(v, 1.0 - ADAM_BETA2**t)
    np.sqrt(den, out=den)
    den += ADAM_EPS
    tmp /= den
    return flat - tmp, OptState(mode="adam", step=t, m=m, v=v)


def _train_once(scn: Scenario, cfg: TrainConfig, lr: float) -> tuple[PolicyParams, TrainingLog]:
    params = init_params(cfg.seed, scn.k, hidden=cfg.hidden, v_max=scn.v_max)
    # the controller's layers are views of params.flat, into which each
    # iteration writes its update: one controller serves every iteration
    ctl = PolicyController(params, scn)
    opt = init_opt_state(cfg.optimizer, params.flat.size)
    log = TrainingLog(learning_rate=lr, seed=cfg.seed)
    consecutive = 0
    prev_j: Optional[float] = None

    for it in range(1, cfg.max_iters + 1):
        t0 = time.perf_counter()
        try:
            traj = rollout(ctl, scn, cfg.t_max, cfg.stop_eps)
            if traj.steps == 0:
                # nothing left to collect at mission start: no iteration to log
                log.converged = True
                log.stop_reason = "mission_complete_at_start"
                return params, log
            t1 = time.perf_counter()
            bundle = backward_closedloop(traj, params, scn, beta=cfg.beta, alpha=cfg.alpha)
            t2 = time.perf_counter()
            grad = bundle.param_grad
            with np.errstate(over="ignore"):  # a finite gradient whose sum of squares overflows logs inf
                pre = post = float(np.linalg.norm(grad))
            if not pre <= cfg.clip_threshold:  # a NaN norm goes to the clip too
                grad = clip_gradient(grad, cfg.clip_threshold)
                post = float(np.linalg.norm(grad))
            new_flat, opt = optimizer_step(params.flat, grad, opt, lr)
            params.flat[...] = new_flat
        except NumericFailure as exc:
            exc.log = log  # partial log for diagnostics
            raise
        t3 = time.perf_counter()
        log.rows.append(
            IterationRecord(
                it, bundle.j_task, bundle.j_smooth, bundle.j_total, pre, post,
                ms=(t3 - t0) * 1e3,
                rollout_ms=(t1 - t0) * 1e3,
                backward_ms=(t2 - t1) * 1e3,
                opt_ms=(t3 - t2) * 1e3,
            )
        )
        if prev_j is not None and abs(bundle.j_total - prev_j) < cfg.early_stop_delta:
            consecutive += 1
        else:
            consecutive = 0
        prev_j = bundle.j_total
        if consecutive >= cfg.early_stop_patience:
            log.converged = True
            log.stop_reason = "early_stop"
            return params, log

    log.converged = False
    log.stop_reason = "max_iters"
    return params, log


def train(scn: Scenario, cfg: TrainConfig) -> tuple[PolicyParams, TrainingLog]:
    """Run training; on numeric failure retry once at half the rate."""
    try:
        return _train_once(scn, cfg, cfg.learning_rate)
    except NumericFailure:
        pass
    try:
        return _train_once(scn, cfg, cfg.learning_rate / 2.0)
    except NumericFailure as exc:
        log = getattr(exc, "log", TrainingLog())
        raise TrainingError(
            f"training failed twice with non-finite values (last at step {exc.step}, "
            f"{exc.where}); see attached log",
            log,
        ) from exc


TRAINING_LOG_COLUMNS = columns(IterationRecord)


def save_training_log(log: TrainingLog, path: str) -> None:
    write_csv(path, TRAINING_LOG_COLUMNS, map(astuple, log.rows))
