"""Independent reference simulator for checking aavtraj outputs.

Written from the model description in the repository README, not from
the package source: the observation layout, the flat-parameter MLP
(tanh hidden layers, a ``v_max * sigmoid`` speed head and a raw heading
head), the uplink rate model, kinematics, the backlog clamp, the stage
cost, the smoothness penalty, the termination rule and the mission
metrics. It shares no code with the package, so a fault in the package
cannot hide by being copied here. Scenarios are passed as plain
attributes (any object with the scenario fields works).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Mission:
    """The scenario fields the model reads, as plain floats and arrays."""

    users: np.ndarray  # (K, 2)
    demands: np.ndarray  # (K,)
    area_side: float
    eta: float
    sigma2: float
    altitude: float
    bandwidth: float
    tau: float
    v_max: float
    dist_weight: float

    @property
    def k(self) -> int:
        return len(self.demands)

    @classmethod
    def of(cls, scn) -> "Mission":
        users = np.array(scn.user_positions, dtype=float).reshape(-1, 2)
        bandwidth = float(len(users)) if scn.bandwidth is None else float(scn.bandwidth)
        return cls(users, np.array(scn.demands, dtype=float), float(scn.area_side),
                   float(scn.eta), float(scn.sigma2), float(scn.altitude), bandwidth,
                   float(scn.tau), float(scn.v_max), float(scn.dist_weight))


def user_rates(m: Mission, q) -> list:
    """Per-user rate (B/K) * log2(1 + eta / ((r^2 + H^2) * sigma2))."""
    out = []
    for wx, wy in m.users:
        r2 = (q[0] - wx) ** 2 + (q[1] - wy) ** 2
        out.append(m.bandwidth / m.k * math.log2(1.0 + m.eta / ((r2 + m.altitude**2) * m.sigma2)))
    return out


def observation(m: Mission, q, d) -> np.ndarray:
    """[q * s, (w_i - q) * s for each user, d_i / demand_i], s = 2 / L."""
    s = 2.0 / m.area_side
    obs = [q[0] * s, q[1] * s]
    for wx, wy in m.users:
        obs += [(wx - q[0]) * s, (wy - q[1]) * s]
    obs += [di / dem if dem > 0.0 else 0.0 for di, dem in zip(d, m.demands)]
    return np.array(obs)


class MlpPolicy:
    """Flat vector: per layer, the (out x in) weights row-major, then the bias."""

    def __init__(self, flat, hidden, m: Mission):
        self.m = m
        dims = [2 + 3 * m.k, *hidden, 2]
        flat = np.asarray(flat, dtype=float)
        self.layers = []
        off = 0
        for n_in, n_out in zip(dims[:-1], dims[1:]):
            w = flat[off : off + n_in * n_out].reshape(n_out, n_in)
            off += n_in * n_out
            self.layers.append((w, flat[off : off + n_out]))
            off += n_out
        if off != flat.size:
            raise ValueError(f"parameter vector has {flat.size} entries, layout needs {off}")

    def __call__(self, t: int, q, d) -> tuple:
        a = observation(self.m, q, d)
        for w, b in self.layers[:-1]:
            a = np.tanh(w.dot(a) + b)
        w, b = self.layers[-1]
        z = w.dot(a) + b
        return self.m.v_max / (1.0 + math.exp(-z[0])), float(z[1])


class OpenLoop:
    """Replays a (T, 2) array of (speed, heading) rows."""

    def __init__(self, controls):
        self.controls = np.asarray(controls, dtype=float).reshape(-1, 2)

    def __call__(self, t: int, q, d) -> tuple:
        return float(self.controls[t, 0]), float(self.controls[t, 1])


class Greedy:
    """Each slot, the (speed, heading) grid point whose post-move position

    maximizes the summed rate of still-active users; speeds (0, v/2, v)
    outermost, headings 2 pi j / n inner, first maximum wins; hover at
    heading 0 when no user is active.
    """

    def __init__(self, m: Mission, headings: int = 64):
        self.m = m
        self.cands = [(v, 2.0 * math.pi * j / headings)
                      for v in (0.0, m.v_max / 2.0, m.v_max) for j in range(headings)]

    def __call__(self, t: int, q, d) -> tuple:
        active = [i for i in range(self.m.k) if d[i] > 0.0]
        if not active:
            return 0.0, 0.0
        best, best_score = None, -math.inf
        for v, th in self.cands:
            step = v * self.m.tau
            r = user_rates(self.m, (q[0] + step * math.cos(th), q[1] + step * math.sin(th)))
            score = sum(r[i] for i in active)
            if score > best_score:
                best, best_score = (v, th), score
        return best


@dataclass
class Trace:
    positions: list  # T+1 positions
    backlogs: list  # T+1 backlog vectors
    controls: list  # T (speed, heading) pairs
    masks: list  # T tuples of {0, 1}: 1 where the backlog stayed positive
    costs: list  # T stage costs, cost t is that of state t+1
    terminated: Optional[int]

    @property
    def steps(self) -> int:
        return len(self.controls)


def simulate(m: Mission, policy: Callable, t_max: int, stop_eps: float) -> Trace:
    """Run the loop; the mission ends before a step once sum(d) < stop_eps * K."""
    q = (0.0, 0.0)
    d = [float(x) for x in m.demands]
    tr = Trace([q], [tuple(d)], [], [], [], None)
    threshold = stop_eps * m.k
    for t in range(t_max + 1):
        if sum(d) < threshold:
            tr.terminated = t
            break
        if t == t_max:
            break
        v, th = policy(t, q, d)
        if not (0.0 <= v <= m.v_max):
            raise ValueError(f"speed {v} outside [0, {m.v_max}] at step {t}")
        r = user_rates(m, q)
        raw = [d[i] - r[i] * m.tau for i in range(m.k)]
        mask = tuple(1 if x > 0.0 else 0 for x in raw)
        d = [x if x > 0.0 else 0.0 for x in raw]
        q = (q[0] + v * m.tau * math.cos(th), q[1] + v * m.tau * math.sin(th))
        tr.positions.append(q)
        tr.backlogs.append(tuple(d))
        tr.controls.append((v, th))
        tr.masks.append(mask)
        tr.costs.append(stage_cost(m, q, d))
    return tr


def stage_cost(m: Mission, q, d) -> float:
    """sum_i d_i + w * sum_i |q - w_i|."""
    dist = sum(math.hypot(q[0] - wx, q[1] - wy) for wx, wy in m.users)
    return sum(d) + m.dist_weight * dist


def smoothness(controls, alpha: float) -> float:
    """sum_t (v_t - v_{t-1})^2 + alpha * (1 - cos(theta_t - theta_{t-1}))."""
    total = 0.0
    for (v0, th0), (v1, th1) in zip(controls[:-1], controls[1:]):
        total += (v1 - v0) ** 2 + alpha * (1.0 - math.cos(th1 - th0))
    return total


def objective(tr: Trace, beta: float, alpha: float) -> float:
    return sum(tr.costs) + beta * smoothness(tr.controls, alpha)


@dataclass
class Metrics:
    completion_steps: list
    mean_completion_steps: float
    mission_steps: int
    completed: bool
    avg_rate: float


def metrics(m: Mission, tr: Trace, t_max: int) -> Metrics:
    """Per-user completion (first step the backlog is 0; 0 for a zero demand;

    the termination step for users left under the stop threshold; t_max
    when the mission did not end), the mission length, and the mean over
    steps with an active user of the mean pre-step rate of active users.
    """
    completed = tr.terminated is not None
    per_user = []
    for i in range(m.k):
        done = next((t for t, d in enumerate(tr.backlogs) if d[i] == 0.0), None)
        per_user.append(done if done is not None else (tr.terminated if completed else t_max))
    step_means = []
    for t in range(tr.steps):
        d = tr.backlogs[t]
        active = [i for i in range(m.k) if d[i] > 0.0]
        if active:
            r = user_rates(m, tr.positions[t])
            step_means.append(sum(r[i] for i in active) / len(active))
    return Metrics(
        completion_steps=per_user,
        mean_completion_steps=sum(per_user) / m.k,
        mission_steps=max(per_user) if completed else t_max,
        completed=completed,
        avg_rate=sum(step_means) / len(step_means) if step_means else 0.0,
    )
