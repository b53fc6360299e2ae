"""Data-collection environment: scenario, smooth dynamics, rollout tape.

A single aerial vehicle flies at a fixed altitude over K ground users.
Each user holds a data backlog that drains through a distance-dependent
line-of-sight uplink rate while the vehicle steers with a speed/heading
control. The transition map is smooth everywhere except the backlog
clamp at zero, so exact derivatives exist step by step as long as the
clamp branch taken in the forward pass is recorded.
"""
from __future__ import annotations

import json
import math
import numbers
import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

LN2 = math.log(2.0)


class ScenarioError(ValueError):
    """Invalid scenario data or operation arguments."""


class NumericFailure(RuntimeError):
    """Non-finite value produced during simulation or differentiation."""

    def __init__(self, step: int, where: str = "rollout"):
        super().__init__(f"non-finite value at step {step} ({where})")
        self.step = step
        self.where = where


# ---------------------------------------------------------------------------
# scenario and state containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Static problem instance: user layout, backlogs and radio physics.

    Attributes
    ----------
    user_positions : (K, 2) array of ground user coordinates.
    demands : (K,) array of initial data backlogs, non-negative.
    area_side : side length of the square operating region centred at 0.
    eta : reference SNR numerator (transmit power folded with channel gain).
    sigma2 : noise power at the receiver.
    altitude : fixed flight height of the vehicle.
    bandwidth : total uplink bandwidth, split evenly across the K users.
    tau : slot duration.
    v_max : speed limit of the vehicle.
    dist_weight : weight of the distance shaping term in the stage cost.
    seed : RNG seed the instance was generated from, None if hand built.
    """

    user_positions: np.ndarray
    demands: np.ndarray
    area_side: float
    eta: float = 1.0
    sigma2: float = 0.1
    altitude: float = 1.0
    bandwidth: Optional[float] = None
    tau: float = 1.0
    v_max: float = 0.2
    dist_weight: float = 0.01
    seed: Optional[int] = None

    def __post_init__(self):
        users = np.atleast_2d(np.asarray(self.user_positions, dtype=np.float64))
        demands = np.asarray(self.demands, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "user_positions", users)
        object.__setattr__(self, "demands", demands)
        if self.bandwidth is None:
            # per-user bandwidth defaults to 1
            object.__setattr__(self, "bandwidth", float(users.shape[0]))
        if users.ndim != 2 or users.shape[1] != 2 or users.shape[0] < 1:
            raise ScenarioError("user_positions must have shape (K, 2) with K >= 1")
        if demands.shape[0] != users.shape[0]:
            raise ScenarioError("demands length must match the number of users")
        if np.any(demands < 0) or not np.all(np.isfinite(demands)):
            raise ScenarioError("demands must be finite and >= 0")
        if not np.all(np.isfinite(users)):
            raise ScenarioError("user positions must be finite")
        # Python floats: a numpy scalar would carry its own precision into the arithmetic
        for name in ("area_side", "eta", "sigma2", "altitude", "bandwidth", "tau", "v_max"):
            check_positive(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))
        check_nonnegative("dist_weight", self.dist_weight)
        try:
            self.altitude**2  # as the rates take it
        except OverflowError:
            raise ScenarioError(f"altitude {self.altitude!r} is too large: its square overflows") from None

    @property
    def k(self) -> int:
        return self.user_positions.shape[0]


@dataclass(frozen=True)
class State:
    """Vehicle position q (2,) and remaining backlogs d (K,)."""

    q: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=np.float64).reshape(2))
        object.__setattr__(self, "d", np.asarray(self.d, dtype=np.float64).reshape(-1))


@dataclass(frozen=True)
class Control:
    """Speed v in [0, v_max] and absolute heading theta in radians."""

    v: float
    theta: float


@dataclass
class TrajectoryRecord:
    """Forward-pass tape consumed by the reverse sweeps, held as arrays.

    positions (T+1, 2) and backlogs (T+1, K) are the visited states,
    controls (T, 2) the (v, theta) rows, active_masks (T, K) records
    which backlogs were still draining (clamp not hit) on step t, and
    stage_costs (T,) holds the cost of state t+1. rollout reads the masks
    off the backlogs: active_masks[t] is backlogs[t+1] > 0.

    recording is a weak reference to the policy.Workspace of the
    PolicyController whose float tape this is, or None: the reverse sweep
    reads the forward pass recorded there while this is still that
    controller's latest tape (policy.control_law_pass decides). Copies
    made by pickle or the copy module drop it.
    """

    positions: np.ndarray
    backlogs: np.ndarray
    controls: np.ndarray
    active_masks: np.ndarray
    stage_costs: np.ndarray
    completion_step: list
    terminated_step: Optional[int]
    recording: Optional[weakref.ref] = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "recording": None}  # a weak reference does not pickle

    @property
    def steps(self) -> int:
        return self.controls.shape[0]

    @property
    def states(self) -> tuple:
        """The visited states as State objects over the tape's rows, built on each access."""
        return tuple(State(q, d) for q, d in zip(self.positions, self.backlogs))

    def controls_array(self) -> np.ndarray:
        return self.controls

    def task_cost(self) -> float:
        """Sum of the stage costs, added one by one in step order."""
        return float(sum(self.stage_costs.tolist()))


# ---------------------------------------------------------------------------
# radio model
# ---------------------------------------------------------------------------


def rates(q: np.ndarray, scn: Scenario) -> np.ndarray:
    """Per-user uplink rates at vehicle position(s) q.

    q may be a single position (2,) or a batch (..., 2); the result has
    shape (..., K). Rate model: (B/K) * log2(1 + eta / ((r^2 + H^2) * sigma2)).
    """
    return rates_at(squared_distances(q, scn), scn)


def squared_distances(q: np.ndarray, scn: Scenario) -> np.ndarray:
    """Squared horizontal distances r^2 from vehicle position(s) q (..., 2)

    to the K users, as (..., K): dx * dx + dy * dy of the offsets q - w_i,
    each coordinate in an array of its own.
    """
    q = np.asarray(q, dtype=np.float64)
    users = scn.user_positions
    dx = q[..., 0, None] - users[:, 0]
    dy = q[..., 1, None] - users[:, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def rates_at(d2: np.ndarray, scn: Scenario) -> np.ndarray:
    """Per-user uplink rates at squared horizontal distances d2 (..., K)."""
    arg = rate_argument(d2, scn.eta, scn.altitude**2, scn.sigma2)
    return np.log2(arg, out=arg) * (scn.bandwidth / scn.k)


def rate_argument(d2, eta: float, h2: float, sigma2: float):
    """1 + snr at the squared horizontal distances d2, a float or an array:

    eta / ((d2 + h2) * sigma2) + 1.0 with h2 = H^2. Its log2 times B/K is
    the rate. The closed-loop tape's float loop (policy.policy_tape) writes
    the same expression inline, per user, and rounds alike.
    """
    return eta / ((d2 + h2) * sigma2) + 1.0


def rate_gradients_of_offsets(diff: np.ndarray, d2: np.ndarray, scn: Scenario) -> np.ndarray:
    """rate_gradients at the offsets diff = q - w_i (..., K, 2), given their

    squared lengths d2 (..., K). The coefficient is
    -(B/K)/ln2 * 1/(1+snr) * 2 * eta / (sigma2 * den * den), den = d2 + H^2,
    snr = eta / (den * sigma2), multiplied out left to right.
    """
    den = d2 + scn.altitude**2
    den_s = den * scn.sigma2
    coef = np.divide(scn.eta, den_s)
    coef += 1.0
    np.divide(1.0, coef, out=coef)
    coef *= -(scn.bandwidth / scn.k) / LN2
    coef *= 2.0
    coef *= scn.eta
    den_s *= den
    coef /= den_s
    return coef[..., None] * diff


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def move(v: float, theta: float, tau: float) -> tuple[float, float]:
    """The displacement of one slot at speed v and heading theta, in Python floats."""
    step = v * tau
    return step * math.cos(theta), step * math.sin(theta)


def step(x: State, u: Control, scn: Scenario) -> State:
    """The state after one slot of control u from x: the backlogs drain at

    the pre-step position's rates and are clamped, np.maximum(0.0, raw),
    then the vehicle moves at constant speed and heading. A speed outside
    [0, v_max] raises ScenarioError.
    """
    d_next = np.maximum(0.0, x.d - rates(x.q, scn) * scn.tau)
    if not 0.0 <= u.v <= scn.v_max:
        raise ScenarioError(f"speed {u.v} outside [0, {scn.v_max}]")
    return State(x.q + np.array(move(u.v, u.theta, scn.tau)), d_next)


def stage_costs(positions: np.ndarray, backlogs: np.ndarray, scn: Scenario) -> np.ndarray:
    """stage_cost of every row of positions (N, 2) and backlogs (N, K), as (N,).

    The closed-loop tapes are scored here; a replayed or GA tape takes the
    same costs_at of the rows open_loop_segment already summed and measured.
    """
    d2 = squared_distances(positions, scn) if scn.dist_weight > 0.0 else None
    return costs_at(np.sum(backlogs, axis=-1), d2, scn)


def costs_at(sums: np.ndarray, d2: Optional[np.ndarray], scn: Scenario) -> np.ndarray:
    """Stage costs of rows whose backlogs sum to sums (...) and whose squared

    user distances are d2 (..., K): sums + w * sum_i sqrt(d2_i), the
    distances added along each row; sums itself when w = 0, d2 unread.
    """
    if scn.dist_weight > 0.0:
        return sums + scn.dist_weight * np.sum(np.sqrt(d2), axis=-1)
    return sums


def stage_cost(x: State, scn: Scenario) -> float:
    """Backlog sum plus distance shaping: sum_i d_i + w * sum_i |q - w_i|."""
    return float(stage_costs(x.q[None], x.d[None], scn)[0])


def initial_state(scn: Scenario) -> State:
    """Mission start: vehicle at the origin, backlogs at their demands."""
    return State(np.zeros(2), scn.demands.copy())


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------


class SequenceController:
    """Replays a fixed (T, 2) array of (v, theta) rows.

    rollout computes the tape of a SequenceController in one array pass
    over the horizon instead of calling it step by step; the tape and
    any exception are those of the per-step loop.
    """

    def __init__(self, controls: np.ndarray):
        self.controls = np.asarray(controls, dtype=np.float64).reshape(-1, 2)

    def __call__(self, t: int, x: State) -> Control:
        if t >= self.controls.shape[0]:
            raise ScenarioError(f"control sequence exhausted at step {t}")
        v, theta = self.controls[t]
        return Control(float(v), float(theta))


def rollout(
    policy: Callable[[int, State], Control],
    scn: Scenario,
    t_max: int,
    stop_eps: float,
) -> TrajectoryRecord:
    """Unroll the closed loop until the residual backlog is negligible.

    policy is any callable (t, state) -> Control. Termination is checked
    before each step: the mission ends once sum_i d_i < stop_eps * K, or
    after t_max steps. A SequenceController's controls are known up
    front, so its tape is computed in one array pass (_replay); a
    PolicyController steps with the state in Python floats, the layers
    and the rates' log2 in numpy (policy.policy_tape), recording its
    forward pass for the reverse sweep (the record's recording). Both give
    the step loop's bits and exceptions. A PolicyController (or subclass)
    run on a scenario other than its own or an equal copy raises
    ScenarioError.
    Every path's tape is (positions, backlogs, controls, terminated[, costs]);
    the clamp masks are the backlogs after each step > 0, as max(0, raw) > 0
    exactly when raw > 0 (a raw 0.0, -0.0 or NaN clamps to one that is not).
    """
    check_int("t_max", t_max, 1)
    if not 0.0 < stop_eps < math.inf:
        raise ScenarioError(f"stop_eps must be a positive finite number, got {stop_eps!r}")
    threshold = stop_eps * scn.k

    tape = recording = None
    # a subclass may override __call__, so only the classes themselves take an array path
    if type(policy) is SequenceController:
        tape = _replay(policy.controls, scn, t_max, threshold)
    else:
        from .policy import PolicyController, policy_tape  # policy imports env

        if isinstance(policy, PolicyController):
            policy.check_scenario(scn)
            if type(policy) is PolicyController:
                tape = policy_tape(policy, scn, t_max, threshold)
                if tape is not None:
                    *tape, recording = tape
    if tape is None:
        tape = _step_loop(policy, scn, t_max, threshold)
    # a replayed tape brings its stage costs; the others are scored here
    positions, backlogs, controls, terminated, *costs = tape

    # a drained backlog stays at zero, so a user completes at its first zero row
    drained = backlogs == 0.0
    first_zero = np.argmax(drained, axis=0).tolist()
    return TrajectoryRecord(
        positions=positions,
        backlogs=backlogs,
        controls=controls,
        active_masks=(backlogs[1:] > 0.0).astype(np.float64),
        stage_costs=costs[0] if costs else stage_costs(positions[1:], backlogs[1:], scn),
        completion_step=[t if done else None for t, done in zip(first_zero, drained.any(axis=0))],
        terminated_step=terminated,
        recording=recording,
    )


def _step_loop(policy, scn: Scenario, t_max: int, threshold: float) -> tuple:
    """The reference rollout: positions, backlogs, controls and the

    termination step, one policy call and one step() per slot.
    """
    x = initial_state(scn)
    positions = [x.q]
    backlogs = [x.d]
    controls: list = []
    terminated: Optional[int] = None

    for t in range(t_max):
        if float(x.d.sum()) < threshold:
            terminated = t
            break
        u = policy(t, x)
        if not (math.isfinite(u.v) and math.isfinite(u.theta)):
            raise NumericFailure(t, "control")
        x = step(x, u, scn)
        if not (np.isfinite(x.q).all() and np.isfinite(x.d).all()):
            raise NumericFailure(t, "state")
        positions.append(x.q)
        backlogs.append(x.d)
        controls.append((u.v, u.theta))
    else:
        if float(x.d.sum()) < threshold:
            terminated = t_max

    return (
        np.array(positions),
        np.array(backlogs),
        np.array(controls, dtype=np.float64).reshape(-1, 2),
        terminated,
    )


class Segment(NamedTuple):
    """open_loop_segment's result for a batch (...) of m-row control arrays."""

    positions: np.ndarray  # (..., m+1, 2): the start, then the position after each step
    backlogs: np.ndarray  # (..., m+1, K): the start, then the clamped backlogs after each step
    costs: np.ndarray  # (..., m): stage_costs of rows 1..m, the state after each step
    end: np.ndarray  # (...): steps taken, the first row below the threshold or m
    ended: np.ndarray  # (...): whether some row is below the threshold
    valid: np.ndarray  # (...): whether the step loop would take those steps without raising


def open_loop_segment(
    controls: np.ndarray, q: np.ndarray, d: np.ndarray, scn: Scenario, threshold: float
) -> Segment:
    """The step loop's arithmetic for controls (..., m, 2) from positions q

    (..., 2) and backlogs d (..., K), along the step axis of every member
    of the batch at once; each member's rows are those of the batch of
    that member alone.

    Only the two running sums are sequential: positions add the moves and
    backlogs subtract the drains, both with np.add.accumulate, which adds
    in the loop's order (np.cumsum of the moves alone would turn a 0.0
    start plus a -0.0 hover move into -0.0). Drains are non-negative, so
    an unclamped running backlog only falls: once it reaches zero it stays
    clamped, and np.maximum(0, running) is the loop's clamped backlog.
    A member is valid when its first end steps have speeds in [0, v_max],
    finite headings and finite states (the start row is finite: it is the
    initial state or a row already checked); rows after its end are never
    read.

    The stage costs come from work the steps already do: the squared user
    distances of rows 0..m are taken once, rows 0..m-1 feeding the drains
    and rows 1..m the distance term, and the backlog row sums once, feeding
    both the termination test and the costs (costs_at, as stage_costs).
    """
    m = controls.shape[-2]
    v, theta = controls[..., 0], controls[..., 1]
    batch = v.shape[:-1]
    # rows after a non-finite control are never used, but np.cos(inf) warns
    with np.errstate(invalid="ignore"):
        pos = np.empty((*batch, m + 1, 2))
        pos[..., 0, :] = q
        step = v * scn.tau
        np.multiply(step, np.cos(theta), out=pos[..., 1:, 0])
        np.multiply(step, np.sin(theta), out=pos[..., 1:, 1])
        pos = np.add.accumulate(pos, axis=-2)
        d2 = squared_distances(pos, scn)
        raw = np.empty((*batch, m + 1, scn.k))
        raw[..., 0, :] = d
        np.multiply(rates_at(d2[..., :-1, :], scn), -scn.tau, out=raw[..., 1:, :])  # minus the drains
        back = np.add.accumulate(raw, axis=-2)
        np.maximum(0.0, back, out=back)
    sums = back.sum(axis=-1)
    costs = costs_at(sums[..., 1:], d2[..., 1:, :], scn)
    below = sums < threshold
    ended = below.any(axis=-1)
    end = np.where(ended, below.argmax(axis=-1), m)
    # step t is good when its control is and the row it makes is finite;
    # only the first n steps are taken by any member. From a finite start
    # the drains (>= 0, inf or NaN) only lower a backlog and the clamp keeps
    # it >= 0, so each is in [0, d] or NaN: a row is finite unless its sum is NaN.
    n = int(end.max())
    v, theta = v[..., :n], theta[..., :n]
    good = (0.0 <= v) & (v <= scn.v_max) & np.isfinite(theta) & ~np.isnan(sums[..., 1 : n + 1])
    good &= np.isfinite(pos[..., 1 : n + 1, 0]) & np.isfinite(pos[..., 1 : n + 1, 1])
    valid = (good | (np.arange(n) >= end[..., None])).all(axis=-1)
    return Segment(pos, back, costs, end, ended, valid)


def _replay(controls: np.ndarray, scn: Scenario, t_max: int, threshold: float) -> Optional[tuple]:
    """_step_loop's result for a fixed (n, 2) control array, and the stage

    costs of rows 1..end, computed in one open_loop_segment pass over the
    first t_max controls, or None when a step before termination would
    raise (non-finite or out-of-range control, non-finite state, sequence
    exhausted); _step_loop then raises it. Rows after the end are never
    read, so their overflow is ignored.
    """
    x = initial_state(scn)
    with np.errstate(over="ignore"):
        seg = open_loop_segment(controls[:t_max], x.q, x.d, scn, threshold)
    end = int(seg.end)  # steps taken
    if not (seg.valid and (seg.ended or end == t_max)):
        return None
    return (
        seg.positions[: end + 1].copy(),
        seg.backlogs[: end + 1].copy(),
        controls[:end].copy(),
        end if seg.ended else None,
        seg.costs[:end].copy(),
    )


# ---------------------------------------------------------------------------
# scenario generation and serialization
# ---------------------------------------------------------------------------


def check_int(name: str, value, lo: int) -> None:
    """Reject anything but an integer >= lo; a bool is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
        raise ScenarioError(f"{name} must be an integer >= {lo}, got {value!r}")


def check_sizes(name: str, values, lo: int) -> tuple:
    """values, a list of integers >= lo, as a tuple of ints; anything else

    (a bare integer, say) raises ScenarioError naming name.
    """
    if not np.iterable(values) or isinstance(values, (str, bytes)):
        raise ScenarioError(f"{name} must be a list of integers >= {lo}, got {values!r}")
    values = tuple(values)
    for value in values:
        check_int(name, value, lo)
    return tuple(int(value) for value in values)


def is_number(value) -> bool:
    """Whether value is a real number (numpy's included); a bool is not one here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def as_float(value) -> float:
    """float(value) of a real number, or an infinity of its sign when it is

    too large for a float (an int, say, whose conversion would raise
    OverflowError).
    """
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_positive(name: str, value) -> None:
    """Reject anything but a number > 0 whose float is finite (NaN fails the comparison)."""
    if not (is_number(value) and 0.0 < as_float(value) < math.inf):
        raise ScenarioError(f"{name} must be a positive finite number, got {value!r}")


def check_nonnegative(name: str, value) -> None:
    """Reject anything but a number >= 0 whose float is finite (NaN fails the comparison)."""
    if not (is_number(value) and 0.0 <= as_float(value) < math.inf):
        raise ScenarioError(f"{name} must be a finite number >= 0, got {value!r}")


def check_seed(name: str, seed) -> None:
    """Reject a seed that numpy's generator would refuse: anything but an integer >= 0."""
    check_int(name, seed, 0)


def generate_scenario(
    seed: int,
    k: int = 4,
    area_side: float = 10.0,
    demand_lo: float = 0.5,
    demand_hi: float = 1.0,
    *,
    eta: float = 1.0,
    sigma2: float = 0.1,
    altitude: float = 1.0,
    bandwidth: Optional[float] = None,
    tau: float = 1.0,
    v_max: float = 0.2,
    dist_weight: float = 0.01,
) -> Scenario:
    """Sample a random instance: users uniform on the square, backlogs

    uniform in [demand_lo, demand_hi]. Deterministic in the seed.
    """
    check_seed("seed", seed)
    check_int("k", k, 1)
    check_nonnegative("demand_lo", demand_lo)
    check_nonnegative("demand_hi", demand_hi)
    if not demand_lo <= demand_hi:
        raise ScenarioError("need 0 <= demand_lo <= demand_hi")
    check_positive("area_side", area_side)
    rng = np.random.default_rng(seed)
    half = area_side / 2.0
    users = rng.uniform(-half, half, size=(k, 2))
    demands = rng.uniform(demand_lo, demand_hi, size=k)
    return Scenario(
        user_positions=users,
        demands=demands,
        area_side=area_side,
        eta=eta,
        sigma2=sigma2,
        altitude=altitude,
        bandwidth=bandwidth,
        tau=tau,
        v_max=v_max,
        dist_weight=dist_weight,
        seed=seed,
    )


def scenario_to_dict(scn: Scenario) -> dict:
    return {
        "users": scn.user_positions.tolist(),
        "demands": scn.demands.tolist(),
        "area_side": scn.area_side,
        "eta": scn.eta,
        "sigma2": scn.sigma2,
        "altitude": scn.altitude,
        "bandwidth": scn.bandwidth,
        "tau": scn.tau,
        "v_max": scn.v_max,
        "dist_weight": scn.dist_weight,
        "seed": scn.seed,
    }


def scenario_from_dict(data: dict) -> Scenario:
    """Inverse of scenario_to_dict; a missing or malformed field raises a ScenarioError naming it."""

    def field(name, convert=float, *default):
        if not default and name not in data:
            raise ScenarioError(f"scenario is missing required field {name!r}")
        value = data.get(name, *default)
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"scenario field {name!r} has bad value {value!r}: {exc}") from None

    array = partial(np.asarray, dtype=np.float64)
    return Scenario(
        user_positions=field("users", array),
        demands=field("demands", array),
        area_side=field("area_side"),
        eta=field("eta", float, 1.0),
        sigma2=field("sigma2", float, 0.1),
        altitude=field("altitude", float, 1.0),
        bandwidth=field("bandwidth", lambda v: None if v is None else float(v), None),
        tau=field("tau", float, 1.0),
        v_max=field("v_max", float, 0.2),
        dist_weight=field("dist_weight", float, 0.01),
        seed=data.get("seed"),
    )


def save_scenario(scn: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scn), fh, indent=2)
        fh.write("\n")


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))
