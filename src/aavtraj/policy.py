"""Deterministic MLP control law with hand-written forward and VJP.

The network maps a normalized observation of the world state to a
speed/heading pair. The speed head is squashed through a sigmoid and
scaled by v_max so the kinematic bound holds by construction; the
heading head is left unbounded. Parameters live in one flat float64
vector whose layout is, layer by layer, the row-major weight matrix
followed by the bias.
"""
from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass, fields
from itertools import chain, repeat
from typing import Optional

import numpy as np

from .env import (Control, Scenario, ScenarioError, State, TrajectoryRecord, check_int, check_positive,
                  check_sizes)

CHECKPOINT_FORMAT = "aavtraj-policy-v1"


@dataclass(frozen=True)
class LayerSpec:
    """Architecture descriptor: K fixes the input width 2 + 3K."""

    k: int
    hidden: tuple = (64, 64, 32)

    def __post_init__(self):
        check_int("k", self.k, 1)
        object.__setattr__(self, "hidden", check_sizes("hidden", self.hidden, 1))

    @property
    def input_dim(self) -> int:
        return 2 + 3 * self.k

    @property
    def output_dim(self) -> int:
        return 2

    @property
    def dims(self) -> tuple:
        return (self.input_dim, *self.hidden, self.output_dim)

    def param_count(self) -> int:
        dims = self.dims
        return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))


@dataclass
class PolicyParams:
    """Flat parameter vector plus the metadata needed to interpret it."""

    flat: np.ndarray
    spec: LayerSpec
    v_max: float = 0.2
    seed: Optional[int] = None

    def __post_init__(self):
        self.flat = np.asarray(self.flat, dtype=np.float64).reshape(-1)
        if self.flat.size != self.spec.param_count():
            raise ScenarioError(
                f"flat vector has {self.flat.size} entries, spec wants {self.spec.param_count()}"
            )
        check_positive("v_max", self.v_max)


def init_params(seed: int, k: int, hidden: tuple = (64, 64, 32), v_max: float = 0.2) -> PolicyParams:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero."""
    spec = LayerSpec(k=k, hidden=tuple(hidden))
    rng = np.random.default_rng(seed)
    chunks = []
    dims = spec.dims
    for din, dout in zip(dims[:-1], dims[1:]):
        bound = 1.0 / math.sqrt(din)
        chunks.append(rng.uniform(-bound, bound, size=(dout, din)).ravel())
        chunks.append(np.zeros(dout))
    return PolicyParams(flat=np.concatenate(chunks), spec=spec, v_max=v_max, seed=seed)


def unpack(params: PolicyParams) -> list:
    """Split the flat vector into [(W, b), ...] views, one per layer."""
    return _layer_views(params.flat, params.spec)


def _layer_views(flat: np.ndarray, spec: LayerSpec) -> list:
    layers = []
    off = 0
    for din, dout in zip(spec.dims[:-1], spec.dims[1:]):
        w = flat[off : off + din * dout].reshape(dout, din)
        off += din * dout
        layers.append((w, flat[off : off + dout]))
        off += dout
    return layers


# ---------------------------------------------------------------------------
# observation map
# ---------------------------------------------------------------------------


def observations(positions: np.ndarray, backlogs: np.ndarray, scn: Scenario) -> np.ndarray:
    """Normalized observations at positions (..., 2) and backlogs (..., K), as

    (..., 2 + 3K): the position and the K offsets w_i - q scaled by
    2/area_side, then the backlogs over their demands, 0 for a zero demand.
    """
    k, s, batch = scn.k, 2.0 / scn.area_side, positions.shape[:-1]
    out = np.zeros((*batch, 2 + 3 * k))
    np.multiply(positions, s, out=out[..., :2])
    rel = out[..., 2 : 2 + 2 * k].reshape(*batch, k, 2)
    np.subtract(scn.user_positions, positions[..., None, :], out=rel)
    rel *= s
    np.divide(backlogs, scn.demands, out=out[..., 2 + 2 * k :], where=scn.demands > 0.0)
    return out


def observe(x: State, scn: Scenario) -> np.ndarray:
    """The observation vector of the single state x, of length 2 + 3K."""
    return observations(x.q, x.d, scn)


def observation_jacobian(scn: Scenario) -> np.ndarray:
    """Constant (2+3K, 2+K) Jacobian of observe with respect to [q; d]."""
    k = scn.k
    s = 2.0 / scn.area_side
    jac = np.zeros((2 + 3 * k, 2 + k))
    jac[0, 0] = jac[1, 1] = s
    jac[2 : 2 + 2 * k : 2, 0] = jac[3 : 2 + 2 * k : 2, 1] = -s
    # the diagonal of the backlog block, rows 2+2K.. and columns 2..: 1 / demand where positive
    diag = jac.reshape(-1)[(2 + 2 * k) * (2 + k) + 2 :: k + 3]
    np.divide(1.0, scn.demands, out=diag, where=scn.demands > 0.0)
    return jac


# ---------------------------------------------------------------------------
# forward and reverse passes
# ---------------------------------------------------------------------------


def _sigmoid(z: float) -> float:
    # 0.5 * (1 + tanh(z/2)) is stable for large |z|
    return 0.5 * (1.0 + math.tanh(0.5 * z))


def _check_obs(params: PolicyParams, obs: np.ndarray) -> np.ndarray:
    obs = np.asarray(obs, dtype=np.float64).reshape(-1)
    if obs.size != params.spec.input_dim:
        raise ScenarioError(
            f"observation has {obs.size} entries, policy wants {params.spec.input_dim}"
        )
    return obs


def activations(layers: list, obs: np.ndarray) -> list:
    """The forward pass of one observation (in,), or of every row of a

    batch (N, in) on its own: [obs, each hidden activation, raw head output].
    """
    # one mat-vec per row of a batch rounds like the single w @ a; a @ w.T would not
    matvec = np.matmul if obs.ndim == 1 else lambda w, a: np.matmul(w, a[:, :, None])[:, :, 0]
    acts = [obs]
    a = obs
    for w, b in layers[:-1]:
        a = np.tanh(matvec(w, a) + b)
        acts.append(a)
    w, b = layers[-1]
    acts.append(matvec(w, a) + b)
    return acts


def _control(z: np.ndarray, v_max: float) -> Control:
    return Control(v_max * _sigmoid(float(z[0])), float(z[1]))


def forward(params: PolicyParams, obs: np.ndarray) -> Control:
    """Evaluate the control law: v = v_max * sigmoid(z0), theta = z1."""
    return _control(activations(unpack(params), _check_obs(params, obs))[-1], params.v_max)


def head_slopes(z0: np.ndarray, v_max: float) -> np.ndarray:
    """The diagonal of d(v, theta) / d(z0, z1), (v_max * sigmoid'(z0), 1), of

    N raw speed-head outputs z0 (N,), as (N, 2).
    """
    sig = np.tanh(0.5 * z0)
    sig += 1.0
    sig *= 0.5
    slopes = np.empty((z0.shape[0], 2))
    slopes[:, 1] = 1.0
    np.multiply(v_max * sig, 1.0 - sig, out=slopes[:, 0])
    return slopes


def derivative_factors(hidden: list, bufs: list) -> list:
    """tanh's derivative 1 - a**2 at each hidden activation a (N, width) of

    hidden, written into the arrays bufs (at least N rows each).
    input_jacobians and pullback both take these factors.
    """
    ders = []
    for a, buf in zip(hidden, bufs):
        d = np.multiply(a, a, out=buf[: a.shape[0]])  # a**2 squares, so it rounds as a * a
        ders.append(np.subtract(1.0, d, out=d))
    return ders


def input_jacobians(layers: list, ders: list, slopes: np.ndarray, obs_jac: np.ndarray,
                    scratch: "SweepScratch") -> np.ndarray:
    """d(v, theta) / d x of each of N forward passes, (N, 2, m), where obs_jac

    (in, m) is d obs / d x: the head rows scaled by slopes (N, 2) from
    head_slopes, pulled back through the layers with the derivative factors
    ders from derivative_factors, then multiplied by obs_jac. Each pass's
    rows are (2, width) matrix products of their own, so the passes run
    JACOBIAN_CHUNK at a time through scratch's two halves, and the result
    is a view of scratch.du_dx.
    """
    t_len = slopes.shape[0]
    out = scratch.view(scratch.du_dx, (t_len, 2, obs_jac.shape[1]))
    w_head = layers[-1][0]
    for start in range(0, t_len, JACOBIAN_CHUNK):
        part = slice(start, start + JACOBIAN_CHUNK)
        s = slopes[part]
        rows = np.multiply(s[:, :, None], w_head, out=scratch.view(scratch.halves[0], (s.shape[0], *w_head.shape)))
        for idx in range(len(layers) - 1, 0, -1):
            rows *= ders[idx - 1][part, None, :]
            w = layers[idx - 1][0]
            rows = np.matmul(rows, w, out=scratch.view(scratch.halves[(len(layers) - idx) % 2],
                                                       (s.shape[0], 2, w.shape[1])))
        np.matmul(rows, obs_jac, out=out[part])
    return out


def pullback(
    layers: list, acts: list, ders: list, delta: np.ndarray, scratch: "SweepScratch", *, inputs: bool = False
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Pull the cotangents delta (N, 2) of the raw head outputs of N forward

    passes back through the layers; acts[i] holds the inputs of layer i over
    the passes (activations(...) or the rows policy_tape recorded), ders
    their derivative factors from derivative_factors, which it overwrites
    with the cotangents of the hidden pre-activations. Each layer's delta
    @ W goes to scratch.work. Returns the parameter gradient summed over
    the passes, a new array laid out like the flat parameter vector, and,
    when inputs is true, each pass's observation cotangent (N, in), a new
    array, else None.
    """
    grad = np.empty(sum(w.size + b.size for w, b in layers))
    end = grad.size
    for idx in range(len(layers) - 1, -1, -1):
        w, b = layers[idx]
        np.sum(delta, axis=0, out=grad[end - b.size : end])
        end -= b.size + w.size
        np.matmul(delta.T, acts[idx], out=grad[end : end + w.size].reshape(w.shape))
        if idx > 0:
            product = np.matmul(delta, w, out=scratch.view(scratch.work, (delta.shape[0], w.shape[1])))
            # each factor is read once, so the product takes its place
            delta = np.multiply(product, ders[idx - 1], out=ders[idx - 1])
        elif inputs:
            delta = delta @ w
    return grad, delta if inputs else None


def vjp(params: PolicyParams, obs: np.ndarray, upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pull an upstream cotangent on (v, theta) back to parameters and obs.

    Returns (param_grad, obs_grad) with param_grad laid out exactly like
    the flat parameter vector: the one-row pullback.
    """
    upstream = np.asarray(upstream, dtype=np.float64).reshape(1, 2)
    layers = unpack(params)
    acts = activations(layers, _check_obs(params, obs)[None])
    delta = head_slopes(acts[-1][:, 0], params.v_max) * upstream
    scratch = SweepScratch(params.spec, params.spec.k).fit(1)
    ders = derivative_factors(acts[1:-1], scratch.ders)
    flat, obs_grad = pullback(layers, acts, ders, delta, scratch, inputs=True)
    return flat, obs_grad[0]


# ---------------------------------------------------------------------------
# the arrays a controller holds for its run
# ---------------------------------------------------------------------------

FIRST_ROWS = 64  # forward-pass rows of a controller's first float tape; they double as its tapes need
JACOBIAN_CHUNK = 128  # forward passes per round of input_jacobians' matrix products


class SweepScratch:
    """The arrays a reverse sweep of a tape of up to rows steps works in,

    grown to the longest tape it is fitted to: ders, a (rows, width) array
    per hidden layer for derivative_factors and then pullback; du_dx, the
    flat storage of input_jacobians' result; work, one flat array, whose
    two halves input_jacobians' chunks and then the adjoint recurrence's
    matrices take, and whose whole pullback's products take after them.
    """

    def __init__(self, spec: LayerSpec, k: int):
        self.spec, self.k, self.rows = spec, k, -1  # no arrays yet

    def fit(self, rows: int) -> "SweepScratch":
        if rows > self.rows:
            spec, n = self.spec, 2 + self.k
            width = max(spec.dims[:-1])
            half = max(min(rows, JACOBIAN_CHUNK) * 2 * width, rows * n * n)
            self.ders = [np.empty((rows, h)) for h in spec.hidden]
            self.du_dx = np.empty(rows * 2 * n)
            self.work = np.empty(max(2 * half, rows * width))
            self.halves = (self.work[:half], self.work[half : 2 * half])
            self.rows = rows
        return self

    def matrices(self, t_len: int) -> tuple:
        """The two halves of work as (t_len, 2+K, 2+K) arrays, for the adjoint recurrence."""
        n = 2 + self.k
        return tuple(self.view(half, (t_len, n, n)) for half in self.halves)

    @staticmethod
    def view(buf: np.ndarray, shape: tuple) -> np.ndarray:
        """The first entries of the flat array buf as a C-ordered array of shape."""
        return buf[: math.prod(shape)].reshape(shape)


class Workspace:
    """What a PolicyController holds for its run and frees with it.

    policy_tape records into it the forward pass of the controller's
    latest float tape: flat, the parameter values it ran; rows, each
    layer's inputs at every step (the observation, then each hidden
    activation) as the rows of one array per layer, which double when a
    tape outgrows them; z0, the raw speed-head outputs, as a list of
    floats; and tape, that tape's (positions, backlogs, controls) arrays,
    None while no recorded tape is current. control_law_pass reads the
    rows instead of recomputing them when it sweeps that tape, and works
    in scratch, with the run's constant layers and observation Jacobian.
    """

    def __init__(self, spec: LayerSpec, scn: Scenario):
        self.spec, self.scn = spec, scn
        self.flat = np.empty(spec.param_count())
        self.rows: list = []
        self.capacity = 0  # rows of each array in rows
        self.z0: list = []
        self.tape: Optional[tuple] = None
        # made at the first sweep: the scratch, the layers as views of flat, the observation Jacobian
        self.scratch: Optional[SweepScratch] = None
        self.layers: Optional[list] = None
        self.obs_jac: Optional[np.ndarray] = None

    def step_rows(self, t_max: int):
        """An iterator over the rows of steps 0, 1, ...: (observation row,

        tuple of hidden rows), views of rows; when a step reaches their end
        they double (up to t_max rows), keeping the rows before it. The rows
        of one capacity are a zip, so no Python frame runs per step; the
        generator of zips resumes once per growth.
        """
        if self.capacity >= t_max:
            return self._rows_from(0)
        return chain.from_iterable(self._growths(t_max))

    def _rows_from(self, start: int):
        obs, *hidden = (r[start:] for r in self.rows) if start else self.rows
        return zip(obs, zip(*hidden) if hidden else repeat(()))

    def _growths(self, t_max: int):
        start = 0
        while True:
            if start == self.capacity:
                self.capacity = min(t_max, max(FIRST_ROWS, 2 * start))
                grown = [np.empty((self.capacity, width)) for width in self.spec.dims[:-1]]
                for new, old in zip(grown, self.rows):
                    new[:start] = old[:start]
                self.rows = grown
            yield self._rows_from(start)
            start = self.capacity


def control_law_pass(traj: TrajectoryRecord, params: PolicyParams, scn: Scenario) -> tuple:
    """The control law's part of traj's reverse sweep under params on scn:

    (du_dx, scratch, param_pullback). The policy's forward pass at every
    state of the tape is read off traj's recording when traj's positions,
    backlogs and controls are the arrays of the latest float tape of the
    controller whose Workspace it links to, scn is that controller's own
    scenario, and params has the spec and, bit for bit, the flat vector the
    tape was rolled out with; the sweep then works in that workspace's
    scratch, with the run's layers and observation Jacobian, made at its
    first sweep. Any other tape (a replay, a step-loop tape, a record built
    by hand, an earlier tape of the controller, other parameters) has the
    pass recomputed from its states in one batched pass, in a new scratch,
    and raises ScenarioError unless the headings it gives are the tape's,
    bit for bit. Both give the same bits.

    du_dx (T, 2, 2+K), the control law's Jacobian diag(h_t) J_t O (head
    slope, policy input Jacobian, observation Jacobian), is a view of
    scratch.du_dx; the adjoint recurrence may then take scratch.matrices.
    param_pullback(cotangents) returns the parameter gradient of the action
    cotangents (T, 2), a new array. It overwrites the derivative factors
    and scratch.work, so it runs once, after the recurrence.
    """
    ws = None if traj.recording is None else traj.recording()
    tape = None if ws is None else ws.tape
    if (tape is not None and tape[0] is traj.positions and tape[1] is traj.backlogs and tape[2] is traj.controls
            and scn is ws.scn and params.spec == ws.spec
            and np.array_equal(params.flat.view(np.int64), ws.flat.view(np.int64))):
        if ws.scratch is None:
            ws.scratch = SweepScratch(ws.spec, scn.k)
            ws.layers = _layer_views(ws.flat, ws.spec)
            ws.obs_jac = observation_jacobian(scn)
        layers, acts, z0 = ws.layers, [r[: traj.steps] for r in ws.rows], np.array(ws.z0)
        obs_jac, scratch = ws.obs_jac, ws.scratch
    else:
        layers = unpack(params)
        acts = activations(layers, observations(traj.positions[:-1], traj.backlogs[:-1], scn))
        if not np.array_equal(acts[-1][:, 1], traj.controls[:, 1]):
            raise ScenarioError("trajectory record was rolled out with different params")
        acts, z0 = acts[:-1], acts[-1][:, 0]
        obs_jac, scratch = observation_jacobian(scn), SweepScratch(params.spec, scn.k)
    scratch.fit(traj.steps)
    slopes = head_slopes(z0, params.v_max)
    ders = derivative_factors(acts[1:], scratch.ders)
    du_dx = input_jacobians(layers, ders, slopes, obs_jac, scratch)
    return du_dx, scratch, lambda cotangents: pullback(layers, acts, ders, slopes * cotangents, scratch)[0]


class PolicyController:
    """Adapter giving the rollout loop a (t, state) -> Control callable; unpacks

    the layers once. Its workspace, made at its first float tape, holds the
    forward pass of its latest tape and the reverse sweep's scratch.
    """

    def __init__(self, params: PolicyParams, scn: Scenario):
        if params.spec.k != scn.k:
            raise ScenarioError(
                f"policy built for K={params.spec.k} cannot run on a K={scn.k} scenario"
            )
        if params.v_max != scn.v_max:
            raise ScenarioError(
                f"policy speed scale {params.v_max} does not match scenario v_max {scn.v_max}"
            )
        self.params = params
        self.scn = scn
        self.layers = unpack(params)
        self.flat = params.flat  # the array the layers are views of
        # what policy_tape observes, in floats: the scale 2/area_side and (w0, w1, demand) per user
        self.scale = 2.0 / scn.area_side
        self.users = [(w0, w1, m) for (w0, w1), m in zip(scn.user_positions.tolist(), scn.demands.tolist())]
        self.workspace: Optional[Workspace] = None

    def __call__(self, t: int, x: State) -> Control:
        obs = observations(x.q, x.d, self.scn)
        return _control(activations(self.layers, obs)[-1], self.params.v_max)

    def check_scenario(self, scn: Scenario) -> None:
        """Raise ScenarioError unless scn is the scenario the controller was

        built for or an equal copy of it (the seed, a label, aside): the
        controller observes its own scenario's users and demands.
        """
        own = self.scn
        if scn is own:
            return
        if scn.k != own.k:
            raise ScenarioError(f"policy built for a K={own.k} scenario cannot run on a K={scn.k} scenario")
        for f in fields(Scenario):
            a, b = getattr(own, f.name), getattr(scn, f.name)
            if f.name != "seed" and not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                raise ScenarioError(
                    f"policy built for another scenario: its {f.name} differs from the rollout's"
                )


def policy_tape(ctl: PolicyController, scn: Scenario, t_max: int, threshold: float) -> Optional[tuple]:
    """env._step_loop's result for ctl on scn, its own scenario or an equal

    copy, computed with the state in Python floats, or None when a step
    before termination would raise (non-finite or out-of-range control,
    non-finite state) or (d2 + H^2) * sigma2 underflows to zero; _step_loop
    then runs the rollout. The tape is (positions, backlogs, controls,
    terminated, recording): rollout reads the clamp masks off the
    backlogs, and recording is a weak reference to ctl's Workspace.

    Each step repeats the per-step loop's arithmetic, in its order, one
    float at a time, in one pass over the K users: it builds the
    observation, laid out and rounded as observations lays it out, and
    the K rate arguments eta / ((d2 + H^2) * sigma2) + 1.0 of
    env.rate_argument, d2 = o0 * o0 + o1 * o1 of the offsets (o0, o1)
    = w_i - q, whose sign squares away. The drained backlogs are clamped
    as np.maximum(0.0, x) rounds them (0.0 if x < 0.0 else x: -0.0 and
    NaN pass through), in a plain loop; the speed and the move are
    _sigmoid's and env.move's operations in their order, written out, so
    no Python frame runs inside a step, and the functions a step calls are
    bound to locals. The controller observes its own scenario's users and
    demands and the vehicle starts from scn's; the users only enter the
    rates squared, so an equal copy's zeros of either sign drain alike.
    What float arithmetic would round differently stays in numpy: each
    hidden layer is w.dot(a, out), np.dot's routine without its
    dispatcher, which rounds like w @ a, plus the bias, then np.tanh; one
    np.log2 takes the list of the K rate arguments.
    While one backlog reaches the threshold the backlog sum cannot be
    below it (a sum of non-negative terms is at least each of them), so
    np.sum runs only when none does; a NaN fails the >= and falls
    through to it. The rows become arrays once, at the end.

    The forward pass is recorded in ctl's Workspace as it runs: a copy of
    the parameter values, each step's observation and hidden activations,
    computed straight into the workspace's rows, and its raw speed-head
    output. A tape that comes back becomes the workspace's current tape,
    whose reverse sweep reads them (control_law_pass); a None leaves none.
    """
    if ctl.workspace is None:
        ctl.workspace = Workspace(ctl.params.spec, ctl.scn)
    ws = ctl.workspace
    ws.tape = None  # the rows below are overwritten
    layers = ctl.layers
    k, v_max, tau = scn.k, ctl.params.v_max, scn.tau
    eta, sigma2, bk = scn.eta, scn.sigma2, scn.bandwidth / scn.k
    h2 = scn.altitude**2  # finite: Scenario rejects an altitude whose square overflows
    if not h2 * sigma2 > 0.0:
        return None  # a float eta / 0.0 raises where the loop's array gives inf

    np.copyto(ws.flat, ctl.flat)  # the values the layers hold, even if params.flat was rebound since
    s, users = ctl.scale, ctl.users
    *hidden, (w_head, b_head) = layers
    b0, b1 = b_head.tolist()
    # one buffer: the K rates (log2 of the rate arguments) and the head
    buf = np.empty(k + 2)
    logs, head = buf[:k], buf[k:]
    q0 = q1 = 0.0
    d = scn.demands.tolist()
    positions, backlogs, controls, z0s = [q0, q1], list(d), [], []
    witness = 0  # the index of a backlog >= threshold, when there is one
    terminated = None

    tanh, cos, sin, isfinite, np_tanh, log2 = math.tanh, math.cos, math.sin, math.isfinite, np.tanh, np.log2
    with np.errstate(all="ignore"):  # the loop re-runs a failing tape and warns as it goes
        for t, (obs_row, outs) in zip(range(t_max), ws.step_rows(t_max)):
            if not d[witness] >= threshold:
                witness = max(range(k), key=d.__getitem__)
                if not d[witness] >= threshold and float(np.sum(d)) < threshold:
                    terminated = t
                    break
            obs, fractions, args = [q0 * s, q1 * s], [], []
            for (w0, w1, m), backlog in zip(users, d):
                o0 = w0 - q0
                o1 = w1 - q1
                obs += (o0 * s, o1 * s)
                fractions.append(backlog / m if m > 0.0 else 0.0)
                args.append(eta / ((o0 * o0 + o1 * o1 + h2) * sigma2) + 1.0)
            obs += fractions
            obs_row[:] = obs
            log2(args, logs)
            a = obs_row
            for (w, b), out in zip(hidden, outs):
                w.dot(a, out)
                out += b
                a = np_tanh(out, out)
            w_head.dot(a, head)
            *rates, z0, theta = buf.tolist()
            z0 += b0
            theta += b1
            v = v_max * (0.5 * (1.0 + tanh(0.5 * z0)))  # v_max * _sigmoid(z0)
            if not (0.0 <= v <= v_max and isfinite(theta)):
                return None  # math.cos(inf) would raise
            drained = []
            for y, rate in zip(d, rates):
                drained.append(0.0 if (x := y - rate * bk * tau) < 0.0 else x)
            d = drained
            step = v * tau  # env.move(v, theta, tau)
            q0 += step * cos(theta)
            q1 += step * sin(theta)
            positions += (q0, q1)
            backlogs += d
            controls += (v, theta)
            z0s.append(z0)
        else:
            if float(np.sum(d)) < threshold:
                terminated = t_max

    positions, backlogs, controls = (_rows(a, width) for a, width in ((positions, 2), (backlogs, k), (controls, 2)))
    # one check over the finished tape: the loop raises at the first
    # non-finite row it makes, and it makes every row of the tape
    if not (np.isfinite(positions).all() and np.isfinite(backlogs).all()):
        return None
    ws.tape, ws.z0 = (positions, backlogs, controls), z0s
    return positions, backlogs, controls, terminated, weakref.ref(ws)


def _rows(flat: list, width: int) -> np.ndarray:
    """The floats of flat as an array of rows of width floats, owning its data."""
    rows = np.empty((len(flat) // width, width))
    rows.reshape(-1)[:] = flat
    return rows


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(params: PolicyParams, path: str) -> None:
    data = {
        "format": CHECKPOINT_FORMAT,
        "k": params.spec.k,
        "hidden": list(params.spec.hidden),
        "v_max": params.v_max,
        "seed": params.seed,
        "params": params.flat.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
        fh.write("\n")


def load_checkpoint(path: str) -> PolicyParams:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("format") != CHECKPOINT_FORMAT:
        raise ScenarioError(f"unrecognized checkpoint format in {path}")
    spec = LayerSpec(k=int(data["k"]), hidden=tuple(data["hidden"]))
    return PolicyParams(
        flat=np.asarray(data["params"], dtype=np.float64),
        spec=spec,
        v_max=float(data["v_max"]),
        seed=data.get("seed"),
    )
