"""Reverse-sweep gradient oracles.

Every analytic quantity is checked against test-local finite differences
of independent re-rollouts. Instances keep backlogs far from the clamp
kink and never terminate inside the horizon, so FD probes see a smooth
objective. The closed-loop sweep over the array tape is also checked
against a per-step sweep kept here as an oracle, to within the rounding
of summing the same per-step terms in another order.
"""
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aavtraj import (
    Control,
    NumericFailure,
    Scenario,
    ScenarioError,
    State,
    TrajectoryRecord,
    backward_closedloop,
    backward_openloop,
    generate_scenario,
    init_params,
    rollout,
)
from aavtraj.adjoint import (
    GradientBundle,
    _costates,
    cost_grad_state,
    jacobian_control,
    jacobian_state,
)
from aavtraj.baselines import SequenceController
from aavtraj.env import initial_state, stage_cost, step
from aavtraj import policy
from aavtraj.policy import (PolicyController, _sigmoid, activations, control_law_pass, observation_jacobian,
                            observations, observe, unpack, vjp)
from aavtraj.smoothing import smoothness_grads, smoothness_penalty
from oracles import as_vector, costates_by_matmul, hamiltonian, rate_gradients_at, step_and_mask


def smooth_scn(k=2, seed=0, dist_weight=0.01):
    """Large demands so no user clamps or completes inside short horizons."""
    rng = np.random.default_rng(seed)
    return Scenario(
        user_positions=rng.uniform(-4, 4, size=(k, 2)),
        demands=rng.uniform(40.0, 60.0, size=k),
        area_side=10.0, eta=1.0, sigma2=0.1, altitude=1.0, bandwidth=None,
        tau=1.0, v_max=0.2, dist_weight=dist_weight, seed=seed)


def random_controls(rng, t_len, v_max=0.2):
    return np.column_stack([rng.uniform(0.01, v_max - 0.01, t_len),
                            rng.uniform(-math.pi, math.pi, t_len)])


def sequence_cost(controls, scn, t_len):
    traj = rollout(SequenceController(controls), scn, t_len, 1e-12)
    assert traj.steps == t_len
    return float(sum(traj.stage_costs))


def record_of(scn, states, controls, masks, completion, terminated):
    """A tape built by hand from lists of State, Control and mask."""
    return TrajectoryRecord(
        positions=np.array([x.q for x in states]),
        backlogs=np.array([x.d for x in states]),
        controls=np.array([(u.v, u.theta) for u in controls]).reshape(-1, 2),
        active_masks=np.array(masks).reshape(-1, scn.k),
        stage_costs=np.array([stage_cost(x, scn) for x in states[1:]]),
        completion_step=completion, terminated_step=terminated)


class TestJacobians:
    def test_state_jacobian_matches_fd(self):
        scn = smooth_scn(k=3, seed=1)
        rng = np.random.default_rng(2)
        x = State(q=rng.uniform(-2, 2, 2), d=rng.uniform(30, 50, 3))
        u = Control(0.17, 0.8)
        _, mask = step_and_mask(x, u, scn)
        a_mat = jacobian_state(x, u, mask, scn)
        assert a_mat.shape == (5, 5)
        h = 1e-6
        base = as_vector(x)
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            xp = step(State(q=(base + e)[:2], d=(base + e)[2:]), u, scn)
            xm = step(State(q=(base - e)[:2], d=(base - e)[2:]), u, scn)
            fd = (as_vector(xp) - as_vector(xm)) / (2 * h)
            assert np.allclose(a_mat[:, j], fd, rtol=1e-6, atol=1e-9)

    def test_state_jacobian_blocks(self):
        scn = smooth_scn(k=2, seed=3)
        x = State(q=np.array([0.5, -0.5]), d=np.array([40.0, 50.0]))
        u = Control(0.1, 0.0)
        _, mask = step_and_mask(x, u, scn)
        a_mat = jacobian_state(x, u, mask, scn)
        assert np.array_equal(a_mat[:2, :2], np.eye(2))  # position carries over
        assert np.all(a_mat[:2, 2:] == 0.0)              # backlog cannot move it
        assert np.array_equal(np.diag(a_mat[2:, 2:]), mask.astype(float))

    def test_clamped_user_row_is_dead(self):
        # one zero-demand user: its backlog row must not respond to anything
        scn = smooth_scn(k=2, seed=4)
        x = State(q=np.zeros(2), d=np.array([45.0, 0.0]))
        u = Control(0.05, 1.0)
        _, mask = step_and_mask(x, u, scn)
        assert mask[1] == 0
        a_mat = jacobian_state(x, u, mask, scn)
        assert np.all(a_mat[3, :] == 0.0)

    def test_control_jacobian_matches_fd(self):
        scn = smooth_scn(k=2, seed=5)
        x = State(q=np.array([1.0, 0.5]), d=np.array([40.0, 50.0]))
        u = Control(0.12, -0.7)
        b_mat = jacobian_control(x, u, scn)
        assert b_mat.shape == (4, 2)
        assert np.all(b_mat[2:, :] == 0.0)  # backlog update ignores the control
        h = 1e-7
        for j, bump in enumerate([(h, 0.0), (0.0, h)]):
            up = step(x, Control(u.v + bump[0], u.theta + bump[1]), scn)
            dn = step(x, Control(u.v - bump[0], u.theta - bump[1]), scn)
            fd = (as_vector(up) - as_vector(dn)) / (2 * h)
            assert np.allclose(b_mat[:, j], fd, rtol=1e-6, atol=1e-10)

    def test_cost_grad_matches_fd(self):
        scn = smooth_scn(k=2, seed=6)
        x = State(q=np.array([0.3, -1.2]), d=np.array([42.0, 55.0]))
        g = cost_grad_state(x, scn)
        h = 1e-6
        base = as_vector(x)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (stage_cost(State(q=(base + e)[:2], d=(base + e)[2:]), scn)
                  - stage_cost(State(q=(base - e)[:2], d=(base - e)[2:]), scn)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_cost_grad_zero_subgradient_at_coincidence(self):
        scn = smooth_scn(k=1, seed=7)
        x = State(q=scn.user_positions[0].copy(), d=np.array([40.0]))
        g = cost_grad_state(x, scn)
        assert g[0] == 0.0 and g[1] == 0.0


class TestOpenLoop:
    def test_action_grads_match_sequence_fd(self):
        scn = smooth_scn(k=2, seed=10)
        rng = np.random.default_rng(10)
        t_len = 10
        controls = random_controls(rng, t_len)
        traj = rollout(SequenceController(controls), scn, t_len, 1e-12)
        _, grads = backward_openloop(traj, scn)
        h = 1e-6
        worst = 0.0
        for t in range(t_len):
            for j in range(2):
                bumped = controls.copy()
                bumped[t, j] += h
                up = sequence_cost(bumped, scn, t_len)
                bumped[t, j] -= 2 * h
                dn = sequence_cost(bumped, scn, t_len)
                fd = (up - dn) / (2 * h)
                denom = max(abs(fd), abs(grads[t, j]), 1e-3)
                worst = max(worst, abs(grads[t, j] - fd) / denom)
        assert worst <= 1e-5

    def test_costate_terminal_condition(self):
        scn = smooth_scn(k=2, seed=11)
        rng = np.random.default_rng(11)
        controls = random_controls(rng, 5)
        traj = rollout(SequenceController(controls), scn, 5, 1e-12)
        costates, _ = backward_openloop(traj, scn)
        assert len(costates) == 6
        assert np.array_equal(costates[-1], cost_grad_state(traj.states[-1], scn))

    def test_action_grads_equal_hamiltonian_fd(self):
        scn = smooth_scn(k=2, seed=12)
        rng = np.random.default_rng(12)
        controls = random_controls(rng, 8)
        traj = rollout(SequenceController(controls), scn, 8, 1e-12)
        costates, grads = backward_openloop(traj, scn)
        h = 1e-6
        states = traj.states
        for t in (0, 3, 7):
            x, u = states[t], Control(*traj.controls[t])
            lam_next = costates[t + 1]
            fd_v = (hamiltonian(x, Control(u.v + h, u.theta), lam_next, scn)
                    - hamiltonian(x, Control(u.v - h, u.theta), lam_next, scn)) / (2 * h)
            fd_th = (hamiltonian(x, Control(u.v, u.theta + h), lam_next, scn)
                     - hamiltonian(x, Control(u.v, u.theta - h), lam_next, scn)) / (2 * h)
            assert grads[t, 0] == pytest.approx(fd_v, rel=1e-5, abs=1e-8)
            assert grads[t, 1] == pytest.approx(fd_th, rel=1e-5, abs=1e-8)

    def test_post_completion_controls_have_zero_gradient(self):
        # hand-stepped record that keeps flying after the single user drains
        # at step 3; with no distance shaping the tail controls cannot affect
        # J, while u[0] still matters through the pre-clamp backlog at step 2
        scn = Scenario(user_positions=np.array([[0.0, 0.0]]),
                       demands=np.array([2.5]), area_side=10.0, eta=1.0,
                       sigma2=1.0, altitude=1.0, bandwidth=None, tau=1.0,
                       v_max=0.2, dist_weight=0.0, seed=0)
        x = initial_state(scn)  # colocated rate is exactly 1
        states, controls, masks = [x], [], []
        for t in range(6):
            u = Control(0.1, math.pi / 2)
            x, mask = step_and_mask(x, u, scn)
            states.append(x)
            controls.append(u)
            masks.append(mask)
        traj = record_of(scn, states, controls, masks, [3], None)
        assert states[2].d[0] > 0.0 and states[3].d[0] == 0.0
        _, grads = backward_openloop(traj, scn)
        assert np.any(grads[0] != 0.0)
        assert np.all(grads[3:] == 0.0)

    def test_empty_trajectory(self):
        scn = smooth_scn(k=2, seed=13)
        traj = record_of(scn, [initial_state(scn)], [], [], [None, None], 0)
        costates, grads = backward_openloop(traj, scn)
        assert grads.shape == (0, 2)
        assert np.array_equal(costates[0], np.zeros(4))


class TestClosedLoop:
    def rollout_policy(self, scn, params, t_len):
        ctl = PolicyController(params, scn)
        traj = rollout(ctl, scn, t_len, 1e-12)
        assert traj.steps == t_len
        return traj

    def objective(self, params, scn, t_len, beta, alpha):
        traj = self.rollout_policy(scn, params, t_len)
        j = float(sum(traj.stage_costs))
        if beta:
            j += beta * smoothness_penalty(traj.controls_array(), alpha)
        return j

    def fd_param(self, params, scn, t_len, beta, alpha, idx, h=1e-6):
        saved = params.flat.copy()
        params.flat[idx] = saved[idx] + h
        up = self.objective(params, scn, t_len, beta, alpha)
        params.flat[idx] = saved[idx] - h
        dn = self.objective(params, scn, t_len, beta, alpha)
        params.flat[:] = saved
        return (up - dn) / (2 * h)

    @staticmethod
    def fd_floor(j_value, h=1e-6, tol=1e-5):
        # central differences carry ~eps*|J|/(2h) of cancellation noise;
        # below this scale a relative comparison at tol is meaningless
        eps = np.finfo(np.float64).eps
        return max(1e-3, 10.0 * eps * max(1.0, abs(j_value)) / (2.0 * h) / tol)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_param_grad_matches_fd(self, beta):
        scn = smooth_scn(k=2, seed=20)
        params = init_params(20, k=2, hidden=(8, 4))
        t_len = 10
        traj = self.rollout_policy(scn, params, t_len)
        bundle = backward_closedloop(traj, params, scn, beta=beta, alpha=1e-3)
        assert bundle.param_grad.shape == params.flat.shape
        rng = np.random.default_rng(21)
        idxs = rng.choice(params.flat.size, size=30, replace=False)
        floor = self.fd_floor(bundle.j_total)
        worst = 0.0
        for idx in idxs:
            fd = self.fd_param(params, scn, t_len, beta, 1e-3, idx)
            denom = max(abs(fd), abs(bundle.param_grad[idx]), floor)
            worst = max(worst, abs(bundle.param_grad[idx] - fd) / denom)
        assert worst <= 1e-5

    def test_objective_components(self):
        scn = smooth_scn(k=2, seed=22)
        params = init_params(22, k=2, hidden=(8, 4))
        traj = self.rollout_policy(scn, params, 6)
        bundle = backward_closedloop(traj, params, scn, beta=1.0, alpha=1e-3)
        assert bundle.j_task == pytest.approx(float(sum(traj.stage_costs)), rel=1e-15)
        assert bundle.j_smooth == pytest.approx(
            smoothness_penalty(traj.controls_array(), 1e-3), rel=1e-15)
        assert bundle.j_total == pytest.approx(
            bundle.j_task + bundle.j_smooth, rel=1e-15)

    def test_closedloop_strictly_richer_than_openloop(self):
        # feedback through the policy makes early action grads differ from
        # the open-loop ones (which hold later controls fixed)
        scn = smooth_scn(k=2, seed=23)
        params = init_params(23, k=2, hidden=(8, 4))
        traj = self.rollout_policy(scn, params, 8)
        bundle = backward_closedloop(traj, params, scn)
        _, open_grads = backward_openloop(traj, scn)
        assert np.allclose(bundle.action_grads[-1], open_grads[-1], atol=1e-12)
        assert not np.allclose(bundle.action_grads[0], open_grads[0], atol=1e-10)

    def test_bitwise_deterministic(self):
        scn = smooth_scn(k=2, seed=24)
        params = init_params(24, k=2, hidden=(8, 4))
        traj = self.rollout_policy(scn, params, 10)
        a = backward_closedloop(traj, params, scn, beta=1.0, alpha=1e-3)
        b = backward_closedloop(traj, params, scn, beta=1.0, alpha=1e-3)
        assert np.array_equal(a.param_grad, b.param_grad)
        assert np.array_equal(a.action_grads, b.action_grads)
        assert a.j_total == b.j_total

    def test_default_arch_spot_check(self):
        # production-width network, a handful of sampled coordinates
        scn = smooth_scn(k=2, seed=25)
        params = init_params(25, k=2)
        t_len = 6
        traj = self.rollout_policy(scn, params, t_len)
        bundle = backward_closedloop(traj, params, scn, beta=1.0, alpha=1e-3)
        rng = np.random.default_rng(26)
        floor = self.fd_floor(bundle.j_total)
        for idx in rng.choice(params.flat.size, size=8, replace=False):
            fd = self.fd_param(params, scn, t_len, 1.0, 1e-3, idx)
            denom = max(abs(fd), abs(bundle.param_grad[idx]), floor)
            assert abs(bundle.param_grad[idx] - fd) / denom <= 1e-5


# ---------------------------------------------------------------------------
# the tape sweep against the per-step sweep
# ---------------------------------------------------------------------------


def jacobian_state_per_step(x, mask, scn):
    k = scn.k
    jac = np.zeros((2 + k, 2 + k))
    jac[0, 0] = 1.0
    jac[1, 1] = 1.0
    jac[2:, :2] = -mask[:, None] * scn.tau * rate_gradients_at(x.q, scn)
    jac[2:, 2:] = np.diag(mask)
    return jac


def jacobian_control_per_step(u, scn):
    jac = np.zeros((2 + scn.k, 2))
    c, s = np.cos(u.theta), np.sin(u.theta)
    jac[0, 0] = scn.tau * c
    jac[1, 0] = scn.tau * s
    jac[0, 1] = -u.v * scn.tau * s
    jac[1, 1] = u.v * scn.tau * c
    return jac


def cost_grad_per_step(x, scn):
    grad = np.zeros(2 + scn.k)
    grad[2:] = 1.0
    if scn.dist_weight > 0.0:
        diff = x.q - scn.user_positions
        dist = np.sqrt(np.sum(diff * diff, axis=1))
        nonzero = dist > 0.0
        units = np.zeros_like(diff)
        units[nonzero] = diff[nonzero] / dist[nonzero, None]
        grad[:2] = scn.dist_weight * np.sum(units, axis=0)
    return grad


def vjp_per_step(params, obs, upstream):
    """The policy VJP as one self-contained pass: a fresh forward, then the

    reverse pass, the parameter gradient laid out like the flat vector."""
    layers = unpack(params)
    acts = [obs]
    a = obs
    for w, b in layers[:-1]:
        a = np.tanh(w @ a + b)
        acts.append(a)
    w, b = layers[-1]
    z = w @ a + b
    sig = _sigmoid(float(z[0]))
    delta = np.array([upstream[0] * params.v_max * sig * (1.0 - sig), upstream[1]])
    w_grads = [None] * len(layers)
    b_grads = [None] * len(layers)
    for idx in range(len(layers) - 1, -1, -1):
        w_grads[idx] = np.outer(delta, acts[idx])
        b_grads[idx] = delta
        g_prev = layers[idx][0].T @ delta
        if idx > 0:
            delta = g_prev * (1.0 - acts[idx] ** 2)
        else:
            obs_grad = g_prev
    flat = np.concatenate([np.concatenate([wg.ravel(), bg]) for wg, bg in zip(w_grads, b_grads)])
    return flat, obs_grad


def closedloop_per_step(traj, params, scn, beta, alpha):
    """The closed-loop sweep one step at a time: the observation, the dense

    Jacobians and the cost gradient rebuilt at every step by the per-step
    builders above, and the policy VJP re-running the forward pass."""
    t_len = traj.steps
    controls = traj.controls_array()
    j_task = float(sum(traj.stage_costs.tolist()))
    j_smooth = smoothness_penalty(controls, alpha)
    j_total = j_task + beta * j_smooth
    if t_len == 0:
        return GradientBundle(np.zeros((0, 2)), np.zeros(params.flat.size), j_task, j_smooth, j_total)
    states = traj.states
    s_grads = smoothness_grads(controls, alpha) if beta != 0.0 else np.zeros((t_len, 2))
    obs_jac = observation_jacobian(scn)
    param_grad = np.zeros(params.flat.size)
    action_grads = np.zeros((t_len, 2))
    lam = cost_grad_per_step(states[t_len], scn)
    for t in range(t_len - 1, -1, -1):
        x = states[t]
        u = Control(*controls[t].tolist())
        g_u = jacobian_control_per_step(u, scn).T @ lam + beta * s_grads[t]
        action_grads[t] = g_u
        p_grad, o_grad = vjp_per_step(params, observe(x, scn), g_u)
        param_grad += p_grad
        lam = jacobian_state_per_step(x, traj.active_masks[t], scn).T @ lam + obs_jac.T @ o_grad
        if t >= 1:
            lam = lam + cost_grad_per_step(x, scn)
    return GradientBundle(action_grads, param_grad, j_task, j_smooth, j_total)


def assert_bitwise(got, want):
    assert got.action_grads.tobytes() == want.action_grads.tobytes()
    assert got.param_grad.tobytes() == want.param_grad.tobytes()
    assert (got.j_task, got.j_smooth, got.j_total) == (want.j_task, want.j_smooth, want.j_total)


def assert_array_reordered(got, want, t_len):
    """got holds the same per-step terms as want, summed in another order

    along at most t_len steps: max|got - want| <= 8 * t_len * eps * max|want|.
    """
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 8 * t_len * 2.22e-16 * np.abs(want).max()


def assert_reordered(got, want, t_len):
    """A sweep against the per-step oracle: gradients within the reordering

    bound, objective values bit for bit."""
    assert_array_reordered(got.action_grads, want.action_grads, t_len)
    assert_array_reordered(got.param_grad, want.param_grad, t_len)
    assert (got.j_task, got.j_smooth, got.j_total) == (want.j_task, want.j_smooth, want.j_total)


class TestPullback:
    @pytest.mark.parametrize("hidden", [(8,), (64, 64, 32)])
    def test_vjp_matches_per_step_vjp(self, hidden):
        scn = generate_scenario(40, k=3)
        params = init_params(40, k=3, hidden=hidden)
        rng = np.random.default_rng(41)
        for _ in range(5):
            obs = observe(State(q=rng.uniform(-5.0, 5.0, 2), d=rng.uniform(0.0, 1.0, 3)), scn)
            upstream = rng.normal(0.0, 1.0, 2)
            got, want = vjp(params, obs, upstream), vjp_per_step(params, obs, upstream)
            for g, w in zip(got, want):
                assert_array_reordered(g, w, 1)


def policy_tape(scn, params, t_max):
    return rollout(PolicyController(params, scn), scn, t_max, 1e-3)


def openloop(traj, params, scn):
    return backward_openloop(traj, scn)


SWEEPS = [backward_closedloop, openloop]


class TestTapeSweep:
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("preset", ["default", "long"])
    @pytest.mark.parametrize("k", [1, 2, 4, 10])
    def test_matches_per_step_sweep(self, k, preset, beta):
        demands = {"default": (0.5, 1.0), "long": (20.0, 40.0)}[preset]
        scn = generate_scenario(k, k=k, demand_lo=demands[0], demand_hi=demands[1])
        params = init_params(100 + k, k=k, hidden=(16, 12, 8))
        traj = policy_tape(scn, params, 150)
        assert traj.steps >= 1
        want = closedloop_per_step(traj, params, scn, beta, 1e-3)
        assert_reordered(backward_closedloop(traj, params, scn, beta=beta, alpha=1e-3), want, traj.steps)

    def test_default_width_long_mission(self):
        scn = generate_scenario(0, k=4, demand_lo=20.0, demand_hi=40.0)
        params = init_params(7, k=4)
        traj = policy_tape(scn, params, 120)
        want = closedloop_per_step(traj, params, scn, 1.0, 1e-3)
        assert_reordered(backward_closedloop(traj, params, scn, beta=1.0, alpha=1e-3), want, traj.steps)

    def test_default_width_ten_users_500_steps(self):
        # the longest tape and the widest state: reordering error accumulates most
        scn = generate_scenario(10, k=10, demand_lo=20.0, demand_hi=40.0)
        params = init_params(110, k=10)
        traj = policy_tape(scn, params, 500)
        assert traj.steps == 500
        for beta in (0.0, 1.0):
            want = closedloop_per_step(traj, params, scn, beta, 1e-3)
            assert_reordered(backward_closedloop(traj, params, scn, beta=beta, alpha=1e-3), want, 500)

    def test_zero_demand_user_and_clamps_mid_mission(self):
        # users drain one after another, one has nothing to send at all
        scn = Scenario(user_positions=np.array([[0.5, 0.0], [-1.0, 1.0], [2.0, -2.0], [0.0, 3.0]]),
                       demands=np.array([0.8, 0.0, 4.0, 15.0]), area_side=10.0, seed=0)
        params = init_params(5, k=4, hidden=(16, 8))
        traj = policy_tape(scn, params, 60)
        masks = traj.active_masks
        assert masks[0, 1] == 0.0
        clamped_mid = (masks[:-1] == 1.0) & (masks[1:] == 0.0)
        assert clamped_mid.any(axis=0).sum() >= 2
        for beta in (0.0, 1.0):
            want = closedloop_per_step(traj, params, scn, beta, 1e-3)
            assert_reordered(backward_closedloop(traj, params, scn, beta=beta, alpha=1e-3), want, traj.steps)

    def test_empty_tape(self):
        scn = generate_scenario(0, k=3, demand_lo=0.0, demand_hi=0.0)
        params = init_params(0, k=3, hidden=(8,))
        traj = policy_tape(scn, params, 20)
        assert traj.steps == 0
        got = backward_closedloop(traj, params, scn, beta=1.0, alpha=1e-3)
        assert got.action_grads.shape == (0, 2)
        assert_bitwise(got, closedloop_per_step(traj, params, scn, 1.0, 1e-3))

    def test_single_step_tape(self):
        scn = generate_scenario(3, k=2)
        params = init_params(3, k=2, hidden=(8, 4))
        traj = policy_tape(scn, params, 1)
        assert traj.steps == 1
        for beta in (0.0, 1.0):
            want = closedloop_per_step(traj, params, scn, beta, 1e-3)
            assert_reordered(backward_closedloop(traj, params, scn, beta=beta, alpha=1e-3), want, traj.steps)

    def test_openloop_matches_per_step_sweep(self):
        scn = Scenario(user_positions=np.array([[0.5, 0.0], [-1.0, 1.0], [2.0, -2.0]]),
                       demands=np.array([0.8, 0.0, 4.0]), area_side=10.0, seed=0)
        traj = rollout(SequenceController(random_controls(np.random.default_rng(33), 30)), scn, 30, 1e-3)
        states = traj.states
        lam = cost_grad_per_step(states[-1], scn)
        want_costates, want_grads = [lam], np.zeros((traj.steps, 2))
        for t in range(traj.steps - 1, -1, -1):
            u = Control(*traj.controls[t].tolist())
            want_grads[t] = jacobian_control_per_step(u, scn).T @ lam
            lam = jacobian_state_per_step(states[t], traj.active_masks[t], scn).T @ lam
            if t >= 1:
                lam = lam + cost_grad_per_step(states[t], scn)
            want_costates.append(lam)
        costates, grads = backward_openloop(traj, scn)
        assert grads.tobytes() == want_grads.tobytes()
        assert np.array(costates).tobytes() == np.array(want_costates[::-1]).tobytes()

    def test_replayed_policy_controls_give_the_same_gradient(self):
        # the tape records the environment only, so replaying a policy's
        # controls open loop gives the same tape and the same sweep
        scn = generate_scenario(30, k=3, demand_lo=5.0, demand_hi=8.0)
        params = init_params(30, k=3, hidden=(8, 6))
        traj = policy_tape(scn, params, 40)
        replay = rollout(SequenceController(traj.controls), scn, traj.steps, 1e-3)
        for field in ("positions", "backlogs", "controls", "active_masks", "stage_costs"):
            assert getattr(replay, field).tobytes() == getattr(traj, field).tobytes()
        assert (replay.completion_step, replay.terminated_step) == (traj.completion_step, traj.terminated_step)
        for beta in (0.0, 1.0):
            assert_bitwise(backward_closedloop(replay, params, scn, beta=beta, alpha=1e-3),
                           backward_closedloop(traj, params, scn, beta=beta, alpha=1e-3))

    def test_tape_of_other_params_raises(self):
        scn = smooth_scn(k=2, seed=31)
        params = init_params(31, k=2, hidden=(8,))
        traj = policy_tape(scn, params, 5)
        same_values = replace(params, flat=params.flat.copy())
        assert_bitwise(backward_closedloop(traj, same_values, scn), backward_closedloop(traj, params, scn))
        heading_bias = replace(params, flat=params.flat.copy())
        heading_bias.flat[-1] += 1e-9
        for other in (init_params(32, k=2, hidden=(8,)), heading_bias):
            with pytest.raises(ScenarioError, match="different params"):
                backward_closedloop(traj, other, scn)

    def test_nonfinite_costate_raises_at_its_step(self):
        scn = smooth_scn(k=2, seed=32)
        params = init_params(32, k=2, hidden=(8,))
        traj = policy_tape(scn, params, 6)
        traj.active_masks[3, 0] = np.inf  # the policy never reads it; the pullback at step 3 does
        for sweep in SWEEPS:
            with pytest.raises(NumericFailure) as exc, np.errstate(invalid="ignore"):
                sweep(traj, params, scn)
            assert (exc.value.step, exc.value.where) == (3, "backward")

    @pytest.mark.parametrize("t_len", [1, 2, 500])
    @pytest.mark.parametrize("k", [1, 3, 4, 10, 20])
    def test_costates_are_the_matmul_recurrence(self, k, t_len):
        # each step's later.dot(m, tmp) rounds as later @ m did, open and closed loop, with and without extra rows
        # with K > 1, user 0 drains within the tape, so its backlog rows clamp; the others keep the mission going
        scn = generate_scenario(36, k=k, demand_lo=2000.0, demand_hi=4000.0)
        if k > 1:
            scn = replace(scn, demands=np.concatenate([[2.0], scn.demands[1:]]))
        params = init_params(36, k=k, hidden=(16, 8))
        traj = policy_tape(scn, params, t_len)
        assert traj.steps == t_len and (t_len < 500 or k == 1 or not traj.active_masks[:, 0].all())
        du_dx, scratch, _ = control_law_pass(traj, params, scn)
        extra = np.random.default_rng(k * t_len).normal(0.0, 3.0, (t_len, 2 + k))
        for args in ((None, None), (du_dx, None), (du_dx, extra)):
            want = costates_by_matmul(traj, scn, *args)
            for got in (_costates(traj, scn, *args), _costates(traj, scn, *args, scratch)):
                assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()

    def test_costates_fail_at_the_oracles_step(self):
        # e_t of 1e308 at steps 7 and 6 on user 1's backlog: lam_7 stays finite, lam_6 overflows
        scn = smooth_scn(k=3, seed=37)
        params = init_params(37, k=3, hidden=(8,))
        traj = policy_tape(scn, params, 12)
        du_dx, scratch, _ = control_law_pass(traj, params, scn)
        extra = np.zeros((12, 5))
        extra[6:8, 3] = 1e308
        for args in ((None, extra), (du_dx, extra)):
            with np.errstate(all="ignore"):
                with pytest.raises(NumericFailure) as want:
                    costates_by_matmul(traj, scn, *args)
                with pytest.raises(NumericFailure) as got:
                    _costates(traj, scn, *args, scratch)
            assert (got.value.step, got.value.where) == (want.value.step, want.value.where) == (6, "backward")

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_tape_of_other_k_raises(self, sweep):
        params = init_params(33, k=2, hidden=(8,))
        traj = policy_tape(generate_scenario(33, k=4), init_params(33, k=4, hidden=(8,)), 4)
        with pytest.raises(ScenarioError, match="'backlogs' has shape"):
            sweep(traj, params, generate_scenario(33, k=2))

    @pytest.mark.parametrize("field", ["positions", "backlogs", "controls", "active_masks", "stage_costs"])
    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_field_of_wrong_shape_raises(self, sweep, field):
        scn = generate_scenario(34, k=3)
        params = init_params(34, k=3, hidden=(8,))
        traj = policy_tape(scn, params, 4)
        arr = getattr(traj, field)
        setattr(traj, field, arr[:-1] if arr.ndim == 1 else np.hstack([arr, arr[:, :1]]))
        with pytest.raises(ScenarioError, match=f"'{field}' has shape"):
            sweep(traj, params, scn)

    def test_constant_policy_sweeps_like_the_open_loop(self):
        # zero first-layer weights: the policy ignores the state, du_dx = 0 and
        # M_t = A_t, so at beta = 0 both sweeps run the same recurrence
        scn = smooth_scn(k=3, seed=35)
        params = init_params(35, k=3, hidden=(8, 6))
        params.flat[:] = np.random.default_rng(35).normal(0.0, 0.5, params.flat.size)
        unpack(params)[0][0][:] = 0.0
        traj = policy_tape(scn, params, 40)
        assert traj.steps == 40 and np.unique(traj.controls, axis=0).shape[0] == 1
        _, open_grads = backward_openloop(traj, scn)
        got = backward_closedloop(traj, params, scn, beta=0.0)
        assert_array_reordered(got.action_grads, open_grads, 1)


def reads_recording(traj, params, scn, ctl):
    """Whether control_law_pass sweeps traj from ctl's recording: the scratch it returns is ctl's own."""
    scratch = control_law_pass(traj, params, scn)[1]
    return scratch is ctl.workspace.scratch


class TestRecordedPass:
    """The latest float tape of a live PolicyController is swept from the

    forward pass policy_tape recorded in the controller's workspace, in
    arrays the workspace holds; every other tape recomputes the pass
    (policy.control_law_pass decides). The reference here is the
    recompute, on a record without the recording.
    """

    @given(seed=st.integers(0, 2**16), k=st.integers(1, 10),
           hidden=st.sampled_from([(), (8,), (16, 12), (64, 64, 32)]), beta=st.sampled_from([0.0, 1.0]),
           t_max=st.integers(1, 120), long=st.booleans(), first_rows=st.integers(1, 70))
    @settings(max_examples=60, deadline=None)
    def test_recorded_rows_and_bundle_equal_a_recompute(self, seed, k, hidden, beta, t_max, long, first_rows):
        scn = generate_scenario(seed, k=k, demand_lo=20.0 if long else 0.5, demand_hi=40.0 if long else 1.0)
        params = init_params(seed, k, hidden=hidden, v_max=scn.v_max)
        ctl = PolicyController(params, scn)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(policy, "FIRST_ROWS", first_rows)  # the rows grow within the tape
            traj = rollout(ctl, scn, t_max, 1e-3)
        du_dx, scratch, _ = control_law_pass(traj, params, scn)
        ws = ctl.workspace
        assert scratch is ws.scratch
        acts, z0 = [r[: traj.steps] for r in ws.rows], np.array(ws.z0)
        want = activations(unpack(params), observations(traj.positions[:-1], traj.backlogs[:-1], scn))
        assert len(acts) == len(want) - 1
        for got_rows, want_rows in zip([*acts, z0], [*want[:-1], want[-1][:, 0]]):
            assert got_rows.tobytes() == want_rows.tobytes()
        copy = replace(params, flat=params.flat.copy())
        assert du_dx.tobytes() == control_law_pass(replace(traj, recording=None), copy, scn)[0].tobytes()
        got = backward_closedloop(traj, params, scn, beta=beta, alpha=1e-3)
        assert_bitwise(got, backward_closedloop(replace(traj, recording=None), copy, scn, beta=beta, alpha=1e-3))
        # the sweep leaves the recording as it found it
        assert_bitwise(backward_closedloop(traj, params, scn, beta=beta, alpha=1e-3), got)

    def test_a_second_rollout_leaves_the_first_record_and_bundle_unchanged(self):
        scn = generate_scenario(0, k=4, demand_lo=20.0, demand_hi=40.0)
        params = init_params(0, k=4, hidden=(16, 8), v_max=scn.v_max)
        ctl = PolicyController(params, scn)
        first = rollout(ctl, scn, 60, 1e-3)
        bundle = backward_closedloop(first, params, scn, beta=1.0)
        fields = ("positions", "backlogs", "controls", "active_masks", "stage_costs")
        saved = [getattr(first, f).copy() for f in fields] + [bundle.action_grads.copy(), bundle.param_grad.copy()]
        params.flat *= 1.01  # in place, as train's optimizer step
        second = rollout(ctl, scn, 60, 1e-3)
        later = backward_closedloop(second, params, scn, beta=1.0)
        now = [getattr(first, f) for f in fields] + [bundle.action_grads, bundle.param_grad]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(saved, now))
        with pytest.raises(ScenarioError, match="different params"):  # recomputed, so its headings are checked
            control_law_pass(first, params, scn)
        assert reads_recording(second, params, scn, ctl)
        ws = ctl.workspace
        held = [ws.flat, *ws.rows, ws.scratch.work, ws.scratch.du_dx, *ws.scratch.ders]
        handed = [getattr(second, f) for f in fields] + [later.action_grads, later.param_grad]
        assert not any(np.shares_memory(a, h) for a in handed for h in held)
        # the earlier tape is recomputed, under the values it was rolled out with
        params.flat /= 1.01
        with pytest.raises(ScenarioError, match="different params"):
            backward_closedloop(first, replace(params, flat=params.flat * 1.01), scn)

    def test_which_tapes_read_the_recording(self):
        scn = smooth_scn(k=3, seed=36)
        params = init_params(36, k=3, hidden=(8,))
        ctl = PolicyController(params, scn)
        traj = rollout(ctl, scn, 20, 1e-3)
        assert reads_recording(traj, replace(params, flat=params.flat.copy()), scn, ctl)  # equal bits
        signed_zero = params.flat.copy()
        signed_zero[-1] = -0.0  # equal in value to the heading bias 0.0, not in bits
        others = [
            (traj, replace(params, flat=signed_zero), scn),
            (traj, params, replace(scn)),  # an equal copy of the controller's scenario
            (replace(traj, controls=traj.controls.copy()), params, scn),
            (rollout(SequenceController(traj.controls), scn, 20, 1e-3), params, scn),
            (pickle.loads(pickle.dumps(traj)), params, scn),
        ]
        for other in others:
            assert not reads_recording(*other, ctl)
            assert_bitwise(backward_closedloop(*other), backward_closedloop(traj, params, scn))
        # a step-loop tape leaves no current recording
        with np.errstate(under="ignore"):
            tiny = replace(scn, altitude=1e-160, sigma2=1e-160)
            assert rollout(PolicyController(params, tiny), tiny, 5, 1e-3).recording is None

        class Subclass(PolicyController):
            pass

        assert rollout(Subclass(params, scn), scn, 5, 1e-3).recording is None
        params.flat[-1] += 1e-9  # in place, after the rollout
        with pytest.raises(ScenarioError, match="different params"):
            control_law_pass(traj, params, scn)
        with pytest.raises(ScenarioError, match="different params"):
            backward_closedloop(traj, params, scn)
        # a flat vector rebound after the controller was built: its layers still
        # view the old one, and the rollout runs them
        rebound = init_params(37, k=3, hidden=(8,))
        ctl = PolicyController(rebound, scn)
        rebound.flat = rebound.flat * 2.0
        traj = rollout(ctl, scn, 20, 1e-3)
        with pytest.raises(ScenarioError, match="different params"):
            control_law_pass(traj, rebound, scn)
        with pytest.raises(ScenarioError, match="different params"):
            backward_closedloop(traj, rebound, scn)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_a_zero_step_tape_reads_its_recording_and_equals_a_recompute(self, beta):
        scn = replace(generate_scenario(38, k=3), demands=np.zeros(3))
        params = init_params(38, k=3, hidden=(8, 6), v_max=scn.v_max)
        ctl = PolicyController(params, scn)
        traj = rollout(ctl, scn, 20, 1e-3)
        assert traj.steps == 0 and traj.recording is not None
        got = backward_closedloop(traj, params, scn, beta=beta)
        assert got.action_grads.shape == (0, 2) and reads_recording(traj, params, scn, ctl)
        copy = replace(params, flat=params.flat.copy())
        assert_bitwise(got, backward_closedloop(replace(traj, recording=None), copy, scn, beta=beta))

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_a_longer_second_tape_grows_the_rows_and_equals_a_recompute(self, beta):
        scn = generate_scenario(39, k=4, demand_lo=20.0, demand_hi=40.0)
        params = init_params(39, k=4, hidden=(16, 8), v_max=scn.v_max)
        ctl = PolicyController(params, scn)
        first = rollout(ctl, scn, 10, 1e-3)
        backward_closedloop(first, params, scn, beta=beta)
        ws = ctl.workspace
        assert first.steps == ws.capacity == ws.scratch.rows == 10
        second = rollout(ctl, scn, 300, 1e-3)
        assert second.steps > 2 * policy.FIRST_ROWS and ws.capacity >= second.steps  # grown twice
        got = backward_closedloop(second, params, scn, beta=beta)
        assert reads_recording(second, params, scn, ctl) and ws.scratch.rows == second.steps
        copy = replace(params, flat=params.flat.copy())
        assert_bitwise(got, backward_closedloop(replace(second, recording=None), copy, scn, beta=beta))
