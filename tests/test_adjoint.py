"""Reverse-sweep gradient oracles.

Every analytic quantity is checked against test-local finite differences
of independent re-rollouts. Instances keep backlogs far from the clamp
kink and never terminate inside the horizon, so FD probes see a smooth
objective.
"""
import math

import numpy as np
import pytest

from aavtraj import (
    Control,
    Scenario,
    State,
    TrajectoryRecord,
    backward_closedloop,
    backward_openloop,
    hamiltonian,
    init_params,
    initial_state,
    rollout,
    smoothness_penalty,
    stage_cost,
    step,
)
from aavtraj.adjoint import cost_grad_state, jacobian_control, jacobian_state
from aavtraj.baselines import SequenceController
from aavtraj.policy import PolicyController


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


class TestJacobians:
    def test_state_jacobian_matches_fd(self):
        scn = smooth_scn(k=3, seed=1)
        rng = np.random.default_rng(2)
        x = State(q=rng.uniform(-2, 2, 2), d=rng.uniform(30, 50, 3))
        u = Control(0.17, 0.8)
        _, mask = step(x, u, scn)
        a_mat = jacobian_state(x, u, mask, scn)
        assert a_mat.shape == (5, 5)
        h = 1e-6
        base = x.as_vector()
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            xp, _ = step(State(q=(base + e)[:2], d=(base + e)[2:]), u, scn)
            xm, _ = step(State(q=(base - e)[:2], d=(base - e)[2:]), u, scn)
            fd = (xp.as_vector() - xm.as_vector()) / (2 * h)
            assert np.allclose(a_mat[:, j], fd, rtol=1e-6, atol=1e-9)

    def test_state_jacobian_blocks(self):
        scn = smooth_scn(k=2, seed=3)
        x = State(q=np.array([0.5, -0.5]), d=np.array([40.0, 50.0]))
        u = Control(0.1, 0.0)
        _, mask = step(x, u, scn)
        a_mat = jacobian_state(x, u, mask, scn)
        assert np.array_equal(a_mat[:2, :2], np.eye(2))  # position carries over
        assert np.all(a_mat[:2, 2:] == 0.0)              # backlog cannot move it
        assert np.array_equal(np.diag(a_mat[2:, 2:]), mask.astype(float))

    def test_clamped_user_row_is_dead(self):
        # one zero-demand user: its backlog row must not respond to anything
        scn = smooth_scn(k=2, seed=4)
        x = State(q=np.zeros(2), d=np.array([45.0, 0.0]))
        u = Control(0.05, 1.0)
        _, mask = step(x, u, scn)
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
            up, _ = step(x, Control(u.v + bump[0], u.theta + bump[1]), scn)
            dn, _ = step(x, Control(u.v - bump[0], u.theta - bump[1]), scn)
            fd = (up.as_vector() - dn.as_vector()) / (2 * h)
            assert np.allclose(b_mat[:, j], fd, rtol=1e-6, atol=1e-10)

    def test_cost_grad_matches_fd(self):
        scn = smooth_scn(k=2, seed=6)
        x = State(q=np.array([0.3, -1.2]), d=np.array([42.0, 55.0]))
        g = cost_grad_state(x, scn)
        h = 1e-6
        base = x.as_vector()
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
        for t in (0, 3, 7):
            x, u = traj.states[t], traj.controls[t]
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
        states, controls, costs, masks = [x], [], [], []
        for t in range(6):
            u = Control(0.1, math.pi / 2)
            x, mask = step(x, u, scn)
            states.append(x)
            controls.append(u)
            costs.append(stage_cost(x, scn))
            masks.append(mask)
        traj = TrajectoryRecord(states=states, controls=controls,
                                stage_costs=costs, active_masks=masks,
                                completion_step=[3], terminated_step=None)
        assert states[2].d[0] > 0.0 and states[3].d[0] == 0.0
        _, grads = backward_openloop(traj, scn)
        assert np.any(grads[0] != 0.0)
        assert np.all(grads[3:] == 0.0)

    def test_empty_trajectory(self):
        scn = smooth_scn(k=2, seed=13)
        traj = TrajectoryRecord(states=[initial_state(scn)],
                                controls=[], stage_costs=[], active_masks=[],
                                completion_step=[None, None], terminated_step=0)
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
