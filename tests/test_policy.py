"""Policy network: layout, init, observation encoding, forward, manual VJP."""
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aavtraj import (
    PolicyController,
    ScenarioError,
    State,
    env,
    generate_scenario,
    init_params,
    load_checkpoint,
    rollout,
    save_checkpoint,
)
from aavtraj import policy
from aavtraj.policy import (
    LayerSpec,
    activations,
    forward,
    observation_jacobian,
    observations,
    observe,
    unpack,
    vjp,
)


class Log2Spy:
    """numpy, but np.log2 keeps a copy of each array it is given."""

    def __init__(self):
        self.args = []

    def __getattr__(self, name):
        return getattr(np, name)

    def log2(self, x, *args, **kwargs):
        self.args.append(np.array(x))
        return np.log2(x, *args, **kwargs)


class TestLayout:
    def test_default_param_count(self):
        # K=4: input 14; 14*64+64 + 64*64+64 + 64*32+32 + 32*2+2 = 7266
        assert LayerSpec(k=4).param_count() == 7266

    def test_tiny_param_count(self):
        # K=1: input 5; 5*3+3 + 3*2+2 = 26
        assert LayerSpec(k=1, hidden=(3,)).param_count() == 26

    def test_dims_chain(self):
        spec = LayerSpec(k=2, hidden=(8, 4))
        assert spec.dims == (8, 8, 4, 2)

    def test_unpack_shapes_and_views(self):
        params = init_params(0, k=2, hidden=(8, 4))
        layers = unpack(params)
        assert [w.shape for w, _ in layers] == [(8, 8), (4, 8), (2, 4)]
        assert [b.shape for _, b in layers] == [(8,), (4,), (2,)]
        layers[0][0][0, 0] = 123.0  # views alias the flat vector
        assert params.flat[0] == 123.0


class TestInit:
    def test_bounds_and_zero_biases(self):
        params = init_params(3, k=4)
        for w, b in unpack(params):
            fan_in = w.shape[1]
            assert np.all(np.abs(w) <= 1.0 / math.sqrt(fan_in))
            assert np.all(b == 0.0)

    def test_deterministic(self):
        a = init_params(5, k=3)
        b = init_params(5, k=3)
        assert np.array_equal(a.flat, b.flat)
        c = init_params(6, k=3)
        assert not np.array_equal(a.flat, c.flat)


class TestObserve:
    def test_hand_case(self):
        # q=(1,2), user (3,4), side 10: scale 0.2; backlog fraction 1/2
        scn = generate_scenario(0, k=1)
        scn = type(scn)(user_positions=np.array([[3.0, 4.0]]),
                        demands=np.array([2.0]), area_side=10.0, eta=1.0,
                        sigma2=0.1, altitude=1.0, bandwidth=None, tau=1.0,
                        v_max=0.2, dist_weight=0.01, seed=0)
        x = State(q=np.array([1.0, 2.0]), d=np.array([1.0]))
        obs = observe(x, scn)
        assert np.allclose(obs, [0.2, 0.4, 0.4, 0.4, 0.5], atol=1e-15)

    def test_zero_demand_fraction_is_zero(self):
        scn = generate_scenario(0, k=2)
        scn = type(scn)(user_positions=scn.user_positions,
                        demands=np.array([0.0, 1.0]), area_side=10.0, eta=1.0,
                        sigma2=0.1, altitude=1.0, bandwidth=None, tau=1.0,
                        v_max=0.2, dist_weight=0.01, seed=0)
        x = State(q=np.zeros(2), d=np.array([0.0, 0.5]))
        obs = observe(x, scn)
        assert obs[2 + 2 * scn.k] == 0.0
        assert obs[2 + 2 * scn.k + 1] == 0.5

    @given(seed=st.integers(0, 2**16), k=st.integers(1, 20), zeros=st.integers(0, 2**20 - 1),
           long=st.booleans(), scale=st.sampled_from([0.3, 1.0, 3.0]))
    @settings(max_examples=100, deadline=None)
    def test_one_pass_matches_observations_and_rate_arguments_bytes(self, seed, k, zeros, long, scale):
        # policy_tape's pass over the users builds each step's observation, recorded in the
        # workspace's rows, and the K rate arguments it hands np.log2; zeros picks users of zero
        # demand (alternately 0.0 and -0.0), whose fractions stay 0
        scn = generate_scenario(seed, k=k, area_side=7.0, demand_lo=20.0 if long else 0.5,
                                demand_hi=40.0 if long else 1.0)
        zero = [(zeros >> i) & 1 for i in range(k)]
        demands = [(0.0 if i % 2 else -0.0) if z else dem for i, (z, dem) in enumerate(zip(zero, scn.demands))]
        scn = replace(scn, demands=np.array(demands))
        params = init_params(seed, k, hidden=(8,))
        ctl = PolicyController(replace(params, flat=params.flat * scale), scn)
        spy = Log2Spy()
        with mock.patch.object(policy, "np", spy):
            traj = rollout(ctl, scn, 40, 1e-3)
        assert traj.recording is not None  # the float loop ran, not the step loop
        q, d = traj.positions[:-1], traj.backlogs[:-1]
        assert ctl.workspace.rows[0][: traj.steps].tobytes() == observations(q, d, scn).tobytes()
        want = env.rate_argument(env.squared_distances(q, scn), scn.eta, scn.altitude**2, scn.sigma2)
        assert np.array(spy.args).reshape(-1, k).tobytes() == want.tobytes()

    def test_jacobian_matches_fd(self):
        scn = generate_scenario(4, k=3)
        m = observation_jacobian(scn)
        assert m.shape == (2 + 3 * scn.k, 2 + scn.k)
        rng = np.random.default_rng(0)
        q = rng.uniform(-3, 3, size=2)
        d = rng.uniform(0.1, 1.0, size=scn.k)
        h = 1e-7
        for j in range(2 + scn.k):
            e = np.zeros(2 + scn.k)
            e[j] = h
            def at(vec):
                return observe(State(q=vec[:2], d=vec[2:]), scn)
            base = np.concatenate([q, d])
            fd = (at(base + e) - at(base - e)) / (2 * h)
            assert np.allclose(m[:, j], fd, atol=1e-7)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_jacobian_entries(self, k):
        # a zero demand leaves its backlog column of the fraction rows empty
        scn = generate_scenario(k, k=k)
        scn = replace(scn, demands=np.where(np.arange(k) == k - 1, 0.0, scn.demands), area_side=7.0)
        want = np.zeros((2 + 3 * k, 2 + k))
        s = 2.0 / 7.0
        want[0, 0] = want[1, 1] = s
        for i in range(k):
            want[2 + 2 * i, 0] = want[3 + 2 * i, 1] = -s
            if i < k - 1:
                want[2 + 2 * k + i, 2 + i] = 1.0 / scn.demands[i]
        assert observation_jacobian(scn).tobytes() == want.tobytes()


class TestForward:
    def test_zero_params_give_midrange_speed(self):
        params = init_params(0, k=2, hidden=(4,))
        params.flat[:] = 0.0
        obs = np.zeros(2 + 3 * 2)
        u = forward(params, obs)
        assert u.v == pytest.approx(0.1, abs=1e-15)  # v_max * sigmoid(0)
        assert u.theta == 0.0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_speed_strictly_inside_bounds(self, seed):
        rng = np.random.default_rng(seed)
        params = init_params(seed, k=2, hidden=(8, 4))
        obs = rng.normal(0.0, 2.0, size=8)
        u = forward(params, obs)
        assert 0.0 < u.v < 0.2
        assert math.isfinite(u.theta)


class TestVjp:
    def test_matches_central_differences(self):
        params = init_params(2, k=2, hidden=(8, 4))
        rng = np.random.default_rng(9)
        obs = rng.normal(0.0, 1.0, size=8)
        upstream = rng.normal(0.0, 1.0, size=2)
        pgrad, ograd = vjp(params, obs, upstream)
        h = 1e-6

        def scalar_out(p_flat, o):
            saved = params.flat.copy()
            params.flat[:] = p_flat
            u = forward(params, o)
            params.flat[:] = saved
            return upstream[0] * u.v + upstream[1] * u.theta

        for idx in rng.choice(params.flat.size, size=40, replace=False):
            bumped = params.flat.copy()
            bumped[idx] += h
            up = scalar_out(bumped, obs)
            bumped[idx] -= 2 * h
            dn = scalar_out(bumped, obs)
            assert pgrad[idx] == pytest.approx((up - dn) / (2 * h), rel=1e-5, abs=1e-10)
        for j in range(obs.size):
            e = np.zeros(obs.size)
            e[j] = h
            fd = (scalar_out(params.flat, obs + e)
                  - scalar_out(params.flat, obs - e)) / (2 * h)
            assert ograd[j] == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_linear_in_upstream(self):
        params = init_params(1, k=1, hidden=(6,))
        obs = np.linspace(-1, 1, 5)
        g1, o1 = vjp(params, obs, np.array([1.0, 0.0]))
        g2, o2 = vjp(params, obs, np.array([0.0, 1.0]))
        g3, o3 = vjp(params, obs, np.array([2.0, -0.5]))
        assert np.allclose(g3, 2.0 * g1 - 0.5 * g2, atol=1e-12)
        assert np.allclose(o3, 2.0 * o1 - 0.5 * o2, atol=1e-12)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        params = init_params(7, k=3, hidden=(8, 4), v_max=0.15)
        p = str(tmp_path / "ckpt.json")
        save_checkpoint(params, p)
        back = load_checkpoint(p)
        assert np.array_equal(back.flat, params.flat)
        assert back.spec.k == 3 and back.spec.hidden == (8, 4)
        assert back.v_max == 0.15

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"format": "something-else"}')
        with pytest.raises(ScenarioError):
            load_checkpoint(str(p))


class TestController:
    def test_rejects_k_mismatch(self):
        params = init_params(0, k=4)
        scn = generate_scenario(0, k=6)
        with pytest.raises(ScenarioError):
            PolicyController(params, scn)

    def test_rejects_vmax_mismatch(self):
        params = init_params(0, k=4, v_max=0.3)
        scn = generate_scenario(0, k=4)
        with pytest.raises(ScenarioError):
            PolicyController(params, scn)

    def test_calls_forward_on_observation(self):
        scn = generate_scenario(1, k=2)
        params = init_params(1, k=2)
        ctl = PolicyController(params, scn)
        x = State(q=np.array([0.5, -0.5]), d=scn.demands.copy())
        u = ctl(0, x)
        ref = forward(params, observe(x, scn))
        assert u.v == ref.v and u.theta == ref.theta

    def test_repeated_calls_match_fresh_observations(self):
        # one controller called on state after state; a zero-demand user's entry stays 0
        scn = generate_scenario(3, k=4)
        scn = replace(scn, demands=np.where([True, False, True, True], scn.demands, 0.0))
        params = init_params(3, k=4)
        ctl = PolicyController(params, scn)
        rng = np.random.default_rng(3)
        for _ in range(6):
            x = State(q=rng.uniform(-5.0, 5.0, 2), d=scn.demands * rng.uniform(0.0, 1.0, 4))
            u, ref = ctl(0, x), forward(params, observe(x, scn))
            assert (u.v, u.theta) == (ref.v, ref.theta)

    def test_rollout_rejects_a_controller_built_for_another_scenario(self):
        params = init_params(0, k=4)
        own, other = generate_scenario(0, k=4), generate_scenario(1, k=4)

        class Subclass(PolicyController):
            pass

        for ctl in (PolicyController(params, own), Subclass(params, own)):
            with pytest.raises(ScenarioError, match="its user_positions differs"):
                rollout(ctl, other, 50, 1e-3)
        with pytest.raises(ScenarioError, match="its demands differs"):
            rollout(PolicyController(params, own), replace(own, demands=own.demands * 2.0), 50, 1e-3)

    def test_rollout_rejects_a_controller_built_for_another_k(self):
        ctl = PolicyController(init_params(0, k=4), generate_scenario(0, k=4))
        with pytest.raises(ScenarioError, match="K=4 scenario cannot run on a K=2 scenario"):
            rollout(ctl, generate_scenario(0, k=2), 50, 1e-3)

    def test_rollout_accepts_an_equal_copy_of_the_scenario(self):
        scn = generate_scenario(0, k=4)
        params = init_params(0, k=4)
        want = rollout(PolicyController(params, scn), scn, 50, 1e-3)
        for copy in (replace(scn), replace(scn, seed=None)):
            got = rollout(PolicyController(params, copy), scn, 50, 1e-3)
            assert got.positions.tobytes() == want.positions.tobytes()
            assert got.backlogs.tobytes() == want.backlogs.tobytes()

    def test_batched_forward_over_tape_matches_per_step(self):
        scn = generate_scenario(2, k=3, demand_lo=5.0, demand_hi=6.0)
        params = init_params(2, k=3, hidden=(6, 5))
        traj = rollout(PolicyController(params, scn), scn, 8, 1e-3)
        layers = unpack(params)
        acts = activations(layers, observations(traj.positions[:-1], traj.backlogs[:-1], scn))
        assert [a.shape for a in acts] == [(8, 11), (8, 6), (8, 5), (8, 2)]
        for t, x in enumerate(traj.states[:-1]):
            obs = observe(x, scn)
            want = activations(layers, obs)
            for got_layer, want_layer in zip(acts, want):
                assert got_layer[t].tobytes() == want_layer.tobytes()
            u = forward(params, obs)
            assert (u.v, u.theta) == tuple(traj.controls[t])
            assert acts[-1][t, 1] == u.theta
