"""Smoothness penalty, clipping, optimizer steps, and the training loop."""
import csv
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aavtraj import (
    NumericFailure,
    PolicyController,
    ScenarioError,
    TrainConfig,
    TrainingError,
    backward_closedloop,
    generate_scenario,
    init_params,
    rollout,
    save_training_log,
    train,
)
from aavtraj.smoothing import smoothness_grads, smoothness_penalty, wrap_angle
from aavtraj.trainer import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, clip_gradient, init_opt_state, optimizer_step
from aavtraj import trainer as trainer_mod
from aavtraj.policy import LayerSpec


class TestSmoothness:
    def test_hand_value(self):
        # (0.2-0.1)^2 + 1e-3*(1-cos(pi/2)) = 0.011
        controls = [(0.1, 0.0), (0.2, math.pi / 2)]
        assert smoothness_penalty(controls, 1e-3) == pytest.approx(0.011, abs=1e-15)

    def test_single_control_is_free(self):
        assert smoothness_penalty([(0.2, 1.0)], 1e-3) == 0.0
        assert smoothness_penalty([], 1e-3) == 0.0

    @given(st.lists(st.tuples(st.floats(0, 0.2), st.floats(-6, 6)),
                    min_size=2, max_size=12),
           st.integers(-3, 3))
    @settings(max_examples=80, deadline=None)
    def test_two_pi_periodicity(self, seq, k_turns):
        arr = np.asarray(seq)
        shifted = arr.copy()
        shifted[:, 1] += 2.0 * math.pi * k_turns
        assert smoothness_penalty(shifted, 1e-3) == pytest.approx(
            smoothness_penalty(arr, 1e-3), abs=1e-9)

    def test_grads_match_fd(self):
        rng = np.random.default_rng(0)
        controls = np.column_stack([rng.uniform(0, 0.2, 6),
                                    rng.uniform(-3, 3, 6)])
        g = smoothness_grads(controls, 1e-3)
        assert g.shape == (6, 2)
        h = 1e-7
        for t in range(6):
            for j in range(2):
                bumped = controls.copy()
                bumped[t, j] += h
                up = smoothness_penalty(bumped, 1e-3)
                bumped[t, j] -= 2 * h
                dn = smoothness_penalty(bumped, 1e-3)
                assert g[t, j] == pytest.approx((up - dn) / (2 * h),
                                                rel=1e-5, abs=1e-8)

    @given(st.floats(-50, 50))
    @settings(max_examples=100, deadline=None)
    def test_wrap_angle_range_and_congruence(self, a):
        w = float(wrap_angle(a))
        assert -math.pi < w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)


class TestClip:
    def test_below_threshold_untouched(self):
        g = np.array([3.0, 4.0])  # norm 5
        assert np.array_equal(clip_gradient(g, 10.0), g)

    def test_above_threshold_rescaled(self):
        g = np.array([30.0, 40.0])  # norm 50 -> scaled to 10
        clipped = clip_gradient(g, 10.0)
        assert np.linalg.norm(clipped) == pytest.approx(10.0, rel=1e-12)
        assert np.allclose(clipped, [6.0, 8.0], atol=1e-12)

    def test_zero_vector(self):
        z = np.zeros(4)
        assert np.array_equal(clip_gradient(z, 10.0), z)

    def test_no_ulp_overshoot(self):
        # plain rescaling by threshold / norm lands one ulp above 10 here
        g = np.array([-7.923563182713957, 2.4300436615238925, 2.6437084946378957,
                      4.280738485562318, -7.2824543339579675])
        assert np.linalg.norm(g * (10.0 / np.linalg.norm(g))) > 10.0
        clipped = clip_gradient(g, 10.0)
        assert np.linalg.norm(clipped) <= 10.0
        assert np.linalg.norm(clipped) == pytest.approx(10.0, rel=1e-15)

    @pytest.mark.parametrize("threshold", [math.nan, 0.0, -1.0, math.inf])
    def test_rejects_a_threshold_that_is_not_positive_and_finite(self, threshold):
        with pytest.raises(ScenarioError, match="clip_threshold must be a positive finite number"):
            clip_gradient(np.array([3.0, 4.0]), threshold)

    @pytest.mark.parametrize("g", [[1e200, -3e200, 2.0], [1e308] * 4, [1.7e308, -1.7e308, 1e-300]])
    def test_overflowing_norm_keeps_the_direction(self, g):
        # every entry is finite but the sum of squares overflows: threshold / inf would zero it
        g = np.array(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clipped = clip_gradient(g, 10.0)
        unit = g / np.abs(g).max()
        assert 9.99 < np.linalg.norm(clipped) <= 10.0
        assert np.allclose(clipped, unit * (10.0 / np.linalg.norm(unit)), rtol=1e-14, atol=0.0)
        assert np.array_equal(np.sign(clipped), np.sign(unit))

    def test_a_non_finite_entry_still_gives_a_non_finite_gradient(self):
        # the optimizer step then raises NumericFailure, as before
        with np.errstate(invalid="ignore"):
            clipped = clip_gradient(np.array([math.inf, 1.0]), 10.0)
        assert not np.isfinite(clipped).all()

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
           st.floats(0.1, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_norm_bound_invariant(self, vals, c):
        g = np.asarray(vals)
        clipped = clip_gradient(g, c)
        assert np.linalg.norm(clipped) <= c


class TestOptimizerStep:
    def test_sgd_exact(self):
        state = init_opt_state("sgd", 3)
        flat = np.array([1.0, -2.0, 0.5])
        grad = np.array([0.1, 0.2, -0.3])
        new, state2 = optimizer_step(flat, grad, state, lr=0.01)
        assert np.allclose(new, flat - 0.01 * grad, atol=1e-15)
        assert state2.step == 1
        assert np.array_equal(flat, [1.0, -2.0, 0.5])  # input not mutated

    def test_adam_matches_reference_recursion(self):
        rng = np.random.default_rng(1)
        n = 6
        flat = rng.normal(size=n)
        state = init_opt_state("adam", n)
        m = np.zeros(n)
        v = np.zeros(n)
        ref = flat.copy()
        lr = 1e-3
        for k in range(1, 6):
            grad = rng.normal(size=n)
            flat, state = optimizer_step(flat, grad, state, lr=lr)
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad * grad
            m_hat = m / (1 - ADAM_BETA1 ** k)
            v_hat = v / (1 - ADAM_BETA2 ** k)
            ref = ref - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            assert np.allclose(flat, ref, atol=1e-14)

    def test_adam_first_step_is_signed_lr(self):
        # bias correction makes |delta| ~= lr regardless of gradient scale
        state = init_opt_state("adam", 2)
        flat = np.zeros(2)
        grad = np.array([123.0, -0.004])
        new, _ = optimizer_step(flat, grad, state, lr=1e-3)
        assert np.allclose(np.abs(new), 1e-3, rtol=1e-4)
        assert new[0] < 0 < new[1]

    @pytest.mark.parametrize("mode", ["adam", "sgd"])
    def test_matches_the_expression_form_bitwise(self, mode):
        # the step's passes must round like the textbook expressions
        rng = np.random.default_rng(7)
        n = 300
        flat = rng.normal(size=n)
        state = init_opt_state(mode, n)
        m, v = np.zeros(n), np.zeros(n)
        lr = 1e-3
        for t in range(1, 7):
            grad = rng.normal(size=n) * 10.0 ** rng.integers(-8, 4, n)
            before = (flat.copy(), None if state.m is None else (state.m.copy(), state.v.copy()))
            new, nxt = optimizer_step(flat, grad, state, lr=lr)
            # neither the parameters nor the moments given are mutated
            assert flat.tobytes() == before[0].tobytes()
            if mode == "adam":
                assert (state.m.tobytes(), state.v.tobytes()) == (before[1][0].tobytes(), before[1][1].tobytes())
                m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
                v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
                m_hat = m / (1.0 - ADAM_BETA1**t)
                v_hat = v / (1.0 - ADAM_BETA2**t)
                want = flat - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                assert (nxt.m.tobytes(), nxt.v.tobytes()) == (m.tobytes(), v.tobytes())
            else:
                want = flat - lr * grad
            assert new.tobytes() == want.tobytes()
            assert nxt.step == t
            flat, state = new, nxt

    def test_nonfinite_gradient_rejected(self):
        state = init_opt_state("adam", 2)
        with pytest.raises(NumericFailure):
            optimizer_step(np.zeros(2), np.array([1.0, float("inf")]), state, 1e-3)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ScenarioError):
            init_opt_state("rmsprop", 3)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.max_iters == 2000
        assert cfg.t_max == 500
        assert cfg.stop_eps == 1e-3
        assert cfg.early_stop_delta == 1e-3
        assert cfg.early_stop_patience == 5
        assert cfg.beta == 1.0
        assert cfg.alpha == 1e-3
        assert cfg.clip_threshold == 10.0
        assert cfg.learning_rate == 1e-3
        assert cfg.optimizer == "adam"
        assert cfg.hidden == (64, 64, 32)

    def test_validation(self):
        with pytest.raises(ScenarioError):
            TrainConfig(optimizer="sgdm")
        with pytest.raises(ScenarioError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ScenarioError):
            TrainConfig(max_iters=0)
        with pytest.raises(ScenarioError):
            TrainConfig(early_stop_delta=-1.0)
        TrainConfig(early_stop_delta=0.0)  # zero disables the rule

    @pytest.mark.parametrize("hidden", [5, 5.0, None, "64", [8, 0], [8, True]])
    def test_hidden_not_a_list_of_sizes_rejected(self, hidden):
        with pytest.raises(ScenarioError, match="hidden must be"):
            TrainConfig(hidden=hidden)
        with pytest.raises(ScenarioError, match="hidden must be"):
            LayerSpec(k=4, hidden=hidden)

    def test_hidden_sizes_become_a_tuple_of_ints(self):
        assert TrainConfig(hidden=[8, np.int64(4)]).hidden == (8, 4)
        assert LayerSpec(k=1, hidden=iter([3])).hidden == (3,)

    @pytest.mark.parametrize("field, value", [
        ("stop_eps", math.nan), ("learning_rate", math.nan), ("clip_threshold", math.nan),
        ("early_stop_delta", math.nan), ("beta", math.nan), ("alpha", math.nan),
        ("stop_eps", math.inf), ("learning_rate", math.inf), ("clip_threshold", 0.0),
        ("beta", -1.0), ("alpha", -5.0), ("beta", math.inf), ("early_stop_delta", -math.inf),
    ])
    def test_bad_float_rejected(self, field, value):
        with pytest.raises(ScenarioError, match=field):
            TrainConfig(**{field: value})

    def test_zero_weights_accepted(self):
        TrainConfig(beta=0.0, alpha=0.0, early_stop_delta=0.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", None, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ScenarioError, match="seed must be an integer >= 0"):
            TrainConfig(seed=seed)


class TestTrainLoop:
    def test_deterministic_given_seed(self):
        scn = generate_scenario(0)
        cfg = TrainConfig(seed=0)
        p1, log1 = train(scn, cfg)
        p2, log2 = train(scn, cfg)
        assert np.array_equal(p1.flat, p2.flat)
        assert log1.stop_reason == log2.stop_reason
        for a, b in zip(log1.rows, log2.rows):
            assert (a.j_task, a.j_smooth, a.j_total, a.grad_norm_pre,
                    a.grad_norm_post) == (b.j_task, b.j_smooth, b.j_total,
                                          b.grad_norm_pre, b.grad_norm_post)

    @pytest.mark.parametrize("scn, cfg", [
        (generate_scenario(0, k=4), TrainConfig(seed=0)),
        (generate_scenario(1, k=1), TrainConfig(seed=1, optimizer="sgd", max_iters=15, early_stop_delta=0.0)),
        (generate_scenario(2, k=3), TrainConfig(seed=2, beta=0.0, hidden=(8,), max_iters=20)),
        (generate_scenario(3, k=2), TrainConfig(seed=3, clip_threshold=1e-3, max_iters=10, early_stop_delta=0.0)),
        (generate_scenario(0, k=4, demand_lo=20.0, demand_hi=40.0),
         TrainConfig(seed=0, max_iters=3, early_stop_delta=0.0)),
        (generate_scenario(4, k=10), TrainConfig(seed=4, max_iters=12)),
        (generate_scenario(5, k=3, demand_lo=20.0, demand_hi=40.0),
         TrainConfig(seed=5, hidden=(), max_iters=6, early_stop_delta=0.0)),
        # every user drains within one slot, so each mission ends at step 1
        (generate_scenario(6, k=3, demand_lo=0.01, demand_hi=0.02), TrainConfig(seed=6, max_iters=8)),
        (generate_scenario(7, k=4, demand_lo=20.0, demand_hi=40.0),
         TrainConfig(seed=7, t_max=7, max_iters=6, early_stop_delta=0.0)),
        # (d2 + H^2) * sigma2 underflows the float tape, so every rollout takes the step loop
        (generate_scenario(0, k=2, altitude=1e-160, sigma2=1e-160), TrainConfig(seed=8, max_iters=4)),
    ])
    def test_matches_a_reference_loop(self, scn, cfg):
        # the reference builds a controller and a parameter vector per
        # iteration, as train did before it kept one controller per run;
        # its controller is gone by the sweep, which then recomputes the
        # forward pass that train's sweep reads off its controller
        params = init_params(cfg.seed, scn.k, hidden=cfg.hidden, v_max=scn.v_max)
        opt = init_opt_state(cfg.optimizer, params.flat.size)
        want = []
        for _ in range(len(train(scn, cfg)[1].rows)):
            traj = rollout(PolicyController(params, scn), scn, cfg.t_max, cfg.stop_eps)
            bundle = backward_closedloop(traj, params, scn, beta=cfg.beta, alpha=cfg.alpha)
            clipped = clip_gradient(bundle.param_grad, cfg.clip_threshold)
            want.append((bundle.j_task, bundle.j_smooth, bundle.j_total,
                         float(np.linalg.norm(bundle.param_grad)), float(np.linalg.norm(clipped))))
            flat, opt = optimizer_step(params.flat, clipped, opt, cfg.learning_rate)
            params = replace(params, flat=flat)
        got_params, log = train(scn, cfg)
        assert [(r.j_task, r.j_smooth, r.j_total, r.grad_norm_pre, r.grad_norm_post) for r in log.rows] == want
        assert got_params.flat.tobytes() == params.flat.tobytes()
        if cfg.clip_threshold < 1.0:
            assert any(r.grad_norm_pre > cfg.clip_threshold for r in log.rows)  # the clip rescaled

    @pytest.mark.parametrize("clip_threshold, clips", [(10.0, False), (1e-3, True)])
    def test_only_a_clipped_iteration_calls_clip_gradient(self, clip_threshold, clips, monkeypatch):
        # an unclipped iteration steps with the sweep's gradient and logs its norm twice
        calls = []

        def counted(grad, threshold):
            calls.append(threshold)
            return clip_gradient(grad, threshold)

        monkeypatch.setattr(trainer_mod, "clip_gradient", counted)
        _, log = train(generate_scenario(3, k=2), TrainConfig(seed=3, clip_threshold=clip_threshold, max_iters=10))
        assert len(calls) == (log.iterations if clips else 0)
        for r in log.rows:
            assert (r.grad_norm_pre > clip_threshold) is clips
            assert (r.grad_norm_post == r.grad_norm_pre) is not clips

    def test_an_overflowing_norm_is_logged_as_inf_without_a_warning(self, monkeypatch):
        # a finite gradient whose sum of squares overflows: clip_gradient rescales it
        real = trainer_mod.backward_closedloop

        def huge(*args, **kwargs):
            bundle = real(*args, **kwargs)
            bundle.param_grad[:] = 2.0
            bundle.param_grad[:2] = (1e200, -3e200)
            return bundle

        monkeypatch.setattr(trainer_mod, "backward_closedloop", huge)
        scn = generate_scenario(3, k=2)
        cfg = TrainConfig(seed=3, max_iters=2)
        start = init_params(cfg.seed, scn.k, hidden=cfg.hidden, v_max=scn.v_max).flat
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params, log = train(scn, cfg)
        assert log.learning_rate == cfg.learning_rate and log.iterations == 2
        for r in log.rows:
            assert r.grad_norm_pre == math.inf and r.grad_norm_post <= cfg.clip_threshold
        assert np.isfinite(params.flat).all() and not np.array_equal(params.flat, start)

    def test_early_stop_fires_correctly(self):
        scn = generate_scenario(0)
        cfg = TrainConfig(seed=0)
        _, log = train(scn, cfg)
        assert log.converged
        assert log.stop_reason == "early_stop"
        js = [r.j_total for r in log.rows]
        deltas = [abs(b - a) for a, b in zip(js, js[1:])]
        # the last patience-length window is quiet, and no earlier one was
        assert all(d < cfg.early_stop_delta for d in deltas[-cfg.early_stop_patience:])
        for start in range(len(deltas) - cfg.early_stop_patience):
            window = deltas[start:start + cfg.early_stop_patience]
            assert any(d >= cfg.early_stop_delta for d in window)

    def test_respects_max_iters(self):
        scn = generate_scenario(3)
        cfg = TrainConfig(seed=3, max_iters=4, early_stop_delta=0.0)
        _, log = train(scn, cfg)
        assert len(log.rows) == 4
        assert not log.converged
        assert log.stop_reason == "max_iters"

    def test_objective_improves_within_200_iterations(self):
        wins = 0
        for seed in range(10):
            scn = generate_scenario(seed)
            cfg = TrainConfig(seed=seed, max_iters=200, early_stop_delta=0.0)
            _, log = train(scn, cfg)
            wins += log.rows[-1].j_total < log.rows[0].j_total
        assert wins >= 9

    def test_plain_gd_descends_on_single_user(self):
        for seed in range(3):
            scn = generate_scenario(seed, k=1)
            cfg = TrainConfig(optimizer="sgd", seed=seed, max_iters=50,
                              early_stop_delta=0.0)
            _, log = train(scn, cfg)
            js = [r.j_total for r in log.rows]
            assert all(b <= a + 1e-12 for a, b in zip(js, js[1:]))

    def test_zero_demand_scenario_converges_immediately(self):
        scn = generate_scenario(0, demand_lo=0.0, demand_hi=0.0)
        _, log = train(scn, TrainConfig(seed=0))
        assert log.converged
        assert log.stop_reason == "mission_complete_at_start"
        assert log.rows == []

    def test_grad_norms_logged_and_bounded(self):
        scn = generate_scenario(1)
        cfg = TrainConfig(seed=1, max_iters=20, early_stop_delta=0.0)
        _, log = train(scn, cfg)
        for r in log.rows:
            assert r.grad_norm_post <= cfg.clip_threshold * (1 + 1e-12)
            assert r.grad_norm_post <= r.grad_norm_pre * (1 + 1e-12)

    def test_phase_times_split_the_iteration_time(self):
        scn = generate_scenario(4, k=2)
        _, log = train(scn, TrainConfig(seed=4, max_iters=4, early_stop_delta=0.0, hidden=(8,)))
        for r in log.rows:
            phases = (r.rollout_ms, r.backward_ms, r.opt_ms)
            assert all(p >= 0.0 for p in phases)
            assert sum(phases) == pytest.approx(r.ms, rel=1e-9, abs=1e-9)

    def test_retry_halves_lr_then_fails(self, monkeypatch):
        calls = []

        def explode(scn, cfg, lr):
            calls.append(lr)
            err = NumericFailure(0, "state")
            err.log = trainer_mod.TrainingLog(rows=[], converged=False,
                                              stop_reason="numeric_failure",
                                              learning_rate=lr, seed=cfg.seed)
            raise err

        monkeypatch.setattr(trainer_mod, "_train_once", explode)
        scn = generate_scenario(0)
        with pytest.raises(TrainingError) as e:
            train(scn, TrainConfig(seed=0, learning_rate=2e-3))
        assert calls == [2e-3, 1e-3]
        assert e.value.log is not None

    def test_training_log_csv_round_trip(self, tmp_path):
        scn = generate_scenario(2)
        cfg = TrainConfig(seed=2, max_iters=5, early_stop_delta=0.0)
        _, log = train(scn, cfg)
        p = tmp_path / "log.csv"
        save_training_log(log, str(p))
        with open(p) as fh:
            rows = list(csv.DictReader(fh))
        # the column list of the training log in the README
        assert list(rows[0]) == [
            "iteration", "j_task", "j_smooth", "j_total", "grad_norm_pre", "grad_norm_post", "ms",
            "rollout_ms", "backward_ms", "opt_ms"]
        assert len(rows) == 5
        for parsed, orig in zip(rows, log.rows):
            assert int(parsed["iteration"]) == orig.iteration
            assert float(parsed["j_total"]) == orig.j_total
            assert float(parsed["grad_norm_pre"]) == orig.grad_norm_pre
