"""Greedy rule, genetic search, and the shared mission evaluator."""
import itertools
import math

import numpy as np
import pytest

from aavtraj import (
    GaConfig,
    GreedyConfig,
    GreedyController,
    PolicyController,
    Scenario,
    ScenarioError,
    State,
    evaluate_policy,
    ga_optimize,
    generate_scenario,
    init_params,
    mission_metrics,
    rollout,
)
from aavtraj.baselines import ConstantController, SequenceController, greedy_action
from aavtraj.env import rates
from aavtraj.smoothing import wrap_angle


def scn_with(users, demands, **kw):
    defaults = dict(area_side=10.0, eta=1.0, sigma2=0.1, altitude=1.0,
                    bandwidth=None, tau=1.0, v_max=0.2, dist_weight=0.01, seed=0)
    defaults.update(kw)
    return Scenario(user_positions=np.asarray(users, dtype=float),
                    demands=np.asarray(demands, dtype=float), **defaults)


class TestControllers:
    def test_sequence_replays_rows(self):
        ctl = SequenceController(np.array([[0.1, 0.5], [0.2, -0.5]]))
        assert ctl(0, None).v == 0.1
        assert ctl(1, None).theta == -0.5

    def test_sequence_exhaustion_raises(self):
        ctl = SequenceController(np.array([[0.1, 0.5]]))
        with pytest.raises(ScenarioError):
            ctl(1, None)

    def test_constant_controller(self):
        ctl = ConstantController(0.0, 1.0)
        assert ctl(7, None).v == 0.0


class TestGreedy:
    def test_heads_toward_single_user_at_full_speed(self):
        scn = scn_with([[3.0, 4.0]], [1.0])
        x = State(q=np.zeros(2), d=np.array([1.0]))
        u = greedy_action(x, scn, GreedyConfig())
        bearing = math.atan2(4.0, 3.0)
        assert u.v == scn.v_max
        assert abs(float(wrap_angle(u.theta - bearing))) <= 2 * math.pi / 64

    def test_hover_when_everyone_done(self):
        scn = scn_with([[3.0, 4.0]], [1.0])
        x = State(q=np.zeros(2), d=np.array([0.0]))
        u = greedy_action(x, scn, GreedyConfig())
        assert (u.v, u.theta) == (0.0, 0.0)

    def test_all_tied_candidates_pick_lowest_index(self):
        # a speed grid of {0} makes every heading equivalent; the first
        # candidate (heading 0) must win
        scn = scn_with([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0])
        x = State(q=np.zeros(2), d=np.array([1.0, 1.0]))
        u = greedy_action(x, scn, GreedyConfig(speed_grid=(0.0,)))
        assert (u.v, u.theta) == (0.0, 0.0)

    def test_ignores_completed_users(self):
        # only the north user is active, so the pull from the south one
        # must not matter
        scn = scn_with([[0.0, 3.0], [0.0, -3.0]], [1.0, 1.0])
        x = State(q=np.zeros(2), d=np.array([1.0, 0.0]))
        u = greedy_action(x, scn, GreedyConfig())
        assert abs(float(wrap_angle(u.theta - math.pi / 2))) <= 2 * math.pi / 64

    def test_optimal_over_own_grid(self):
        cfg = GreedyConfig()
        rng = np.random.default_rng(5)
        scn = generate_scenario(5, k=3)
        speeds = (0.0, scn.v_max / 2.0, scn.v_max)
        headings = 2 * math.pi * np.arange(cfg.heading_grid) / cfg.heading_grid
        for _ in range(10):
            q = rng.uniform(-4, 4, size=2)
            d = rng.uniform(0, 1, size=3)
            if not np.any(d > 0):
                continue
            x = State(q=q, d=d)
            u = greedy_action(x, scn, cfg)
            chosen = q + scn.tau * u.v * np.array([math.cos(u.theta), math.sin(u.theta)])
            best = np.sum(rates(chosen, scn)[d > 0])
            for v in speeds:
                for th in headings:
                    cand = q + scn.tau * v * np.array([math.cos(th), math.sin(th)])
                    assert np.sum(rates(cand, scn)[d > 0]) <= best + 1e-12

    def test_bad_speed_grid_rejected(self):
        scn = scn_with([[1.0, 0.0]], [1.0])
        x = State(q=np.zeros(2), d=np.array([1.0]))
        with pytest.raises(ScenarioError):
            greedy_action(x, scn, GreedyConfig(speed_grid=(0.0, 0.5)))

    def test_controller_completes_default_mission(self):
        scn = generate_scenario(0)
        m = evaluate_policy(GreedyController(scn), scn, 500, 1e-3)
        assert m.completed
        assert m.mission_steps < 500


class TestGa:
    def small_cfg(self, **kw):
        defaults = dict(population=10, generations=12, chromosome_length=40, seed=0)
        defaults.update(kw)
        return GaConfig(**defaults)

    def test_zero_demand_fitness_all_zero(self):
        scn = scn_with([[1.0, 0.0]], [0.0], dist_weight=0.0)
        best, log = ga_optimize(scn, self.small_cfg(generations=3))
        assert log == [0.0] * 4
        assert best.shape == (40, 2)

    def test_best_so_far_monotone(self):
        scn = generate_scenario(1, k=2)
        _, log = ga_optimize(scn, self.small_cfg(seed=1))
        assert len(log) == 13
        assert all(b >= a for a, b in zip(log, log[1:]))

    def test_deterministic_per_seed(self):
        scn = generate_scenario(2, k=2)
        b1, l1 = ga_optimize(scn, self.small_cfg(seed=7))
        b2, l2 = ga_optimize(scn, self.small_cfg(seed=7))
        assert np.array_equal(b1, b2) and l1 == l2
        _, l3 = ga_optimize(scn, self.small_cfg(seed=8))
        assert l1 != l3

    def test_speed_genes_stay_in_bounds(self):
        scn = generate_scenario(3, k=2)
        best, _ = ga_optimize(scn, self.small_cfg(seed=3))
        assert np.all(best[:, 0] >= 0.0) and np.all(best[:, 0] <= scn.v_max)

    def test_timing_channel_aligns_with_log(self):
        scn = generate_scenario(4, k=2)
        timing = []
        _, log = ga_optimize(scn, self.small_cfg(seed=4), timing_ms=timing)
        assert len(timing) == len(log)
        assert all(b >= a for a, b in zip(timing, timing[1:]))

    def test_improves_single_user_default_physics(self):
        wins = 0
        for seed in range(10):
            scn = generate_scenario(seed, k=1)
            _, log = ga_optimize(scn, GaConfig(seed=seed))
            wins += log[-1] > log[0]
        assert wins >= 9

    def test_config_validation(self):
        with pytest.raises(ScenarioError):
            GaConfig(population=1)
        with pytest.raises(ScenarioError):
            GaConfig(tournament_size=100)
        with pytest.raises(ScenarioError):
            GaConfig(elitism=50)

    @pytest.mark.parametrize("field, value", [
        ("mutation_std", [-1, 0.3]), ("mutation_std", [0.02]),
        ("mutation_std", (0.02, math.inf)), ("crossover_rate", 7), ("crossover_rate", -0.1),
        ("crossover_rate", math.nan),
    ])
    def test_bad_operator_rates_rejected(self, field, value):
        with pytest.raises(ScenarioError, match=field):
            GaConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("population", 4.5), ("generations", 2.0), ("tournament_size", "3"), ("elitism", True),
        ("chromosome_length", None), ("seed", -1), ("seed", 1.5), ("seed", False),
    ])
    def test_non_integer_counts_and_bad_seeds_rejected(self, field, value):
        with pytest.raises(ScenarioError, match=field):
            GaConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("stop_eps", math.nan), ("beta", math.nan), ("alpha", math.nan), ("stop_eps", 0.0),
        ("stop_eps", math.inf), ("beta", -1.0), ("alpha", -5.0), ("beta", math.inf),
    ])
    def test_bad_objective_settings_rejected(self, field, value):
        with pytest.raises(ScenarioError, match=field):
            GaConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        GaConfig(population=np.int64(4), generations=np.int32(1), seed=np.uint64(7))

    def test_operator_rates_at_their_bounds_accepted(self):
        GaConfig(mutation_std=[0, 0.0], crossover_rate=0)
        GaConfig(mutation_std=(0.5, 2), crossover_rate=1.0)


class TestMissionMetrics:
    def test_colocated_single_slot(self):
        # colocated unit-parameter rate is exactly 1; demand 0.5 drains in one
        scn = scn_with([[0.0, 0.0]], [0.5], sigma2=1.0, dist_weight=0.0)
        m = evaluate_policy(ConstantController(0.0, 0.0), scn, 10, 1e-3)
        assert m.completion_steps == [1]
        assert m.mean_completion_steps == 1.0
        assert m.mission_steps == 1
        assert m.completed
        assert m.avg_rate == pytest.approx(1.0, abs=1e-15)

    def test_incomplete_mission_sentinel(self):
        scn = scn_with([[4.0, 3.0]], [50.0])
        m = evaluate_policy(ConstantController(0.0, 0.0), scn, 5, 1e-3)
        assert not m.completed
        assert m.completion_steps == [5]
        assert m.mission_steps == 5

    def test_matches_scalar_resimulation(self):
        scn = generate_scenario(6, k=3)
        ctl = GreedyController(scn)
        t_max, stop_eps = 100, 1e-3
        m = evaluate_policy(ctl, scn, t_max, stop_eps)

        # independent replay with plain floats
        q = [0.0, 0.0]
        d = [float(v) for v in scn.demands]
        done = [None if v > 0 else 0 for v in d]
        steps = 0
        rate_samples = []
        for t in range(t_max):
            if sum(d) < stop_eps * scn.k:
                break
            u = ctl(t, State(q=np.array(q), d=np.array(d)))
            active_rates = []
            for i in range(scn.k):
                r2 = (q[0] - scn.user_positions[i][0]) ** 2 \
                    + (q[1] - scn.user_positions[i][1]) ** 2
                r_i = (scn.bandwidth / scn.k) * math.log2(
                    1.0 + scn.eta / ((r2 + scn.altitude ** 2) * scn.sigma2))
                if d[i] > 0:
                    active_rates.append(r_i)
                    d[i] = max(0.0, d[i] - r_i * scn.tau)
                    if d[i] == 0.0 and done[i] is None:
                        done[i] = t + 1
            rate_samples.append(sum(active_rates) / len(active_rates))
            q = [q[0] + u.v * scn.tau * math.cos(u.theta),
                 q[1] + u.v * scn.tau * math.sin(u.theta)]
            steps = t + 1
        completed = sum(d) < stop_eps * scn.k
        ref_steps = [c if c is not None else (steps if completed else t_max)
                     for c in done]
        assert m.completed == completed
        assert m.completion_steps == ref_steps
        assert m.mean_completion_steps == pytest.approx(
            sum(ref_steps) / scn.k, rel=1e-12)
        assert m.mission_steps == (max(ref_steps) if completed else t_max)
        assert m.avg_rate == pytest.approx(
            sum(rate_samples) / len(rate_samples), rel=1e-12)

    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_avg_rate_equals_per_step_means_bitwise(self, k):
        # one rates call per state, as the mean of the per-step means; with
        # eight or more active users the order of a row's sum shows
        for seed, (lo, hi) in itertools.product(range(6), ((0.5, 1.0), (20.0, 40.0))):
            scn = generate_scenario(seed, k=k, demand_lo=lo, demand_hi=hi)
            params = init_params(seed, k=k, hidden=(8,))
            for source in (GreedyController(scn), PolicyController(params, scn)):
                traj = rollout(source, scn, 120, 1e-3)
                means = []
                for x in traj.states[:-1]:
                    active = x.d > 0.0
                    if np.any(active):
                        means.append(float(np.mean(rates(x.q, scn)[active])))
                want = float(np.mean(means)) if means else 0.0
                assert mission_metrics(traj, scn, 120).avg_rate == want

    def test_identical_record_identical_metrics(self):
        scn = generate_scenario(7, k=2)
        traj = rollout(GreedyController(scn), scn, 50, 1e-3)
        a = mission_metrics(traj, scn, 50)
        b = mission_metrics(traj, scn, 50)
        assert a == b
