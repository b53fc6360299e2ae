"""Greedy rule, genetic search, and the shared mission evaluator."""
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aavtraj import (
    GaConfig,
    GreedyConfig,
    GreedyController,
    NumericFailure,
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
from aavtraj import baselines
from aavtraj.baselines import OPEN_LOOP_CHUNK, OPEN_LOOP_SEGMENT, ConstantController, SequenceController, greedy_action
from aavtraj.env import rates, stage_costs
from aavtraj.smoothing import smoothness_penalty, wrap_angle


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

    def test_empty_speed_grid_rejected_at_construction(self):
        # greedy_action would otherwise fail with numpy's argmax of an empty sequence
        with pytest.raises(ScenarioError, match="speed_grid must hold at least one speed, got an empty list"):
            GreedyConfig(speed_grid=[])
        with pytest.raises(ScenarioError, match="speed_grid"):
            GreedyConfig(speed_grid=())

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
        GaConfig(mutation_std=(np.float64(0.1), np.int64(1)), crossover_rate=np.float32(0.5), beta=np.float64(2.0))

    @pytest.mark.parametrize("field, value", [
        ("mutation_std", "ab"), ("mutation_std", 5), ("mutation_std", None), ("mutation_std", (0.02, True)),
        ("mutation_std", (0.02, "0.3")), ("mutation_std", np.array([0.02, 0.3])), ("crossover_rate", True),
        ("crossover_rate", "0.5"), ("crossover_rate", None), ("stop_eps", "1e-3"), ("stop_eps", True),
        ("beta", "1"), ("alpha", False), ("alpha", [1e-3]),
    ])
    def test_values_of_wrong_type_rejected(self, field, value):
        with pytest.raises(ScenarioError, match=field):
            GaConfig(**{field: value})


def reference_fitness(chrom, scn, cfg):
    """One member's fitness as ga_optimize scored it before the population pass.

    A replay's tape takes its stage costs from open_loop_segment, as the pass
    does, so the oracle scores the tape's rows with stage_costs itself."""
    traj = rollout(SequenceController(chrom), scn, cfg.chromosome_length, cfg.stop_eps)
    task_cost = float(sum(stage_costs(traj.positions[1:], traj.backlogs[1:], scn).tolist()))
    return -(task_cost + cfg.beta * smoothness_penalty(traj.controls, cfg.alpha))


def scalar_fitness(pop, scn, cfg):
    """The oracle: one reference_fitness call per member, in population order."""
    return np.array([reference_fitness(c, scn, cfg) for c in pop])


def fitness_outcome(fitness, pop, scn, cfg):
    """The bytes of fitness(pop, scn, cfg), or the type, message, step and where of what it raised."""
    try:
        got = fitness(pop, scn, cfg)
    except (ScenarioError, NumericFailure) as exc:
        return type(exc), str(exc), getattr(exc, "step", None), getattr(exc, "where", None)
    return got.dtype, got.shape, got.tobytes()


def batch_and_scalar(pop, scn, cfg):
    return (fitness_outcome(baselines._population_fitness, pop, scn, cfg),
            fitness_outcome(scalar_fitness, pop, scn, cfg))


def hover_scn(demand):
    """One user under the vehicle's start: a hovering member drains exactly 1.0 per slot, so it

    ends at step ceil(demand); members flying off drain less."""
    return scn_with([[0.0, 0.0]], [demand], sigma2=1.0)


def random_population(rng, scn, size, length):
    pop = np.empty((size, length, 2))
    pop[..., 0] = rng.uniform(0.0, scn.v_max, (size, length))
    pick = rng.random((size, length))
    pop[..., 0][pick < 0.15] = 0.0
    pop[..., 0][pick > 0.85] = scn.v_max
    pop[..., 1] = rng.uniform(0.0, 2.0 * math.pi, (size, length))
    return pop


# the first chunk of the population pass ends on this row
CHUNK_END = OPEN_LOOP_SEGMENT + OPEN_LOOP_CHUNK
BAD_GENES = [(0, math.nan), (0, math.inf), (0, -0.1), (0, 0.3), (1, math.nan), (1, math.inf), (1, -math.inf)]


@st.composite
def population_cases(draw):
    k = draw(st.integers(1, 10))
    lo, hi = draw(st.sampled_from([(0.5, 1.0), (2.0, 5.0), (4.0, 8.0), (20.0, 40.0)]))
    scn = generate_scenario(draw(st.integers(0, 2**16)), k=k, demand_lo=lo, demand_hi=hi)
    if draw(st.booleans()):
        zero = draw(st.integers(0, k - 1))
        scn = replace(scn, demands=np.where(np.arange(k) == zero, 0.0, scn.demands))
    # generate_scenario's distance weight, none (stage_costs skips the distances) and a large one
    scn = replace(scn, dist_weight=draw(st.sampled_from([0.01, 0.0, 50.0])))
    length = draw(st.one_of(st.integers(1, OPEN_LOOP_SEGMENT - 1), st.integers(OPEN_LOOP_SEGMENT, 3 * CHUNK_END),
                            st.just(500)))
    size = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pop = random_population(rng, scn, size, length)
    hover = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    pop[hover, :, 0] = 0.0
    for _ in range(draw(st.integers(0, 2))):
        column, value = draw(st.sampled_from(BAD_GENES))
        pop[draw(st.integers(0, size - 1)), draw(st.integers(0, length - 1)), column] = value
    beta, alpha = draw(st.sampled_from([(1.0, 1e-3), (0.5, 2.0), (0.0, 1e-3)]))
    return pop, scn, GaConfig(chromosome_length=length, beta=beta, alpha=alpha)


class TestPopulationFitness:
    """ga_optimize scores a population with _population_fitness: one pass from

    step 0 over the members still running. Unless the scenario rules out an
    end within the first OPEN_LOOP_SEGMENT steps, each member's first
    segment is first a rollout of its own, and only the members that do
    not end there join the pass. One fitness rollout per member is the
    oracle.
    """

    @given(case=population_cases())
    @settings(max_examples=150, deadline=None)
    def test_equals_scalar_fitness_bytes(self, case):
        batched, scalar = batch_and_scalar(*case)
        assert batched == scalar

    @pytest.mark.parametrize("length", [5, OPEN_LOOP_SEGMENT, OPEN_LOOP_SEGMENT + 1, CHUNK_END,
                                        CHUNK_END + OPEN_LOOP_CHUNK + 3, 150])
    @pytest.mark.parametrize("end", [3, OPEN_LOOP_SEGMENT, OPEN_LOOP_SEGMENT + 1, CHUNK_END, CHUNK_END + 1,
                                     CHUNK_END + OPEN_LOOP_CHUNK + 2, None])
    def test_members_ending_at_the_edges(self, end, length):
        # end None: the hovering members never end and hover to t_max
        scn = hover_scn(1000.0 if end is None else end - 0.5)
        pop = random_population(np.random.default_rng(length), scn, 12, length)
        pop[::2, :, 0] = 0.0
        batched, scalar = batch_and_scalar(pop, scn, GaConfig(chromosome_length=length))
        assert batched == scalar
        hover_end = rollout(SequenceController(pop[0]), scn, length, 1e-3).terminated_step
        assert hover_end == (end if end is not None and end <= length else None)

    @pytest.mark.parametrize("step", [OPEN_LOOP_SEGMENT, OPEN_LOOP_SEGMENT + 1, CHUNK_END - 1, CHUNK_END, 59])
    @pytest.mark.parametrize("column, value", BAD_GENES)
    def test_bad_gene_past_the_first_segment_raises_like_the_scalar_loop(self, step, column, value):
        scn = generate_scenario(3, k=3, demand_lo=20.0, demand_hi=40.0)
        pop = random_population(np.random.default_rng(step), scn, 10, 60)
        pop[4, step, column] = value
        pop[7, step - 4, column] = value  # a later member failing at an earlier step
        pop[9, 0, 0] = math.nan  # a later member failing in its first segment
        batched, scalar = batch_and_scalar(pop, scn, GaConfig(chromosome_length=60))
        assert batched == scalar
        assert scalar[0] in (ScenarioError, NumericFailure)
        if scalar[0] is NumericFailure:
            assert scalar[2] == step  # member 4's
        else:
            assert scalar[1] == f"speed {value} outside [0, {scn.v_max}]"

    def test_gene_after_the_end_is_never_read(self):
        scn = hover_scn(CHUNK_END + 4.5)
        pop = random_population(np.random.default_rng(0), scn, 12, 120)
        pop[:, :, 0] = 0.0
        want = scalar_fitness(pop, scn, GaConfig(chromosome_length=120))
        pop[:, CHUNK_END + 5 :] = math.nan
        got = baselines._population_fitness(pop, scn, GaConfig(chromosome_length=120))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("demand", [OPEN_LOOP_SEGMENT + 4.0, CHUNK_END + 4.0])
    def test_huge_speed_after_the_end_is_never_read_and_never_warns(self, demand):
        # the hovering members end at step demand, in the pass; speeds of 1e308 two
        # steps later would overflow the positions of rows no step takes
        scn, length = hover_scn(demand), 120
        cfg = GaConfig(chromosome_length=length)
        assert baselines._cannot_end_within(scn, OPEN_LOOP_SEGMENT, cfg.stop_eps * scn.k)
        pop = random_population(np.random.default_rng(2), scn, 12, length)
        pop[::2, :, 0] = 0.0
        pop[::2, int(demand) + 2 :, 0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batched, scalar = batch_and_scalar(pop, scn, cfg)
        assert batched == scalar and scalar[0] == np.float64

    def test_a_failing_member_warns_as_its_rollout_does(self):
        # member 3 overflows its position on a row it takes: it falls back to its own rollout
        scn, length = replace(hover_scn(CHUNK_END + 4.0), v_max=1e308), 60
        cfg = GaConfig(chromosome_length=length)
        pop = np.zeros((6, length, 2))
        pop[3, OPEN_LOOP_SEGMENT + 2 :, 0] = 1e308
        with pytest.warns(RuntimeWarning, match="overflow"):
            want = fitness_outcome(scalar_fitness, pop, scn, cfg)
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = fitness_outcome(baselines._population_fitness, pop, scn, cfg)
        assert got == want and want[:2] == (NumericFailure, f"non-finite value at step {OPEN_LOOP_SEGMENT + 3} (state)")

    def test_the_pass_drops_members_as_they_end(self, monkeypatch):
        batches = []
        original = baselines.open_loop_segment

        def recording(controls, *args):
            batches.append(controls.shape[:2])
            return original(controls, *args)

        monkeypatch.setattr(baselines, "open_loop_segment", recording)
        length = CHUNK_END + 2 * OPEN_LOOP_CHUNK + 3
        scn = hover_scn(CHUNK_END + 4.5)
        pop = np.zeros((6, length, 2))
        pop[3:, :, 0] = scn.v_max  # flying straight off, these never end
        cfg = GaConfig(chromosome_length=length)
        got = baselines._population_fitness(pop, scn, cfg)
        assert got.tobytes() == scalar_fitness(pop, scn, cfg).tobytes()
        # no member can end in its first segment, so the pass starts at step 0
        assert batches == [(6, OPEN_LOOP_SEGMENT), (6, OPEN_LOOP_CHUNK), (6, OPEN_LOOP_CHUNK), (3, OPEN_LOOP_CHUNK),
                           (3, 3)]
        batches.clear()
        baselines._population_fitness(pop[:3], hover_scn(OPEN_LOOP_SEGMENT - 0.5), cfg)
        assert batches == []  # every member ended in its first segment

    @pytest.mark.parametrize("demand, gated, hover_end", [(OPEN_LOOP_SEGMENT, False, OPEN_LOOP_SEGMENT),
                                                          (OPEN_LOOP_SEGMENT + 0.5, True, OPEN_LOOP_SEGMENT + 1)])
    def test_first_segments_join_the_pass_only_when_no_member_can_end_in_them(
            self, monkeypatch, demand, gated, hover_end):
        # hovering over the one user drains it at the bound, 1.0 per slot
        scn, length = hover_scn(demand), 60
        cfg = GaConfig(chromosome_length=length)
        assert baselines._cannot_end_within(scn, OPEN_LOOP_SEGMENT, cfg.stop_eps * scn.k) is gated
        pop = random_population(np.random.default_rng(3), scn, 12, length)
        pop[::3, :, 0] = 0.0
        assert rollout(SequenceController(pop[0]), scn, length, cfg.stop_eps).terminated_step == hover_end
        per_member, rollout_of = [], baselines.rollout

        def counting(*args):
            per_member.append(args[2])
            return rollout_of(*args)

        monkeypatch.setattr(baselines, "rollout", counting)
        got = fitness_outcome(baselines._population_fitness, pop, scn, cfg)
        monkeypatch.undo()
        assert got == fitness_outcome(scalar_fitness, pop, scn, cfg)
        assert per_member == ([] if gated else [OPEN_LOOP_SEGMENT] * 12)


    def test_members_past_their_first_segment_join_the_pass_at_step_0(self, monkeypatch):
        # random flights of 60 steps around one user: the hovering members end on row 8,
        # some others run past their first segment
        scn, length = hover_scn(7.9), 60
        cfg = GaConfig(chromosome_length=length)
        assert not baselines._cannot_end_within(scn, OPEN_LOOP_SEGMENT, cfg.stop_eps * scn.k)
        pop = random_population(np.random.default_rng(1), scn, 12, length)
        pop[::3, :, 0] = 0.0
        ran_on, batches = [], []
        rollout_of, segment_of = baselines.rollout, baselines.open_loop_segment

        def counting(*args):
            traj = rollout_of(*args)
            ran_on.append(traj.terminated_step is None)
            return traj

        def segments(controls, q, d, *args):
            batches.append((controls.shape[:2], q.tolist(), d.tolist()))
            return segment_of(controls, q, d, *args)

        monkeypatch.setattr(baselines, "rollout", counting)
        monkeypatch.setattr(baselines, "open_loop_segment", segments)
        got = baselines._population_fitness(pop, scn, cfg)
        monkeypatch.undo()
        assert got.tobytes() == scalar_fitness(pop, scn, cfg).tobytes()
        assert len(ran_on) == 12 and 0 < sum(ran_on) < 12 and not any(ran_on[::3])
        # the first batch starts every running member from the initial state
        assert batches[0] == ((sum(ran_on), OPEN_LOOP_SEGMENT), [0.0, 0.0], scn.demands.tolist())
        assert all(shape[1] == OPEN_LOOP_CHUNK for shape, _, _ in batches[1:-1])


def rate_bound_drain(scn):
    """The most any user can drain in one slot: its rate straight above it, times tau."""
    return float(rates(scn.user_positions[0], scn)[0]) * scn.tau


@st.composite
def gate_cases(draw):
    k = draw(st.integers(1, 10))
    physics = dict(eta=draw(st.sampled_from([0.1, 1.0, 30.0])), sigma2=draw(st.sampled_from([0.01, 0.1, 1.0])),
                   altitude=draw(st.sampled_from([0.3, 1.0, 4.0])))
    scn = generate_scenario(draw(st.integers(0, 2**16)), k=k, area_side=draw(st.sampled_from([0.5, 3.0, 10.0])),
                            **physics)
    users = scn.user_positions.copy()
    users[: draw(st.integers(0, k))] = 0.0  # users under the start drain at the bound while the vehicle hovers
    scn = replace(scn, user_positions=users)
    # backlogs near whole numbers of the largest drain, some of them zero
    slots = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 12.0), st.integers(0, 12).map(float),
                                    st.integers(1, 12).map(lambda n: n + 1e-9)), min_size=k, max_size=k))
    scn = replace(scn, demands=np.array(slots) * rate_bound_drain(scn))
    stop_eps = draw(st.sampled_from([1e-3, 0.05, 1.0]))
    kind = draw(st.sampled_from(["hover", "greedy", "random"]))
    if kind == "hover":
        policy = ConstantController(0.0, 0.0)
    elif kind == "greedy":
        policy = GreedyController(scn)
    else:
        policy = SequenceController(random_population(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                                                      scn, 1, 16)[0])
    return scn, stop_eps, policy


class TestFirstSegmentGate:
    """_cannot_end_within(scn, n, threshold) decides from the scenario alone that

    no rollout ends by row n; the population pass relies on it to start every
    member at step 0.
    """

    @given(case=gate_cases())
    @settings(max_examples=300, deadline=None)
    def test_no_rollout_ends_by_a_gated_row(self, case):
        scn, stop_eps, policy = case
        traj = rollout(policy, scn, 16, stop_eps)
        end = traj.terminated_step
        for n in range(1, 17):
            if baselines._cannot_end_within(scn, n, stop_eps * scn.k):
                assert end is None or end > n
                assert float(traj.backlogs[n].sum()) >= stop_eps * scn.k

    @pytest.mark.parametrize("n", [1, 3, OPEN_LOOP_SEGMENT])
    def test_the_bound_is_tight_for_a_hovering_vehicle(self, n):
        # demand n drains to zero in exactly n slots over a colocated user; a hair more does not
        for demand, gated in ((n, False), (n + 1e-6, True)):
            scn = hover_scn(float(demand))
            assert baselines._cannot_end_within(scn, n, 1e-9) is gated
            end = rollout(ConstantController(0.0, 0.0), scn, 2 * n, 1e-9).terminated_step
            assert end == (n + 1 if gated else n)

    def test_default_missions_keep_their_first_segments_per_member(self):
        for k in (1, 2, 4, 6, 8, 10):
            for seed in range(200):
                assert not baselines._cannot_end_within(generate_scenario(seed, k=k), OPEN_LOOP_SEGMENT, 1e-3 * k)

    def test_a_non_finite_drain_never_gates(self):
        scn = scn_with([[0.0, 0.0]], [1e300], eta=1e300, sigma2=1e-300)
        with np.errstate(all="ignore"):
            assert not baselines._cannot_end_within(scn, 1, 1e-3)


def reference_ga_optimize(scn, cfg, evaluations):
    """ga_optimize as it was with one fitness rollout per member, appending each

    evaluated fitness array (the initial population's, then each generation's
    children's) to evaluations. The reference for the population pass."""
    rng = np.random.default_rng(cfg.seed)
    t_len = cfg.chromosome_length
    pop = np.empty((cfg.population, t_len, 2))
    pop[:, :, 0] = rng.uniform(0.0, scn.v_max, size=(cfg.population, t_len))
    pop[:, :, 1] = rng.uniform(0.0, 2.0 * math.pi, size=(cfg.population, t_len))
    fitness = scalar_fitness(pop, scn, cfg)
    evaluations.append(fitness)

    best_idx = int(np.argmax(fitness))
    best = pop[best_idx].copy()
    best_fit = float(fitness[best_idx])
    log = [best_fit]

    v_std, th_std = cfg.mutation_std
    for _ in range(cfg.generations):
        elites = np.argsort(-fitness, kind="stable")[: cfg.elitism]
        children = [pop[i].copy() for i in elites]
        while len(children) < cfg.population:
            pa = pop[baselines._tournament(rng, fitness, cfg.tournament_size)]
            pb = pop[baselines._tournament(rng, fitness, cfg.tournament_size)]
            ca, cb = pa.copy(), pb.copy()
            if t_len > 1 and rng.random() < cfg.crossover_rate:
                cut = int(rng.integers(1, t_len))
                ca[:cut], cb[:cut] = pb[:cut].copy(), pa[:cut].copy()
            for child in (ca, cb):
                child[:, 0] = np.clip(child[:, 0] + rng.normal(0.0, v_std, t_len), 0.0, scn.v_max)
                child[:, 1] = child[:, 1] + rng.normal(0.0, th_std, t_len)
            children.append(ca)
            if len(children) < cfg.population:
                children.append(cb)
        pop = np.stack(children)
        bred = scalar_fitness(children[cfg.elitism:], scn, cfg)
        evaluations.append(bred)
        fitness = np.concatenate([fitness[elites], bred])
        gen_best = int(np.argmax(fitness))
        if float(fitness[gen_best]) > best_fit:
            best_fit = float(fitness[gen_best])
            best = pop[gen_best].copy()
        log.append(best_fit)

    return best, log


class TestGaAgainstTheReferenceLoop:
    # per_member: whether each member's first segment is a rollout of its own
    @pytest.mark.parametrize("scn, cfg, per_member", [
        (generate_scenario(0, k=4, demand_lo=20.0, demand_hi=40.0), GaConfig(generations=3, seed=0), False),
        (generate_scenario(0, k=4, demand_lo=20.0, demand_hi=40.0), GaConfig(generations=3, seed=7), False),
        (generate_scenario(5, k=10, demand_lo=20.0, demand_hi=40.0),
         GaConfig(population=16, generations=4, chromosome_length=97, elitism=3, seed=5), False),
        # random flights of 60 steps around one user: about half the members end in their first segment
        (hover_scn(7.9), GaConfig(population=20, generations=4, chromosome_length=60, seed=0), True),
    ])
    def test_outputs_and_every_fitness_array_equal_the_reference(self, monkeypatch, scn, cfg, per_member):
        evaluations, ran_on, batches = [], [], []
        population_fitness, rollout_of = baselines._population_fitness, baselines.rollout
        segment_of = baselines.open_loop_segment

        def recording(pop, *args):
            evaluations.append(population_fitness(pop, *args))
            return evaluations[-1]

        def counting(policy, *args):
            traj = rollout_of(policy, *args)
            ran_on.append(traj.terminated_step is None)
            return traj

        def segments(controls, *args):
            batches.append(controls.shape[:2])
            return segment_of(controls, *args)

        monkeypatch.setattr(baselines, "_population_fitness", recording)
        monkeypatch.setattr(baselines, "rollout", counting)
        monkeypatch.setattr(baselines, "open_loop_segment", segments)
        best, log = ga_optimize(scn, cfg)
        monkeypatch.undo()
        want = []
        want_best, want_log = reference_ga_optimize(scn, cfg, want)
        assert best.tobytes() == want_best.tobytes()
        assert np.array(log).tobytes() == np.array(want_log).tobytes()
        assert len(evaluations) == len(want) == cfg.generations + 1
        for got, ref in zip(evaluations, want):
            assert got.tobytes() == ref.tobytes()
        assert batches  # the pass ran
        if per_member:
            assert 0.2 < np.mean(ran_on) < 0.8
        else:
            assert ran_on == []
            assert batches[0] == (cfg.population, OPEN_LOOP_SEGMENT)


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
