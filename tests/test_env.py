"""Environment oracles: rates, dynamics, stage cost, rollout bookkeeping.

Expected values are hand derivations of the closed-form expressions,
not captured outputs of the code under test.
"""
import inspect
import math
import warnings
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
    SequenceController,
    State,
    generate_scenario,
    load_scenario,
    rollout,
    save_scenario,
)
from aavtraj import (
    ConstantController,
    GaConfig,
    GreedyConfig,
    GreedyController,
    PolicyController,
    SweepSpec,
    TrainConfig,
    env,
    ga_optimize,
    init_params,
    policy,
    run_gradcheck,
    run_sweep,
    train,
)
from aavtraj.baselines import OPEN_LOOP_SEGMENT
from aavtraj.env import (
    initial_state,
    move,
    rates,
    scenario_from_dict,
    scenario_to_dict,
    stage_cost,
    step,
)
from aavtraj.policy import LayerSpec
from oracles import as_vector, drain_mask, rate_gradients_at, step_and_mask


def unit_scn(users, demands, **kw):
    defaults = dict(area_side=10.0, eta=1.0, sigma2=1.0, altitude=1.0,
                    tau=1.0, v_max=0.2, dist_weight=0.0, seed=0)
    defaults.update(kw)
    return Scenario(user_positions=np.asarray(users, dtype=float),
                    demands=np.asarray(demands, dtype=float), **defaults)


def default_scn(users, demands, **kw):
    kw.setdefault("sigma2", 0.1)
    kw.setdefault("dist_weight", 0.01)
    return unit_scn(users, demands, **kw)


class TestRate:
    def test_colocated_unit_parameters(self):
        # snr = 1/((0+1)*1) = 1, rate = log2(2)
        scn = unit_scn([[0.0, 0.0]], [1.0])
        assert rates(np.zeros(2), scn)[0] == pytest.approx(1.0, abs=1e-15)

    def test_sqrt3_offset(self):
        # r^2 = 3 -> snr = 1/4 -> log2(1.25)
        scn = unit_scn([[math.sqrt(3.0), 0.0]], [1.0])
        assert rates(np.zeros(2), scn)[0] == pytest.approx(
            0.32192809488736235, rel=1e-14)

    def test_snr_two_case(self):
        # r^2 = 4, sigma2 = 0.1 -> snr = 1/0.5 = 2 -> log2(3)
        scn = unit_scn([[2.0, 0.0]], [1.0], sigma2=0.1)
        assert rates(np.zeros(2), scn)[0] == pytest.approx(
            math.log2(3.0), rel=1e-14)

    def test_bandwidth_split(self):
        # per-user share is bandwidth/K; halving bandwidth halves the rate
        scn2 = unit_scn([[0, 0], [3, 0]], [1, 1])
        scn1 = unit_scn([[0, 0], [3, 0]], [1, 1], bandwidth=1.0)
        q = np.zeros(2)
        assert rates(q, scn1)[0] == pytest.approx(0.5 * rates(q, scn2)[0], rel=1e-14)

    def test_vanishing_signal_limit(self):
        scn = unit_scn([[1.0, 0.0]], [1.0], eta=1e-12)
        assert 0.0 < rates(np.zeros(2), scn)[0] < 1e-11

    def test_strictly_decreasing_in_distance(self):
        scn = unit_scn([[0.0, 0.0]], [1.0], sigma2=0.1)
        radii = np.linspace(0.0, 7.0, 40)
        vals = [rates(np.array([r, 0.0]), scn)[0] for r in radii]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_batched_rates_match_scalar(self):
        scn = default_scn([[1, 2], [-3, 0.5], [0, -4]], [1, 1, 1])
        pts = np.array([[0.0, 0.0], [1.0, -1.0], [2.5, 3.0]])
        batched = rates(pts, scn)
        for j, q in enumerate(pts):
            for i in range(3):
                assert batched[j, i] == rates(q, scn)[i]


class TestRateGradients:
    def test_hand_case(self):
        # user at (3,0), q at origin, sigma2 = 0.1: snr = 1,
        # dR/dq = -(1/ln2) * (1/2) * 2*(q-w)/(0.1*100) = (0.3/ln2, 0)
        scn = unit_scn([[3.0, 0.0]], [1.0], sigma2=0.1)
        g = rate_gradients_at(np.zeros(2), scn)
        assert g.shape == (1, 2)
        assert g[0, 0] == pytest.approx(0.3 / math.log(2.0), rel=1e-13)
        assert g[0, 1] == 0.0

    def test_matches_central_differences(self):
        scn = default_scn([[1, 2], [-3, 0.5]], [1, 1])
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(5):
            q = rng.uniform(-4, 4, size=2)
            g = rate_gradients_at(q, scn)
            for axis in range(2):
                e = np.zeros(2)
                e[axis] = h
                fd = (rates(q + e, scn) - rates(q - e, scn)) / (2 * h)
                assert np.allclose(g[:, axis], fd, rtol=1e-6, atol=1e-9)


def moved(q, u, scn):
    """The position step() gives from q under u (the backlogs are the demands)."""
    return step(State(q=q, d=scn.demands), u, scn).q


class TestKinematics:
    def test_zero_speed(self):
        scn = unit_scn([[0, 0]], [1])
        q = np.array([1.0, -2.0])
        assert np.array_equal(moved(q, Control(0.0, 1.234), scn), q)

    def test_axis_moves(self):
        scn = unit_scn([[0, 0]], [1])
        q = np.zeros(2)
        assert np.allclose(moved(q, Control(0.2, 0.0), scn),
                           [0.2, 0.0], atol=1e-15)
        assert np.allclose(moved(q, Control(0.2, math.pi / 2), scn),
                           [0.0, 0.2], atol=1e-15)

    def test_speed_bounds_enforced(self):
        scn = unit_scn([[0, 0]], [1])
        for bad in (0.21, -0.01):
            with pytest.raises(ScenarioError):
                moved(np.zeros(2), Control(bad, 0.0), scn)

    @given(v=st.floats(0.0, 0.2), theta=st.floats(-10.0, 10.0),
           qx=st.floats(-5, 5), qy=st.floats(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_step_size_exact(self, v, theta, qx, qy):
        scn = unit_scn([[0, 0]], [1])
        q = np.array([qx, qy])
        q2 = moved(q, Control(v, theta), scn)
        assert abs(np.linalg.norm(q2 - q) - v * scn.tau) < 1e-12


class TestTasks:
    def test_completed_stays_completed(self):
        scn = unit_scn([[0.0, 0.0]], [1.0])
        x2, mask = step_and_mask(State(q=np.zeros(2), d=[0.0]), Control(0.0, 0.0), scn)
        d2 = x2.d
        assert d2[0] == 0.0 and mask[0] == 0

    def test_partial_drain(self):
        # colocated unit-parameter rate is exactly 1; scale tau for R*tau = 0.2
        scn = unit_scn([[0.0, 0.0]], [1.0], tau=0.2)
        x2, mask = step_and_mask(State(q=np.zeros(2), d=[0.5]), Control(0.0, 0.0), scn)
        d2 = x2.d
        assert d2[0] == pytest.approx(0.3, abs=1e-15)
        assert mask[0] == 1

    def test_clamp(self):
        scn = unit_scn([[0.0, 0.0]], [1.0], tau=0.2)
        x2, mask = step_and_mask(State(q=np.zeros(2), d=[0.1]), Control(0.0, 0.0), scn)
        d2 = x2.d
        assert d2[0] == 0.0 and mask[0] == 0

    def test_exact_zero_counts_as_clamped(self):
        scn = unit_scn([[0.0, 0.0]], [1.0])  # rate exactly 1.0, tau 1
        x2, mask = step_and_mask(State(q=np.zeros(2), d=[1.0]), Control(0.0, 0.0), scn)
        d2 = x2.d
        assert d2[0] == 0.0 and mask[0] == 0


class TestStep:
    def test_fixed_point(self):
        scn = unit_scn([[1.0, 1.0]], [0.0])
        x = State(q=np.array([0.5, 0.5]), d=np.array([0.0]))
        x2, mask = step_and_mask(x, Control(0.0, 0.3), scn)
        assert np.array_equal(x2.q, x.q) and np.array_equal(x2.d, x.d)
        assert mask[0] == 0

    def test_composes_substeps_with_pre_move_rates(self):
        scn = default_scn([[1, 2], [-3, 0.5]], [0.9, 0.6])
        x = State(q=np.array([0.2, -0.1]), d=np.array([0.9, 0.6]))
        u = Control(0.15, 2.0)
        x2, mask = step_and_mask(x, u, scn)
        raw = x.d - rates(x.q, scn) * scn.tau  # rates at pre-step q
        assert np.array_equal(x2.q, x.q + np.array(move(u.v, u.theta, scn.tau)))
        assert np.array_equal(x2.d, np.maximum(0.0, raw))
        assert np.array_equal(mask, (raw > 0.0).astype(float))
        assert np.array_equal((x2.d > 0.0).astype(float), mask)  # the rule rollout reads the masks by

    def test_against_straight_line_reimplementation(self):
        scn = default_scn([[1, 2], [-3, 0.5], [4, -1]], [1, 1, 1])
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = rng.uniform(-4, 4, size=2)
            d = rng.uniform(0, 1, size=3)
            v = rng.uniform(0, scn.v_max)
            th = rng.uniform(-math.pi, math.pi)
            x2 = step(State(q=q, d=d), Control(v, th), scn)
            q_ref = q + v * scn.tau * np.array([math.cos(th), math.sin(th)])
            d_ref = np.empty(3)
            for i in range(3):
                r2 = (q[0] - scn.user_positions[i, 0]) ** 2 \
                    + (q[1] - scn.user_positions[i, 1]) ** 2
                snr = scn.eta / ((r2 + scn.altitude ** 2) * scn.sigma2)
                r_i = (scn.bandwidth / scn.k) * math.log2(1.0 + snr)
                d_ref[i] = max(0.0, d[i] - r_i * scn.tau)
            assert np.allclose(x2.q, q_ref, atol=1e-14)
            assert np.allclose(x2.d, d_ref, atol=1e-14)


class TestStageCost:
    def test_zero(self):
        scn = unit_scn([[1, 0], [0, 1]], [1, 1])
        assert stage_cost(State(q=np.zeros(2), d=np.zeros(2)), scn) == 0.0

    def test_backlog_only(self):
        scn = unit_scn([[1, 0], [0, 1]], [1, 1])
        x = State(q=np.zeros(2), d=np.array([0.5, 0.5]))
        assert stage_cost(x, scn) == pytest.approx(1.0, abs=1e-15)

    def test_with_distance_shaping(self):
        scn = unit_scn([[2.0, 0.0]], [1.0], dist_weight=0.01)
        x = State(q=np.zeros(2), d=np.array([0.5]))
        assert stage_cost(x, scn) == pytest.approx(0.52, abs=1e-15)


# generate_scenario's distance weight, none (stage_costs skips the distances) and a large one
DIST_WEIGHTS = (0.01, 0.0, 50.0)


class TestCostArithmetic:
    """open_loop_segment scores its rows from the squared distances its drains

    use and the backlog sums its termination test takes; stage_costs takes
    them from a tape's rows. These pin the bits the two share.
    """

    @pytest.mark.parametrize("k", range(1, 11))
    def test_squared_distances_equal_the_summed_squares_whichever_sign(self, k):
        rng = np.random.default_rng(k)
        users = rng.uniform(-5.0, 5.0, (k, 2)) * 10.0 ** rng.integers(-3, 3, (k, 2))
        users[0] = [0.0, -0.0]
        scn = default_scn(users, np.ones(k))
        q = rng.uniform(-5.0, 5.0, (6, 9, 2)) * 10.0 ** rng.integers(-3, 3, (6, 9, 2))
        q[0, 0] = [-0.0, 0.0]
        q[0, 1] = users[-1]  # on a user
        got = env.squared_distances(q, scn)
        assert got.shape == (6, 9, k)
        flat = q.reshape(-1, 2)
        for offsets in (flat[:, None, :] - users, users - flat[:, None, :]):
            assert np.sum(offsets**2, axis=2).reshape(got.shape).tobytes() == got.tobytes()
        assert env.squared_distances(q[2, 3], scn).tobytes() == got[2, 3].tobytes()

    @pytest.mark.parametrize("k", range(1, 13))
    def test_batched_row_sums_equal_the_rows_of_a_reshaped_copy(self, k):
        rng = np.random.default_rng(k)
        back = rng.uniform(0.0, 1.0, (5, 21, k)) * 10.0 ** rng.integers(-3, 4, (5, 21, k))
        back[:, ::4, 0] = 0.0
        rows = back.reshape(-1, k).copy()
        assert back.sum(axis=-1).reshape(-1).tobytes() == np.sum(rows, axis=1).tobytes()
        # the distance term: rows 1..m of each member, against a reshaped copy of them
        got = np.sum(np.sqrt(back[:, 1:]), axis=-1)
        assert got.reshape(-1).tobytes() == np.sum(np.sqrt(back[:, 1:].reshape(-1, k)), axis=1).tobytes()
        if k >= 8:
            # numpy's pairwise summation unrolls here: a left-to-right sum differs on some row
            assert any(sum(row.tolist()) != total for row, total in zip(rows, back.sum(axis=-1).reshape(-1)))


class TestSegmentCosts:
    """Segment.costs are stage_costs of each member's rows 1..m, byte for byte,

    and each member's are those of a batch of that member alone.
    """

    @pytest.mark.parametrize("dist_weight", DIST_WEIGHTS)
    @pytest.mark.parametrize("k", range(1, 11))
    def test_costs_equal_stage_costs_of_each_members_rows(self, k, dist_weight):
        rng = np.random.default_rng(k)
        scn = replace(generate_scenario(k, k=k), dist_weight=dist_weight)
        if k > 1:
            scn = replace(scn, demands=np.where(np.arange(k) == k // 2, 0.0, scn.demands))  # a zero-demand user
        size, m, threshold = 9, 20, 1e-3 * k
        controls = np.stack([rng.uniform(0.0, scn.v_max, (size, m)), rng.uniform(-math.pi, math.pi, (size, m))],
                            axis=-1)
        controls[::3, :, 0] = 0.0
        q = rng.uniform(-scn.area_side / 2, scn.area_side / 2, (size, 2))
        q[0] = scn.user_positions[0]  # on a user
        # from none to a hundredfold of the backlog left: members end on row 0, mid-chunk or not at all
        d = scn.demands * np.array([0.0, 0.01, 0.3, 0.6, 1.0, 2.0, 5.0, 30.0, 100.0])[:, None]
        seg = env.open_loop_segment(controls, q, d, scn, threshold)
        assert seg.costs.shape == (size, m)
        assert seg.ended.any() and not seg.ended.all() and ((0 < seg.end) & (seg.end < m)).any()
        for i in range(size):
            want = env.stage_costs(seg.positions[i, 1:], seg.backlogs[i, 1:], scn)
            assert seg.costs[i].tobytes() == want.tobytes()
            for alone in (env.open_loop_segment(controls[i], q[i], d[i], scn, threshold),
                          env.open_loop_segment(controls[i : i + 1], q[i], d[i], scn, threshold)):
                assert alone.costs.reshape(m).tobytes() == seg.costs[i].tobytes()
                assert alone.end.item() == seg.end[i]


class TestRollout:
    def hover(self):
        return lambda t, x: Control(0.0, 0.0)

    @pytest.mark.parametrize("stop_eps", [math.nan, math.inf, 0.0, -1e-3])
    def test_stop_eps_must_be_positive_finite(self, stop_eps):
        # a NaN threshold never compares true, so the mission would never end early
        with pytest.raises(ScenarioError, match="stop_eps must be a positive finite number"):
            rollout(self.hover(), generate_scenario(0, k=2), 50, stop_eps)

    def test_zero_demand_terminates_immediately(self):
        scn = unit_scn([[1, 0], [0, 1]], [0.0, 0.0])
        traj = rollout(self.hover(), scn, 50, 1e-3)
        assert traj.steps == 0
        assert traj.terminated_step == 0
        assert sum(traj.stage_costs) == 0.0

    def test_single_step_horizon(self):
        scn = default_scn([[4.0, 0.0]], [5.0])
        traj = rollout(self.hover(), scn, 1, 1e-3)
        assert traj.steps == 1
        assert len(traj.states) == 2
        assert len(traj.controls) == len(traj.stage_costs) == 1
        assert traj.terminated_step is None

    def test_hover_cost_matches_scalar_resimulation(self):
        # far user, large demand: never completes, so every slot contributes
        scn = unit_scn([[5.0, 0.0]], [40.0], sigma2=0.1)
        t_max = 25
        traj = rollout(self.hover(), scn, t_max, 1e-3)
        assert traj.steps == t_max
        r = (scn.bandwidth / scn.k) * math.log2(
            1.0 + scn.eta / ((25.0 + 1.0) * scn.sigma2))
        d, total = 40.0, 0.0
        for _ in range(t_max):
            d = max(0.0, d - r)
            total += d
        assert sum(traj.stage_costs) == pytest.approx(total, rel=1e-12)
        assert sum(traj.stage_costs) == pytest.approx(
            t_max * 40.0 - sum(40.0 - max(0.0, 40.0 - (t + 1) * r)
                               for t in range(t_max)), rel=1e-12)

    def test_record_consistency(self):
        scn = default_scn([[2, 1], [-1, 3]], [1.0, 0.8])
        traj = rollout(self.hover(), scn, 10, 1e-3)
        t = traj.steps
        assert len(traj.states) == t + 1
        assert len(traj.controls) == len(traj.stage_costs) == t
        assert len(traj.active_masks) == t
        for i in range(t):
            assert traj.stage_costs[i] == stage_cost(traj.states[i + 1], scn)

    def test_tape_arrays(self):
        scn = default_scn([[2, 1], [-1, 3]], [1.0, 0.8])
        traj = rollout(self.hover(), scn, 10, 1e-3)
        t = traj.steps
        assert traj.positions.shape == (t + 1, 2)
        assert traj.backlogs.shape == (t + 1, 2)
        assert traj.controls.shape == (t, 2)
        assert traj.active_masks.shape == (t, 2)
        assert traj.stage_costs.shape == (t,)
        assert np.array_equal(traj.controls_array(), traj.controls)
        assert traj.task_cost() == sum(float(c) for c in traj.stage_costs)
        for x, q, d in zip(traj.states, traj.positions, traj.backlogs):
            assert np.array_equal(x.q, q) and np.array_equal(x.d, d)

    def test_completion_steps_recorded(self):
        # colocated unit rate 1.0 and demands 0.5/1.5 drain in 1 and 2 slots
        scn = unit_scn([[0.0, 0.0], [0.0, 0.0]], [0.5, 1.5])
        traj = rollout(self.hover(), scn, 10, 1e-3)
        assert traj.completion_step == [1, 2]
        assert traj.terminated_step == 2

    def test_backlog_monotone(self):
        scn = default_scn([[2, 1], [-1, 3], [0, -2]], [1, 1, 1])
        rng = np.random.default_rng(11)

        def jitter(t, x):
            return Control(rng.uniform(0, scn.v_max), rng.uniform(0, 2 * math.pi))

        traj = rollout(jitter, scn, 30, 1e-3)
        for a, b in zip(traj.states, traj.states[1:]):
            assert np.all(b.d <= a.d + 1e-15)

    def test_nonfinite_control_raises(self):
        scn = default_scn([[2, 1]], [1.0])

        def bad(t, x):
            return Control(float("nan"), 0.0)

        with pytest.raises(NumericFailure) as e:
            rollout(bad, scn, 5, 1e-3)
        assert e.value.step == 0

    def test_deterministic(self):
        scn = default_scn([[2, 1], [-1, 3]], [1.0, 0.8])
        a = rollout(self.hover(), scn, 10, 1e-3)
        b = rollout(self.hover(), scn, 10, 1e-3)
        assert all(np.array_equal(as_vector(x), as_vector(y))
                   for x, y in zip(a.states, b.states))
        assert np.array_equal(a.stage_costs, b.stage_costs)


def stepped(ctl):
    """A plain callable around the controller, which rollout steps one slot at a time."""
    return lambda t, x: ctl(t, x)


def outcome(run):
    """The tape of run() as bytes, or the type, message and step of what it raised."""
    try:
        traj = run()
    except (ScenarioError, NumericFailure) as exc:
        return type(exc), str(exc), getattr(exc, "step", None), getattr(exc, "where", None)
    arrays = (traj.positions, traj.backlogs, traj.controls, traj.active_masks, traj.stage_costs)
    return ([(a.dtype, a.shape, a.tobytes()) for a in arrays],
            traj.completion_step, traj.terminated_step)


def array_and_loop(ctl, scn, t_max, stop_eps=1e-3):
    """The outcomes of rollout on ctl itself and on a plain callable around it."""
    return (outcome(lambda: rollout(ctl, scn, t_max, stop_eps)),
            outcome(lambda: rollout(stepped(ctl), scn, t_max, stop_eps)))


def replay_and_loop(controls, scn, t_max, stop_eps=1e-3):
    return array_and_loop(SequenceController(controls), scn, t_max, stop_eps)


@st.composite
def replay_cases(draw):
    k = draw(st.integers(1, 10))
    long = draw(st.booleans())
    scn = generate_scenario(draw(st.integers(0, 2**16)), k=k,
                            demand_lo=20.0 if long else 0.5, demand_hi=40.0 if long else 1.0)
    zero = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    if zero.any():
        scn = replace(scn, demands=np.where(zero, 0.0, scn.demands))
    scn = replace(scn, dist_weight=draw(st.sampled_from(DIST_WEIGHTS)))
    t_max = draw(st.sampled_from([1, 2, 7, 8, 9, 40, 200]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.sampled_from([math.pi, 50.0, 1e4]))
    speeds = rng.uniform(0.0, scn.v_max, t_max)
    pick = rng.random(t_max)
    speeds[pick < 0.15] = 0.0
    speeds[pick > 0.85] = scn.v_max
    controls = np.stack([speeds, rng.uniform(-span, span, t_max)], axis=1)
    return controls, scn, t_max


class TestReplay:
    """A SequenceController's tape is computed in one open_loop_segment pass

    over the horizon; the step loop, reached through a plain callable, is
    the oracle.
    """

    @given(case=replay_cases())
    @settings(max_examples=150, deadline=None)
    def test_tape_equals_step_loop_bytes(self, case):
        controls, scn, t_max = case
        replayed, stepped_tape = replay_and_loop(controls, scn, t_max)
        assert replayed == stepped_tape
        # the array path itself produced it, not a fallback to the loop
        assert env._replay(controls, scn, t_max, 1e-3 * scn.k) is not None

    @pytest.mark.parametrize("demand", [0.0, 0.5, 7.0, 7.5, 8.0, 8.5, 9.0, 30.0])
    @pytest.mark.parametrize("t_max", [1, 7, 8, 9, 20])
    def test_termination_around_the_segment_boundary(self, demand, t_max):
        # a hovering vehicle over its one user drains exactly 1.0 per slot
        scn = unit_scn([[0.0, 0.0]], [demand])
        replayed, stepped_tape = replay_and_loop(np.zeros((t_max, 2)), scn, t_max)
        assert replayed == stepped_tape
        expected = math.ceil(demand)
        assert replayed[2] == (expected if expected <= t_max else None)

    def test_negative_zero_hover_moves_leave_the_origin_positive(self):
        scn = unit_scn([[3.0, 0.0]], [30.0])
        controls = np.array([[0.0, math.pi]] * 12)  # 0 * cos(pi) is -0.0
        replayed, stepped_tape = replay_and_loop(controls, scn, 12)
        assert replayed == stepped_tape
        traj = rollout(SequenceController(controls), scn, 12, 1e-3)
        assert not np.signbit(traj.positions).any()

    def test_negative_zero_demand_with_no_drain(self):
        # eta so small that every rate rounds to 0: a -0.0 backlog stays -0.0
        scn = unit_scn([[1.0, 0.0], [0.0, 1.0]], [-0.0, 5.0], eta=1e-30)
        replayed, stepped_tape = replay_and_loop(np.zeros((20, 2)), scn, 20)
        assert replayed == stepped_tape

    def test_controls_are_copied_into_the_tape(self):
        controls = np.full((20, 2), 0.1)
        traj = rollout(SequenceController(controls), generate_scenario(0), 20, 1e-3)
        controls[:] = 0.0
        assert np.all(traj.controls == 0.1)

    def test_k20_long_preset_equals_step_loop_bytes(self):
        # the hypothesis cases draw K 1-10; the one-pass loop's widest benchmarked K
        scn = generate_scenario(0, k=20, demand_lo=20.0, demand_hi=40.0)
        ctl = controller(scn)
        fast, stepped_tape = array_and_loop(ctl, scn, 500)
        assert fast == stepped_tape and fast[2] is None
        assert policy.policy_tape(ctl, scn, 500, 1e-3 * scn.k) is not None

    def test_does_not_step(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("step() called")

        monkeypatch.setattr(env, "step", no_step)
        scn = generate_scenario(0, k=4, demand_lo=20.0, demand_hi=40.0)
        traj = rollout(SequenceController(np.full((500, 2), 0.1)), scn, 500, 1e-3)
        assert traj.steps > OPEN_LOOP_SEGMENT

    @pytest.mark.parametrize("long", [False, True])
    def test_one_segment_call_over_the_horizon(self, monkeypatch, long):
        calls, segment_of = [], env.open_loop_segment

        def recording(controls, *args):
            calls.append(controls.shape)
            return segment_of(controls, *args)

        scn = generate_scenario(0, k=4, demand_lo=20.0 if long else 0.5, demand_hi=40.0 if long else 1.0)
        controls = np.full((500, 2), 0.1)
        want = outcome(lambda: rollout(stepped(SequenceController(controls)), scn, 500, 1e-3))
        monkeypatch.setattr(env, "open_loop_segment", recording)
        got = outcome(lambda: rollout(SequenceController(controls), scn, 500, 1e-3))
        assert got == want and calls == [(500, 2)]
        # the default mission ends inside the GA's first segment; the long one runs to t_max
        assert got[2] == (None if long else 4)

    @pytest.mark.parametrize("t_max, length", [(40, 40), (40, 500), (500, 500)])
    def test_huge_speed_after_the_end_is_never_read_and_never_warns(self, t_max, length):
        # a hover over the one user drains 1.0 per slot and ends at step 12; the speeds
        # of 1e308 after it would overflow the positions of the rows no step takes
        scn = unit_scn([[0.0, 0.0]], [12.0])
        controls = np.zeros((length, 2))
        controls[14:, 0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            replayed, stepped_tape = replay_and_loop(controls, scn, t_max)
        assert replayed == stepped_tape and replayed[2] == 12

    @pytest.mark.parametrize("k", range(1, 11))
    def test_row_sums_match_one_row_sums(self, k):
        # termination compares backlogs.sum(axis=1) with the loop's per-row sum
        rows = np.random.default_rng(k).uniform(0.0, 40.0, size=(30, k))
        assert rows.sum(axis=1).tolist() == [row.sum() for row in rows]

    @pytest.mark.parametrize("step, column, value", [
        (0, 0, math.nan), (3, 1, math.nan), (12, 0, math.inf), (5, 1, math.inf),
        (9, 1, -math.inf), (2, 0, -0.1), (10, 0, 0.3), (7, 0, -math.inf),
    ])
    def test_bad_control_raises_like_the_loop(self, step, column, value):
        scn = generate_scenario(0, k=4, demand_lo=20.0, demand_hi=40.0)
        controls = np.full((40, 2), 0.1)
        controls[step, column] = value
        replayed, stepped_tape = replay_and_loop(controls, scn, 40)
        assert replayed == stepped_tape
        if math.isfinite(value):
            assert replayed[0] is ScenarioError and replayed[1] == f"speed {value} outside [0, 0.2]"
        else:
            assert replayed[0] is NumericFailure and replayed[2:] == (step, "control")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.1, 0.3])
    def test_bad_control_after_termination_is_never_read(self, value):
        scn = generate_scenario(0, k=4)
        controls = np.full((40, 2), 0.1)
        controls[20:, 0] = value
        replayed, stepped_tape = replay_and_loop(controls, scn, 40)
        assert replayed == stepped_tape
        assert replayed[2] is not None and replayed[2] < 20

    def test_non_finite_state_raises_like_the_loop(self):
        scn = unit_scn([[0.0, 0.0]], [50.0], v_max=1e308)
        with np.errstate(over="ignore"):
            replayed, stepped_tape = replay_and_loop(np.full((20, 2), [1e308, 0.0]), scn, 20)
        assert replayed == stepped_tape
        assert replayed[:2] == (NumericFailure, "non-finite value at step 1 (state)")

    @pytest.mark.parametrize("length", [0, 3, 8, 9, 30])
    @pytest.mark.parametrize("long", [False, True])
    def test_short_sequence_raises_like_the_loop(self, length, long):
        scn = generate_scenario(1, k=3, demand_lo=20.0 if long else 0.5,
                                demand_hi=40.0 if long else 1.0)
        replayed, stepped_tape = replay_and_loop(np.full((length, 2), 0.1), scn, 60)
        assert replayed == stepped_tape
        if long:
            assert replayed[:2] == (ScenarioError, f"control sequence exhausted at step {length}")


def long_preset():
    return generate_scenario(0, k=4, demand_lo=20.0, demand_hi=40.0)


def controller(scn, hidden=(64, 64, 32), seed=0, scale=1.0, entry=None):
    """A PolicyController of seeded weights times scale; entry = (index, value) sets one parameter."""
    params = init_params(seed, scn.k, hidden=hidden, v_max=scn.v_max)
    flat = params.flat * scale
    if entry is not None:
        flat[entry[0]] = entry[1]
    return PolicyController(replace(params, flat=flat), scn)


@st.composite
def policy_cases(draw):
    k = draw(st.integers(1, 10))
    long = draw(st.booleans())
    scn = generate_scenario(draw(st.integers(0, 2**16)), k=k,
                            demand_lo=20.0 if long else 0.5, demand_hi=40.0 if long else 1.0)
    zero = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    scn = replace(scn, demands=np.where(zero, 0.0, scn.demands), tau=draw(st.sampled_from([1.0, 0.7])),
                  bandwidth=draw(st.sampled_from([float(k), 3.7])))
    ctl = controller(scn, hidden=draw(st.sampled_from([(), (8,), (64, 64, 32)])),
                     seed=draw(st.integers(0, 2**16)), scale=draw(st.sampled_from([0.3, 1.0, 3.0])))
    return ctl, scn, draw(st.integers(1, 200))


class TestPolicyTape:
    """A PolicyController's tape is computed in one loop over preallocated

    arrays; the step loop, reached through a plain callable, is the oracle.
    """

    @given(case=policy_cases())
    @settings(max_examples=150, deadline=None)
    def test_tape_equals_step_loop_bytes(self, case):
        ctl, scn, t_max = case
        fast, stepped_tape = array_and_loop(ctl, scn, t_max)
        assert fast == stepped_tape
        # the array path itself produced it, not a fallback to the loop
        assert policy.policy_tape(ctl, scn, t_max, 1e-3 * scn.k) is not None

    def test_does_not_step(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("step() called")

        monkeypatch.setattr(env, "step", no_step)
        scn = long_preset()
        assert rollout(controller(scn), scn, 500, 1e-3).steps > 20

    @pytest.mark.parametrize("rows", [1, 2, 3, 16])
    def test_buffers_grow_past_their_first_rows(self, rows, monkeypatch):
        # horizons of 1, rows, rows + 1, 2 rows + 1 and 60 steps, each against the loop
        monkeypatch.setattr(policy, "FIRST_ROWS", rows)
        scn = long_preset()
        for t_max in (1, rows, rows + 1, 2 * rows + 1, 60):
            fast, stepped_tape = array_and_loop(controller(scn), scn, t_max)
            assert fast == stepped_tape and fast[2] is None

    def test_hover_past_1024_steps(self):
        # a -inf speed bias hovers at the origin; demands of 2000-4000 outlast the horizon
        scn = long_preset()
        scn = replace(scn, demands=100.0 * scn.demands)
        ctl = controller(scn, entry=(-2, -math.inf))
        fast, stepped_tape = array_and_loop(ctl, scn, 1500)
        assert fast == stepped_tape and fast[2] is None
        assert policy.policy_tape(ctl, scn, 1500, 1e-3 * scn.k)[2].shape == (1500, 2)

    def test_huge_horizon_with_a_short_mission(self):
        scn = generate_scenario(0, k=4)
        fast, stepped_tape = array_and_loop(controller(scn), scn, 10**12)
        assert fast == stepped_tape and fast[2] < 10

    def test_tape_arrays_own_their_data(self):
        scn = generate_scenario(0, k=4)
        traj = rollout(controller(scn), scn, 500, 1e-3)
        assert traj.steps < 10
        for a in (traj.positions, traj.backlogs, traj.controls, traj.active_masks):
            assert a.base is None

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["first_weight", "heading_bias"])
    def test_non_finite_parameter_raises_like_the_loop(self, where, value):
        # the first weight meets the origin's 0.0 position (inf * 0 is nan)
        scn = long_preset()
        ctl = controller(scn, entry=({"first_weight": 0, "heading_bias": -1}[where], value))
        fast, stepped_tape = array_and_loop(ctl, scn, 40)
        assert fast == stepped_tape
        assert fast == (NumericFailure, "non-finite value at step 0 (control)", 0, "control")

    def test_saturated_speed_head_gives_the_loop_tape(self):
        # an infinite speed bias saturates the sigmoid: v = v_max, nothing raises
        scn = long_preset()
        ctl = controller(scn, entry=(-2, math.inf))
        fast, stepped_tape = array_and_loop(ctl, scn, 40)
        assert fast == stepped_tape
        assert np.all(rollout(ctl, scn, 40, 1e-3).controls[:, 0] == scn.v_max)

    @pytest.mark.parametrize("t_max", [4, 5, 20])
    def test_non_finite_state_raises_like_the_loop(self, t_max):
        # the position overflows on step 4, the last step of a 5-step horizon
        scn = unit_scn([[0.0, 0.0]], [50.0], v_max=1e308)
        with np.errstate(over="ignore"):
            fast, stepped_tape = array_and_loop(controller(scn, hidden=(8,)), scn, t_max)
        assert fast == stepped_tape
        if t_max > 4:
            assert fast == (NumericFailure, "non-finite value at step 4 (state)", 4, "state")

    def test_exact_zero_backlog_counts_as_clamped(self):
        # a -inf speed bias hovers at the origin, over a user draining exactly 1.0 per slot
        scn = unit_scn([[0.0, 0.0], [3.0, 0.0]], [2.0, 30.0])
        ctl = controller(scn, hidden=(8,), entry=(-2, -math.inf))
        fast, stepped_tape = array_and_loop(ctl, scn, 6)
        assert fast == stepped_tape
        traj = rollout(ctl, scn, 6, 1e-3)
        assert np.all(traj.controls[:, 0] == 0.0)
        assert traj.backlogs[2, 0] == 0.0 and traj.active_masks[:, 0].tolist() == [1, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("demands, stop_eps, terminated", [
        ([3.0], 1.0, 3),  # one backlog lands exactly on the threshold 1.0, then drains to 0
        ([2.0, 2.0], 1.0, 2),  # (1, 1) sums exactly to the threshold 2.0: each alone is below it
        ([1.5, 1.5], 1.0, 1),  # each of 1.5 is below the threshold 2.0, their sum is above
    ])
    def test_termination_at_the_threshold_edge(self, demands, stop_eps, terminated):
        # users at the origin under a hover drain exactly 1.0 per slot at unit physics
        scn = unit_scn([[0.0, 0.0]] * len(demands), demands)
        ctl = controller(scn, hidden=(8,), entry=(-2, -math.inf))
        fast, stepped_tape = array_and_loop(ctl, scn, 10, stop_eps)
        assert fast == stepped_tape and fast[2] == terminated
        assert policy.policy_tape(ctl, scn, 10, stop_eps * scn.k) is not None

    def test_zero_and_negative_zero_demands(self):
        scn = unit_scn([[1.0, 0.5], [2.0, -1.0], [-3.0, 2.0]], [2.0, 0.0, -0.0])
        ctl = controller(scn, hidden=(8,))
        fast, stepped_tape = array_and_loop(ctl, scn, 40)
        assert fast == stepped_tape
        assert policy.policy_tape(ctl, scn, 40, 1e-3 * scn.k) is not None

    def test_clamp_is_np_maximum(self):
        # the float loop clamps each drained backlog with this expression, and the step loop
        # with np.maximum(0.0, raw): -0.0 and NaN pass through, negatives go to 0.0
        form = "0.0 if (x := y - rate * bk * tau) < 0.0 else x"
        assert form in inspect.getsource(policy.policy_tape)
        xs = [-0.0, 0.0, math.nan, -1.0, -math.inf, -5e-324, 2.0]
        got = [0.0 if (x := y - 0.0) < 0.0 else x for y in xs]
        assert np.array(got).tobytes() == np.maximum(0.0, np.array(xs)).tobytes()

    def test_inline_speed_and_move_are_sigmoid_and_move(self):
        # the float loop writes v_max * _sigmoid(z0) and env.move out inline; these forms give their bits
        speed = "v_max * (0.5 * (1.0 + tanh(0.5 * z0)))"
        moves = ("step = v * tau", "q0 += step * cos(theta)", "q1 += step * sin(theta)")
        source = inspect.getsource(policy.policy_tape)
        for form in (speed, *moves):
            assert form in source
        rng = np.random.default_rng(7)
        zs = [0.0, -0.0, 5e-324, -5e-324, 40.0, -40.0, 710.0, -710.0, 1e308, -1e308, math.inf, -math.inf,
              *rng.normal(0.0, 10.0, 300).tolist()]
        for v_max in (0.2, 1.0 / 3.0, 7.5):
            got = [eval(speed, {"tanh": math.tanh}, {"v_max": v_max, "z0": z}) for z in zs]
            assert np.array(got).tobytes() == np.array([v_max * policy._sigmoid(z) for z in zs]).tobytes()
        code = compile("\n".join(moves), "<moves>", "exec")
        thetas = [0.0, -0.0, math.pi, -math.pi / 2, 1e300, -1e300, *rng.uniform(-10.0, 10.0, 100).tolist()]
        for theta in thetas:
            v = float(rng.choice([0.0, 0.2, rng.uniform(0.0, 0.2)]))
            tau = float(rng.choice([1.0, rng.uniform(0.1, 3.0)]))
            q0, q1 = [0.0, -0.0, float(rng.normal())][int(rng.integers(3))], float(rng.normal())
            ns = {"v": v, "theta": theta, "tau": tau, "q0": q0, "q1": q1, "cos": math.cos, "sin": math.sin}
            exec(code, ns)
            dq0, dq1 = move(v, theta, tau)
            assert np.array([ns["q0"], ns["q1"]]).tobytes() == np.array([q0 + dq0, q1 + dq1]).tobytes()

    def test_witness_user_drains_first(self):
        # user 0, the first backlog over the threshold, drains in two slots of the hover;
        # the far users keep the mission going
        scn = unit_scn([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]], [2.0, 30.0, 30.0])
        ctl = controller(scn, hidden=(8,), entry=(-2, -math.inf))
        fast, stepped_tape = array_and_loop(ctl, scn, 10)
        assert fast == stepped_tape and fast[2] is None
        backlogs = policy.policy_tape(ctl, scn, 10, 1e-3 * scn.k)[1]
        assert backlogs[2:, 0].tolist() == [0.0] * 9 and np.all(backlogs[:, 1:] > 20.0)

    @pytest.mark.parametrize("altitude, sigma2, demand", [(1e200, 1.0, 0.0), (1e-200, 1e-200, 1.0)])
    def test_radio_constants_the_floats_cannot_take(self, altitude, sigma2, demand):
        # H^2 raises OverflowError in Python, so the scenario is refused; or (d2 + H^2) * sigma2
        # is 0.0 over the user, where a float eta / 0.0 raises and the loop's array gives inf:
        # that takes the loop
        if altitude > math.sqrt(np.finfo(float).max):
            with pytest.raises(ScenarioError, match="altitude 1e\\+200 is too large: its square overflows"):
                unit_scn([[0.0, 0.0]], [demand], altitude=altitude, sigma2=sigma2)
            return
        scn = unit_scn([[0.0, 0.0]], [demand], altitude=altitude, sigma2=sigma2)
        ctl = controller(scn, hidden=(8,), entry=(-2, -math.inf))
        assert policy.policy_tape(ctl, scn, 5, 1e-3) is None
        with np.errstate(divide="ignore"):
            fast, stepped_tape = array_and_loop(ctl, scn, 5)
        assert fast == stepped_tape and fast[2] == 1 - (demand == 0.0)

    def test_warnings_are_the_loop_warnings(self):
        scn = long_preset()
        ctl = controller(scn, entry=(0, math.inf))

        def warned(run):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                with pytest.raises(NumericFailure):
                    run()
            return [(w.category, str(w.message)) for w in seen]

        loop_warnings = warned(lambda: rollout(stepped(ctl), scn, 40, 1e-3))
        assert loop_warnings
        assert warned(lambda: rollout(ctl, scn, 40, 1e-3)) == loop_warnings

    def test_other_control_sources_take_the_loop(self, monkeypatch):
        def no_array_path(*args):
            raise AssertionError("policy_tape() called")

        class Subclass(PolicyController):
            pass

        scn = generate_scenario(0, k=4)
        ctl = controller(scn)
        want = outcome(lambda: rollout(ctl, scn, 50, 1e-3))
        monkeypatch.setattr(policy, "policy_tape", no_array_path)
        for source in (Subclass(ctl.params, scn), stepped(ctl)):
            assert outcome(lambda: rollout(source, scn, 50, 1e-3)) == want

    @pytest.mark.parametrize("seed", range(8))
    def test_a_controller_on_an_equal_copy_takes_the_array_path(self, monkeypatch, seed):
        # the copy's zero coordinates and zero demands have the other sign: the controller
        # observes its own scenario's, the vehicle starts from and drains the copy's
        def flipped(a):
            return np.where(a == 0.0, -a, a)

        rng = np.random.default_rng(seed)
        zeros = np.array([0.0, -0.0])
        users = rng.uniform(-4.0, 4.0, (4, 2))
        users[1:3, 1] = zeros
        users[rng.random((4, 2)) < 0.3] = rng.choice(zeros)
        demands = np.concatenate([[20.0], zeros, rng.uniform(0.5, 30.0, 1)])  # a mission to fly
        own = default_scn(users, demands)
        copy = replace(own, user_positions=flipped(own.user_positions), demands=flipped(own.demands), seed=None)
        calls, tape_of = [], policy.policy_tape
        monkeypatch.setattr(policy, "policy_tape", lambda *args: calls.append(args[1]) or tape_of(*args))
        for ctl, scn in ((controller(own, hidden=(8,), seed=seed), copy),
                         (controller(copy, hidden=(8,), seed=seed), own)):
            fast, stepped_tape = array_and_loop(ctl, scn, 60)
            assert fast == stepped_tape and calls[-1] is scn
        assert len(calls) == 2


class HoveringSubclass(PolicyController):
    """A PolicyController subclass: rollout steps it one slot at a time."""


def mask_sources(scn, t_max):
    """(name, control source) of every rollout path: the float tape of a
    PolicyController, the replay of a SequenceController and the step loop
    of greedy, of a hover and of a PolicyController subclass. The policies
    hover: a -inf speed bias gives v = 0.
    """
    hovering = controller(scn, hidden=(8,), entry=(-2, -math.inf))
    return (("policy", hovering), ("sequence", SequenceController(np.zeros((t_max, 2)))),
            ("greedy", GreedyController(scn)), ("hover", ConstantController(0.0, 0.0)),
            ("subclass", HoveringSubclass(hovering.params, scn)))


def assert_masks_are_the_drains(traj, scn):
    """active_masks equal, row by row, the oracle of the drain before the clamp."""
    want = [drain_mask(x, scn) for x in traj.states[:-1]]
    assert traj.active_masks.tobytes() == np.array(want).reshape(-1, scn.k).tobytes()


class TestMaskRule:
    """rollout reads every tape's clamp masks off its backlogs; on every path
    they are those of the drain before the clamp, d_t - rates(q_t) * tau > 0.
    """

    @pytest.mark.parametrize("source", ["policy", "sequence", "greedy", "hover", "subclass"])
    def test_exact_zero_zero_demand_drained_and_underflowing_users(self, source):
        # unit physics: the user at the origin drains exactly 1.0 per slot of a hover and
        # lands on 0.0 at step 2, then stays drained; the second user has nothing to send;
        # the third is so far that its rate rounds to 0.0 and its backlog never moves
        scn = unit_scn([[0.0, 0.0], [3.0, 0.0], [1e9, 0.0]], [2.0, 0.0, 5.0])
        assert rates(np.zeros(2), scn)[2] == 0.0
        ctl = dict(mask_sources(scn, 6))[source]
        traj = rollout(ctl, scn, 6, 1e-3)
        assert traj.steps == 6 and traj.terminated_step is None
        assert_masks_are_the_drains(traj, scn)
        assert traj.active_masks[:, 1].tolist() == [0.0] * 6
        assert traj.active_masks[:, 2].tolist() == [1.0] * 6
        if source != "greedy":  # the others hover over the first user
            assert traj.backlogs[2, 0] == 0.0 and traj.active_masks[:, 0].tolist() == [1, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("long", [False, True])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_seeded_tapes_of_every_path(self, k, long):
        scn = generate_scenario(k, k=k, demand_lo=20.0 if long else 0.5, demand_hi=40.0 if long else 1.0)
        if k > 1:
            scn = replace(scn, demands=np.where(np.arange(k) == k - 1, 0.0, scn.demands))  # a zero-demand user
        rng = np.random.default_rng(k)
        plan = np.column_stack([rng.uniform(0.0, scn.v_max, 300), rng.uniform(-math.pi, math.pi, 300)])
        sources = (("policy", controller(scn, hidden=(8,), seed=k)), ("sequence", SequenceController(plan)),
                   *mask_sources(scn, 300)[2:])
        for name, ctl in sources:
            traj = rollout(ctl, scn, 300, 1e-3)
            assert traj.steps > 0, name
            assert_masks_are_the_drains(traj, scn)

    def test_the_array_paths_make_the_tapes(self):
        scn = unit_scn([[0.0, 0.0], [3.0, 0.0], [1e9, 0.0]], [2.0, 0.0, 5.0])
        sources = dict(mask_sources(scn, 6))
        assert policy.policy_tape(sources["policy"], scn, 6, 3e-3) is not None
        assert env._replay(sources["sequence"].controls, scn, 6, 3e-3) is not None


class TestScenario:
    def test_generate_deterministic(self):
        a = generate_scenario(42)
        b = generate_scenario(42)
        assert np.array_equal(a.user_positions, b.user_positions)
        assert np.array_equal(a.demands, b.demands)

    def test_generate_bounds(self):
        scn = generate_scenario(0, k=10, area_side=5.0)
        assert scn.k == 10
        assert np.all(np.abs(scn.user_positions) <= 2.5)
        assert np.all((scn.demands >= 0.5) & (scn.demands <= 1.0))

    def test_degenerate_demand_range(self):
        scn = generate_scenario(1, k=3, demand_lo=0.7, demand_hi=0.7)
        assert np.all(scn.demands == 0.7)

    def test_initial_state_at_center(self):
        scn = generate_scenario(5)
        x0 = initial_state(scn)
        assert np.array_equal(x0.q, np.zeros(2))
        assert np.array_equal(x0.d, scn.demands)
        x0.d[0] = -1.0
        assert scn.demands[0] >= 0.0  # rollout state must not alias the scenario

    def test_validation(self):
        with pytest.raises(ScenarioError):
            generate_scenario(0, k=0)
        with pytest.raises(ScenarioError):
            generate_scenario(0, demand_lo=1.0, demand_hi=0.5)
        with pytest.raises(ScenarioError):
            unit_scn([[0, 0]], [1.0], sigma2=0.0)
        with pytest.raises(ScenarioError):
            unit_scn([[0, 0]], [1.0], eta=-1.0)
        with pytest.raises(ScenarioError):
            unit_scn([[0, 0]], [-0.5])
        with pytest.raises(ScenarioError):
            unit_scn([[0, 0]], [1.0], v_max=0.0)

    @pytest.mark.parametrize("k", [2.5, 2.0, "4", None])
    def test_generate_rejects_non_integer_k(self, k):
        with pytest.raises(ScenarioError, match="k must be an integer"):
            generate_scenario(0, k=k)

    @pytest.mark.parametrize("seed", [-1, 2.5, None, True])
    def test_generate_rejects_bad_seed(self, seed):
        with pytest.raises(ScenarioError, match="seed must be an integer >= 0"):
            generate_scenario(seed)

    @pytest.mark.parametrize("area_side", [-5.0, 0.0, math.inf])
    def test_generate_rejects_bad_area_side(self, area_side):
        with pytest.raises(ScenarioError, match="area_side"):
            generate_scenario(0, area_side=area_side)

    @pytest.mark.parametrize("field, value", [
        ("tau", "fast"), ("eta", None), ("area_side", [1, 2]), ("demands", ["a", "b", "c"]),
    ])
    def test_from_dict_names_a_bad_field(self, field, value):
        data = {**scenario_to_dict(generate_scenario(9, k=3)), field: value}
        with pytest.raises(ScenarioError, match=f"'{field}'"):
            scenario_from_dict(data)

    def test_from_dict_names_a_missing_field(self):
        data = scenario_to_dict(generate_scenario(9, k=3))
        del data["demands"]
        with pytest.raises(ScenarioError, match="missing required field 'demands'"):
            scenario_from_dict(data)

    def test_positive_fields_are_checked_and_stored_as_floats(self):
        with pytest.raises(ScenarioError, match="area_side must be a positive finite number, got True"):
            unit_scn([[0, 0]], [1.0], area_side=True)
        scn = unit_scn([[0, 0]], [1.0], area_side=10, v_max=np.float32(0.2), eta=np.float64(2.0))
        for name in ("area_side", "eta", "sigma2", "altitude", "bandwidth", "tau", "v_max"):
            assert type(getattr(scn, name)) is float, name
        assert scn.v_max == float(np.float32(0.2)) and scn.area_side == 10.0
        assert scenario_to_dict(scn)["area_side"] == 10.0 and "10.0" in repr(scenario_to_dict(scn))

    def test_an_altitude_whose_square_overflows_is_refused(self):
        with pytest.raises(ScenarioError, match="altitude 1e\\+200 is too large"):
            generate_scenario(0, altitude=1e200)
        with pytest.raises(ScenarioError, match="altitude 1e\\+200 is too large"):
            SweepSpec(variable="K", values=[2], scenario={"altitude": 1e200})
        generate_scenario(0, altitude=1e150)  # its square is finite

    def test_dict_round_trip(self):
        scn = generate_scenario(9, k=3)
        back = scenario_from_dict(scenario_to_dict(scn))
        assert np.array_equal(back.user_positions, scn.user_positions)
        assert np.array_equal(back.demands, scn.demands)
        assert back.eta == scn.eta and back.sigma2 == scn.sigma2
        assert back.bandwidth == scn.bandwidth

    def test_file_round_trip(self, tmp_path):
        scn = generate_scenario(9, k=3, eta=1.5)
        p = str(tmp_path / "scn.json")
        save_scenario(scn, p)
        back = load_scenario(p)
        assert np.array_equal(back.user_positions, scn.user_positions)
        assert back.eta == 1.5


@pytest.mark.parametrize("field, make", [
    ("k", lambda: LayerSpec(k=2.5)),
    ("hidden", lambda: LayerSpec(k=2, hidden=(8, 2.7))),
    ("hidden", lambda: TrainConfig(hidden=(2.7,))),
    ("hidden", lambda: TrainConfig(hidden=(True,))),
    ("t_max", lambda: rollout(ConstantController(0.0, 0.0), generate_scenario(0), True, 1e-3)),
    ("t_max", lambda: rollout(ConstantController(0.0, 0.0), generate_scenario(0), 2.5, 1e-3)),
    ("sample", lambda: run_gradcheck(k=1, horizon=2, hidden=(4,), sample=2.5)),
    ("demand_lo", lambda: generate_scenario(0, demand_lo="a")),
    ("demand_hi", lambda: generate_scenario(0, demand_hi=math.inf)),
])
def test_bad_counts_and_bounds_raise_a_scenario_error_naming_the_field(field, make):
    with pytest.raises(ScenarioError, match=f"^{field} must be"):
        make()


def _refusal(call) -> str:
    with pytest.raises(ScenarioError) as exc:
        call()
    return str(exc.value)


HUGE = 10**400  # an int too large for a float: float(HUGE) raises OverflowError


@pytest.mark.parametrize("field, message", [
    ("eta", lambda: _refusal(lambda: generate_scenario(0, eta=HUGE))),
    ("area_side", lambda: _refusal(lambda: generate_scenario(0, area_side=-HUGE))),
    ("demand_hi", lambda: _refusal(lambda: generate_scenario(0, demand_hi=HUGE))),
    ("area_side", lambda: _refusal(
        lambda: scenario_from_dict({**scenario_to_dict(generate_scenario(0)), "area_side": HUGE}))),
    ("users", lambda: _refusal(
        lambda: scenario_from_dict({**scenario_to_dict(generate_scenario(0)), "users": [[HUGE, 0.0]]}))),
    ("speed_grid", lambda: _refusal(lambda: GreedyConfig(speed_grid=(HUGE,)))),
    ("learning_rate", lambda: _refusal(lambda: train(generate_scenario(0), TrainConfig(learning_rate=HUGE)))),
    ("early_stop_delta", lambda: _refusal(lambda: TrainConfig(early_stop_delta=HUGE))),
    ("stop_eps", lambda: _refusal(lambda: ga_optimize(generate_scenario(0), GaConfig(stop_eps=HUGE)))),
    ("mutation_std", lambda: _refusal(lambda: GaConfig(mutation_std=(HUGE, 0.3)))),
    # the sweep checks its overrides up front, so no cell runs
    ("learning_rate", lambda: _refusal(lambda: run_sweep(SweepSpec(variable="K", values=[2], trials=1,
                                                                   train={"learning_rate": HUGE})))),
])
def test_a_number_too_large_for_a_float_raises_a_scenario_error_naming_the_field(field, message):
    assert field in message()
