"""One-step cases for the reference simulator, with expected values worked

out by hand. Run with ``python3 -m pytest perfbench/test_refsim.py``.
"""
import math
from types import SimpleNamespace

import numpy as np
import pytest

import refsim


def mission(users, demands, **kw):
    fields = dict(area_side=10.0, eta=1.0, sigma2=0.1, altitude=1.0, bandwidth=None,
                  tau=1.0, v_max=0.2, dist_weight=0.01)
    fields.update(kw)
    return refsim.Mission.of(SimpleNamespace(user_positions=users, demands=demands, **fields))


def test_rate_at_hand_picked_snr():
    # r^2 + H^2 = 2 + 1 = 3, eta / (3 * 0.1) = 3, log2(1 + 3) = 2, B/K = 1
    m = mission([[1.0, 1.0]], [1.0], eta=0.9)
    assert refsim.user_rates(m, (0.0, 0.0)) == [pytest.approx(2.0, rel=1e-15)]


def test_bandwidth_defaults_to_k_and_is_split_evenly():
    # two users on top of the vehicle: snr = 0.3 / (1 * 0.1) = 3 -> log2 4 = 2 each
    m = mission([[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0], eta=0.3)
    assert refsim.user_rates(m, (0.0, 0.0)) == pytest.approx([2.0, 2.0], rel=1e-15)
    m = mission([[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0], eta=0.3, bandwidth=1.0)
    assert refsim.user_rates(m, (0.0, 0.0)) == pytest.approx([1.0, 1.0], rel=1e-15)


def test_observation_layout():
    # s = 2 / 10; q = (1, 2); users (3, 4) and (-1, 0); backlogs 1 of 4, 0 of demand 0
    m = mission([[3.0, 4.0], [-1.0, 0.0]], [4.0, 0.0])
    obs = refsim.observation(m, (1.0, 2.0), [1.0, 0.0])
    assert obs == pytest.approx([0.2, 0.4, 0.4, 0.4, -0.4, -0.4, 0.25, 0.0], abs=1e-15)


def test_one_step_kinematics_clamp_and_cost():
    # user on the origin, rate 2 per slot: backlog 3 drains to 1, 1.5 would go
    # to -0.5 and is clamped to 0 with mask 0
    m = mission([[0.0, 0.0], [0.0, 0.0]], [3.0, 1.5], eta=0.3, bandwidth=2.0,
                dist_weight=0.5)
    tr = refsim.simulate(m, lambda t, q, d: (0.2, math.pi / 2), t_max=1, stop_eps=1e-3)
    assert tr.steps == 1 and tr.terminated is None
    assert tr.positions[1] == pytest.approx((0.0, 0.2), abs=1e-15)
    assert tr.backlogs[1] == pytest.approx((1.0, 0.0), abs=1e-15)
    assert tr.masks[0] == (1, 0)
    # cost of the post-step state: 1 + 0 + 0.5 * (0.2 + 0.2)
    assert tr.costs[0] == pytest.approx(1.2, rel=1e-15)


def test_termination_is_checked_before_each_step_and_after_the_last():
    m = mission([[0.0, 0.0]], [1.0], eta=0.3)  # rate 2: drained in one slot
    tr = refsim.simulate(m, lambda t, q, d: (0.0, 0.0), t_max=5, stop_eps=1e-3)
    assert tr.steps == 1 and tr.terminated == 1
    tr = refsim.simulate(m, lambda t, q, d: (0.0, 0.0), t_max=1, stop_eps=1e-3)
    assert tr.steps == 1 and tr.terminated == 1
    # a residual of 0.5 is not below 1e-3 * K
    tr = refsim.simulate(mission([[0.0, 0.0]], [2.5], eta=0.3),
                         lambda t, q, d: (0.0, 0.0), t_max=1, stop_eps=1e-3)
    assert tr.terminated is None
    with pytest.raises(ValueError):
        refsim.simulate(m, lambda t, q, d: (0.3, 0.0), t_max=1, stop_eps=1e-3)


def test_smoothness_penalty():
    # (0.1 - 0)^2 + alpha * (1 - cos(pi)) = 0.01 + 2 alpha
    assert refsim.smoothness([(0.0, 0.0), (0.1, math.pi)], 0.5) == pytest.approx(1.01, rel=1e-15)
    assert refsim.smoothness([(0.1, 0.0), (0.1, 2 * math.pi)], 1.0) == pytest.approx(0.0, abs=1e-15)
    assert refsim.smoothness([(0.1, 3.0)], 1.0) == 0.0


def test_mlp_heads():
    # K = 1: input width 5, one hidden unit. Zero weights give tanh(0) = 0 in
    # the hidden layer, so the head outputs are its biases: z0 = 0 gives half
    # of v_max, z1 = 1.5 is the heading.
    m = mission([[1.0, 1.0]], [1.0])
    flat = np.zeros(5 + 1 + 2 + 2)
    flat[-1] = 1.5
    v, th = refsim.MlpPolicy(flat, (1,), m)(0, (0.0, 0.0), [1.0])
    assert (v, th) == (pytest.approx(0.1, rel=1e-15), 1.5)
    # hidden bias atanh(0.5) and head weight row (2, 0): z0 = 1, so
    # v = 0.2 / (1 + e^-1)
    flat[5] = math.atanh(0.5)
    flat[6] = 2.0
    v, _ = refsim.MlpPolicy(flat, (1,), m)(0, (0.0, 0.0), [1.0])
    assert v == pytest.approx(0.2 / (1.0 + math.exp(-1.0)), rel=1e-14)
    with pytest.raises(ValueError):
        refsim.MlpPolicy(flat[:-1], (1,), m)


def test_greedy_picks_the_first_best_candidate():
    # one user due east at distance 1: the full-speed move at heading 0 wins
    m = mission([[1.0, 0.0]], [1.0])
    assert refsim.Greedy(m)(0, (0.0, 0.0), [1.0]) == (0.2, 0.0)
    # nobody active: hover
    assert refsim.Greedy(m)(0, (0.0, 0.0), [0.0]) == (0.0, 0.0)
    # user under the vehicle: hovering (speed 0, first heading) ties nothing better
    m = mission([[0.0, 0.0]], [1.0])
    assert refsim.Greedy(m)(0, (0.0, 0.0), [1.0]) == (0.0, 0.0)


def test_metrics():
    # K = 2 on the origin with rates 2 each: user 0 (demand 1) finishes at
    # step 1, user 1 (demand 3) at step 2; both steps have active users
    m = mission([[0.0, 0.0], [0.0, 0.0]], [1.0, 3.0], eta=0.3, bandwidth=2.0)
    tr = refsim.simulate(m, lambda t, q, d: (0.0, 0.0), t_max=10, stop_eps=1e-3)
    met = refsim.metrics(m, tr, t_max=10)
    assert tr.terminated == 2
    assert met.completion_steps == [1, 2]
    assert met.mean_completion_steps == 1.5
    assert met.mission_steps == 2 and met.completed
    assert met.avg_rate == pytest.approx(2.0, rel=1e-15)
    # cut after one step: user 0 finished at step 1, user 1 counts at t_max = 5
    tr = refsim.simulate(m, lambda t, q, d: (0.0, 0.0), t_max=1, stop_eps=1e-3)
    met = refsim.metrics(m, tr, t_max=5)
    assert met.completion_steps == [1, 5] and met.mission_steps == 5 and not met.completed


def test_objective_adds_weighted_smoothness():
    m = mission([[0.0, 0.0]], [10.0], eta=0.3, dist_weight=0.0)
    ctl = refsim.OpenLoop([[0.0, 0.0], [0.1, math.pi]])
    tr = refsim.simulate(m, ctl, t_max=2, stop_eps=1e-3)
    # backlogs 8 then 6; the distance term has weight 0
    assert tr.costs == pytest.approx([8.0, 6.0], rel=1e-15)
    assert refsim.objective(tr, beta=2.0, alpha=0.5) == pytest.approx(14.0 + 2.0 * 1.01, rel=1e-15)
