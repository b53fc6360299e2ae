"""Finite-difference verification harness and its instance screening."""
import csv

import numpy as np
import pytest

from aavtraj import ScenarioError, run_gradcheck, save_gradcheck_report
from aavtraj.gradcheck import (
    clamp_margin,
    fd_param_gradient,
    make_instance,
    min_positive_backlog,
    noise_floor,
    objective_value,
    relative_error,
)
from aavtraj import Scenario, backward_closedloop, rollout
from aavtraj.policy import PolicyController


class TestErrorMetric:
    def test_relative_error_basic(self):
        assert relative_error(2.0, 1.0) == pytest.approx(0.5)
        assert relative_error(1.0, 1.0) == 0.0

    def test_floor_guards_tiny_denominators(self):
        # absolute difference 1e-9 against the 1e-3 floor, not against 1e-12
        assert relative_error(1e-12, 1e-9 + 1e-12) == pytest.approx(1e-6, rel=1e-3)

    def test_noise_floor_scales_with_objective(self):
        lo = noise_floor(1.0, h=1e-6, tol=1e-5)
        hi = noise_floor(1000.0, h=1e-6, tol=1e-5)
        assert hi > lo
        assert noise_floor(0.0, h=1e-6, tol=1e-5) >= 1e-3

    def test_noise_floor_never_below_default(self):
        assert noise_floor(1e-20, h=1e-3, tol=1.0) == 1e-3

    def test_builtin_float_for_numpy_inputs(self):
        # repr() of an np.float64 would corrupt CSV cells downstream
        floor = noise_floor(np.float64(50.0), h=1e-6, tol=1e-5)
        assert type(floor) is float
        assert type(relative_error(np.float64(2.0), 1.0, floor)) is float


class TestInstanceScreening:
    def test_instance_is_clean(self):
        inst = make_instance(k=2, horizon=15, seed=0, hidden=(8, 4))
        traj = rollout(PolicyController(inst.params, inst.scn),
                       inst.scn, 15, 1e-3)
        assert traj.steps >= (3 * 15) // 4
        assert clamp_margin(traj, inst.scn) > 1e-3
        assert min_positive_backlog(traj) > 0.01

    def test_deterministic(self):
        a = make_instance(k=2, horizon=10, seed=3, hidden=(8, 4))
        b = make_instance(k=2, horizon=10, seed=3, hidden=(8, 4))
        assert np.array_equal(a.scn.demands, b.scn.demands)
        assert np.array_equal(a.params.flat, b.params.flat)
        assert a.attempts == b.attempts


class TestFdHarness:
    def test_fd_matches_objective_slope(self):
        inst = make_instance(k=2, horizon=10, seed=1, hidden=(8, 4))
        idxs = [0, 5, 17]
        fd = fd_param_gradient(inst.params, inst.scn, 10, 1e-3,
                               beta=1.0, alpha=1e-3, h=1e-6, indices=idxs)
        assert fd.shape == (3,)
        # slope of the scalar objective along coordinate 0, by hand
        h = 1e-6
        saved = inst.params.flat.copy()
        inst.params.flat[0] = saved[0] + h
        up = objective_value(inst.params, inst.scn, 10, 1e-3, 1.0, 1e-3)
        inst.params.flat[0] = saved[0] - h
        dn = objective_value(inst.params, inst.scn, 10, 1e-3, 1.0, 1e-3)
        inst.params.flat[:] = saved
        assert fd[0] == pytest.approx((up - dn) / (2 * h), rel=1e-12)

    def test_small_arch_report_passes(self):
        report = run_gradcheck(k=2, horizon=12, seed=0, hidden=(8, 4))
        assert report.passed
        assert report.max_rel_err <= report.tol
        assert len(report.rows) == sum(1 for _ in report.rows)
        analytic = {r.param_index: r.analytic for r in report.rows}
        inst = make_instance(k=2, horizon=12, seed=0, hidden=(8, 4))
        traj = rollout(PolicyController(inst.params, inst.scn), inst.scn, 12, 1e-3)
        bundle = backward_closedloop(traj, inst.params, inst.scn, beta=1.0, alpha=1e-3)
        for idx, val in analytic.items():
            assert val == bundle.param_grad[idx]

    def test_index_subset(self):
        report = run_gradcheck(k=2, horizon=10, seed=2, hidden=(8, 4),
                               indices=[1, 4, 9])
        assert [r.param_index for r in report.rows] == [1, 4, 9]

    def test_sampled_subset_is_seeded(self):
        a = run_gradcheck(k=2, horizon=10, seed=2, hidden=(8, 4), sample=12)
        b = run_gradcheck(k=2, horizon=10, seed=2, hidden=(8, 4), sample=12)
        idx = [r.param_index for r in a.rows]
        assert len(idx) == 12 and len(set(idx)) == 12
        assert idx == [r.param_index for r in b.rows]

    def test_empty_indices_rejected(self):
        # checking nothing must not report a pass
        with pytest.raises(ScenarioError, match=r"at least one parameter, got \[\]"):
            run_gradcheck(k=1, horizon=8, seed=0, hidden=(8,), indices=[])

    @pytest.mark.parametrize("bad", [1.7, 1.0, True, "3"])
    def test_non_integer_index_rejected(self, bad):
        with pytest.raises(ScenarioError, match=f"parameter index {bad!r} is not an integer"):
            run_gradcheck(k=1, horizon=8, seed=0, hidden=(8,), indices=[0, bad])

    @pytest.mark.parametrize("bad", [-1, 66, 10**6])
    def test_out_of_range_index_rejected(self, bad):
        # k=1 with hidden (8,) has 5*8 + 8 + 8*2 + 2 = 66 parameters
        with pytest.raises(ScenarioError, match=rf"parameter index {bad} outside \[0, 66\)"):
            run_gradcheck(k=1, horizon=8, seed=0, hidden=(8,), indices=[bad])

    def test_numpy_integer_indices_accepted(self):
        report = run_gradcheck(k=1, horizon=8, seed=0, hidden=(8,), indices=np.array([0, 65]))
        assert [r.param_index for r in report.rows] == [0, 65]

    def test_coarse_step_fails(self):
        # truncation error at h = 0.1 dwarfs the tolerance; the check must
        # reject rather than paper over a bad step size
        report = run_gradcheck(k=1, horizon=8, seed=0, hidden=(8,),
                               h=1e-1, sample=40)
        assert not report.passed
        assert report.max_rel_err > report.tol

    @pytest.mark.parametrize("bad", [{"h": 0.0}, {"tol": 0.0}, {"h": -1e-6}, {"h": np.inf}, {"tol": np.nan}])
    def test_step_and_tolerance_must_be_positive_finite(self, bad):
        # h = 0 makes every difference nan and tol = 0 an infinite noise
        # floor: both used to report a pass with max_rel_err 0
        name = next(iter(bad))
        with pytest.raises(ScenarioError, match=f"{name} must be a positive finite number"):
            run_gradcheck(k=1, horizon=8, seed=0, hidden=(8,), indices=[0], **bad)

    def test_nonfinite_difference_fails_the_report(self, monkeypatch):
        def one_nan(*args, **kwargs):
            fd = fd_param_gradient(*args, **kwargs)
            fd[1] = np.nan
            return fd

        monkeypatch.setattr("aavtraj.gradcheck.fd_param_gradient", one_nan)
        report = run_gradcheck(k=1, horizon=8, seed=0, hidden=(8,), indices=[0, 3, 5])
        assert np.isnan(report.rows[1].rel_err)
        assert np.isnan(report.max_rel_err)
        assert not report.passed

    def test_zero_demand_gradients_vanish(self):
        inst = make_instance(k=2, horizon=10, seed=1, hidden=(8, 4))
        scn = Scenario(
            user_positions=inst.scn.user_positions, demands=np.zeros(2),
            area_side=inst.scn.area_side, eta=1.0, sigma2=0.1, altitude=1.0,
            bandwidth=None, tau=1.0, v_max=0.2, dist_weight=0.01, seed=0,
        )
        traj = rollout(PolicyController(inst.params, scn), scn, 10, 1e-3)
        bundle = backward_closedloop(traj, inst.params, scn, beta=1.0, alpha=1e-3)
        fd = fd_param_gradient(inst.params, scn, 10, 1e-3, 1.0, 1e-3,
                               h=1e-6, indices=[0, 7, 21])
        assert np.all(bundle.param_grad == 0.0)
        assert np.all(fd == 0.0)

    def test_report_csv_round_trip(self, tmp_path):
        report = run_gradcheck(k=2, horizon=10, seed=2, hidden=(8, 4),
                               indices=[0, 3])
        p = tmp_path / "report.csv"
        save_gradcheck_report(report, str(p))
        with open(p) as fh:
            rows = list(csv.DictReader(fh))
        # the column list of the report in the README
        assert list(rows[0]) == ["param_index", "analytic", "finite_diff", "rel_err"]
        assert len(rows) == 2
        assert float(rows[0]["analytic"]) == report.rows[0].analytic
