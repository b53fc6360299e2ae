"""Acceptance gate: eight release checks, one printed verdict each.

Every test exercises one contract end to end at its stated tolerance
and prints a single ``ACCEPTANCE <n> PASS/FAIL: detail`` line before
asserting, so ``pytest -v -s tests/test_acceptance.py`` doubles as a
release report. Seeds are fixed; only wall-clock readings vary between
runs, and those never feed a tolerance directly (timing checks compare
medians of repeated runs of deterministic computations).
"""
import csv
import math
import statistics

import numpy as np

from aavtraj import (
    Control,
    GaConfig,
    GreedyConfig,
    GreedyController,
    PolicyController,
    Scenario,
    SequenceController,
    SweepSpec,
    TrainConfig,
    backward_closedloop,
    backward_openloop,
    derive_seed,
    evaluate_policy,
    ga_optimize,
    generate_scenario,
    init_params,
    rollout,
    run_gradcheck,
    run_sweep,
    train,
)
from aavtraj.env import State
from aavtraj.gradcheck import noise_floor, relative_error
from aavtraj.policy import forward, observe
from aavtraj.smoothing import smoothness_penalty, wrap_angle
from aavtraj.sweep import TIMING_COLUMNS, aggregate, save_aggregate_csv, save_detail_csv
from aavtraj.trainer import clip_gradient
from oracles import hamiltonian


def verdict(n: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. closed-loop parameter gradient vs central finite differences
# ---------------------------------------------------------------------------


def test_criterion_1_closedloop_gradient_oracle():
    tol = 1e-5
    worst = 0.0
    for seed in range(20):
        # instances are screened to stay clear of clamp boundaries; 400
        # seeded random parameters per instance keep 20 instances fast
        report = run_gradcheck(k=2, horizon=20, seed=seed, h=1e-6, tol=tol, sample=400)
        worst = max(worst, report.max_rel_err)
    ok = worst <= tol
    assert verdict(
        1, ok,
        f"closed-loop gradient vs FD on 20 (K=2, T=20) instances, "
        f"400 params each: max rel err {worst:.3e} <= {tol:.0e}",
    )


# ---------------------------------------------------------------------------
# 2. open-loop action gradients vs FD of the cost and of the Hamiltonian
# ---------------------------------------------------------------------------


def _smooth_instance(seed: int, k: int = 2, t_len: int = 10):
    """Demands far above what a short horizon can drain, so probes never
    cross a clamp or termination boundary."""
    rng = np.random.default_rng(seed)
    scn = Scenario(
        user_positions=rng.uniform(-4, 4, size=(k, 2)),
        demands=rng.uniform(40.0, 60.0, size=k),
        area_side=10.0, eta=1.0, sigma2=0.1, altitude=1.0, bandwidth=None,
        tau=1.0, v_max=0.2, dist_weight=0.01, seed=seed,
    )
    controls = np.column_stack([
        rng.uniform(0.01, scn.v_max - 0.01, t_len),
        rng.uniform(-math.pi, math.pi, t_len),
    ])
    return scn, controls


def _sequence_cost(controls: np.ndarray, scn: Scenario, t_len: int) -> float:
    traj = rollout(SequenceController(controls), scn, t_len, 1e-12)
    return float(sum(traj.stage_costs))


def test_criterion_2_openloop_gradient_oracle():
    h = 1e-6
    tol = 1e-5
    t_len = 10
    worst_cost = 0.0
    worst_ham = 0.0
    for seed in range(10):
        scn, controls = _smooth_instance(seed, k=2, t_len=t_len)
        traj = rollout(SequenceController(controls), scn, t_len, 1e-12)
        costates, grads = backward_openloop(traj, scn)
        floor = noise_floor(float(sum(traj.stage_costs)), h, tol)
        for t in range(t_len):
            lam_next = costates[t + 1]
            for c in range(2):
                pert_hi = controls.copy()
                pert_lo = controls.copy()
                pert_hi[t, c] += h
                pert_lo[t, c] -= h
                fd_cost = (_sequence_cost(pert_hi, scn, t_len)
                           - _sequence_cost(pert_lo, scn, t_len)) / (2 * h)
                worst_cost = max(worst_cost, relative_error(float(grads[t, c]), fd_cost, floor))

                fd_ham = (hamiltonian(traj.states[t], Control(*pert_hi[t]), lam_next, scn)
                          - hamiltonian(traj.states[t], Control(*pert_lo[t]), lam_next, scn)) / (2 * h)
                worst_ham = max(worst_ham, relative_error(float(grads[t, c]), fd_ham, floor))
    ok = worst_cost <= tol and worst_ham <= tol
    assert verdict(
        2, ok,
        f"open-loop action gradients on 10 (K=2, T=10) instances: "
        f"max rel err vs cost FD {worst_cost:.3e}, vs Hamiltonian FD {worst_ham:.3e} <= {tol:.0e}",
    )


# ---------------------------------------------------------------------------
# 3. bitwise determinism of gradients and training logs
# ---------------------------------------------------------------------------


def _bundle_signature():
    scn = generate_scenario(11, k=4)
    params = init_params(41, k=4)
    traj = rollout(PolicyController(params, scn), scn, 500, 1e-3)
    b = backward_closedloop(traj, params, scn, beta=1.0, alpha=1e-3)
    return (b.action_grads.tobytes(), b.param_grad.tobytes(),
            b.j_task, b.j_smooth, b.j_total)


def _log_signature():
    scn = generate_scenario(11, k=4)
    params, log = train(scn, TrainConfig(seed=41, max_iters=25, early_stop_delta=0.0))
    rows = tuple(
        (r.iteration, r.j_task, r.j_smooth, r.j_total, r.grad_norm_pre, r.grad_norm_post)
        for r in log.rows  # everything except the wall-clock columns
    )
    return (params.flat.tobytes(), rows, log.converged, log.stop_reason, log.seed)


def test_criterion_3_bitwise_determinism():
    bundles = [_bundle_signature() for _ in range(10)]
    logs = [_log_signature() for _ in range(10)]
    ok = all(b == bundles[0] for b in bundles) and all(l == logs[0] for l in logs)
    assert verdict(
        3, ok,
        "10 repetitions each: gradient bundles and 25-iteration training "
        "logs bitwise identical (timing column excluded)",
    )


# ---------------------------------------------------------------------------
# 4. invariant suite: clip bound, 2pi periodicity, speed bound, monotone backlogs
# ---------------------------------------------------------------------------


def test_criterion_4_invariant_suite():
    rng = np.random.default_rng(2024)
    threshold = 10.0

    clip_ok = True
    for _ in range(1000):
        g = rng.standard_normal(rng.integers(1, 400)) * 10.0 ** rng.uniform(-3, 4)
        clip_ok &= float(np.linalg.norm(clip_gradient(g, threshold))) <= threshold * (1 + 1e-12)

    period_ok = True
    for _ in range(1000):
        t_len = int(rng.integers(2, 30))
        seq = np.column_stack([rng.uniform(0, 0.2, t_len),
                               rng.uniform(-10, 10, t_len)])
        shifted = seq.copy()
        shifted[:, 1] += 2.0 * math.pi * rng.integers(-3, 4, t_len)
        period_ok &= abs(smoothness_penalty(seq, 1e-3)
                         - smoothness_penalty(shifted, 1e-3)) <= 1e-9

    speed_ok = True
    for i in range(1000):
        k = int(rng.integers(1, 7))
        scn = generate_scenario(int(rng.integers(0, 2 ** 31)), k=k)
        params = init_params(int(rng.integers(0, 2 ** 31)), k=k,
                             hidden=(int(rng.integers(4, 64)),))
        params.flat[:] *= rng.uniform(0.5, 3.0)
        x = State(q=rng.uniform(-scn.area_side / 2, scn.area_side / 2, 2),
                  d=scn.demands * rng.uniform(0, 1, k))
        u = forward(params, observe(x, scn))
        speed_ok &= 0.0 < u.v < scn.v_max

    monotone_ok = True
    for i in range(100):
        scn = generate_scenario(i, k=int(rng.integers(1, 7)))
        params = init_params(i, k=scn.k)
        traj = rollout(PolicyController(params, scn), scn, 60, 1e-3)
        d = np.array([s.d for s in traj.states])
        monotone_ok &= bool(np.all(np.diff(d, axis=0) <= 0.0))

    ok = clip_ok and period_ok and speed_ok and monotone_ok
    assert verdict(
        4, ok,
        f"clip norm bound {clip_ok}, heading-shift invariance {period_ok}, "
        f"speed in (0, v_max) {speed_ok}, backlogs non-increasing {monotone_ok}",
    )


# ---------------------------------------------------------------------------
# 5. training efficacy on the default mission family
# ---------------------------------------------------------------------------


def test_criterion_5_training_efficacy():
    trials = 10
    completed = converged = 0
    policy_means = []
    greedy_means = []
    for t in range(trials):
        scn = generate_scenario(derive_seed(0, "scenario", "K", 4, t), k=4)
        cfg = TrainConfig(seed=derive_seed(0, "l4v", "K", 4, t))
        params, log = train(scn, cfg)
        m = evaluate_policy(PolicyController(params, scn), scn, cfg.t_max, cfg.stop_eps)
        g = evaluate_policy(GreedyController(scn, GreedyConfig()), scn, cfg.t_max, cfg.stop_eps)
        completed += m.completed
        converged += log.converged and log.iterations <= 2000
        policy_means.append(m.mean_completion_steps)
        greedy_means.append(g.mean_completion_steps)
    mean_policy = float(np.mean(policy_means))
    mean_greedy = float(np.mean(greedy_means))
    ok = completed >= 9 and converged >= 9 and mean_policy <= mean_greedy
    assert verdict(
        5, ok,
        f"over {trials} trials: completion {completed}/{trials}, "
        f"early-stop convergence {converged}/{trials}, mean completion steps "
        f"{mean_policy:.3f} (trained) vs {mean_greedy:.3f} (greedy)",
    )


# ---------------------------------------------------------------------------
# 6. training cost: trained-policy wall clock vs GA wall clock to match its J
# ---------------------------------------------------------------------------


def _ga_time_to_match(scn, seed: int, j_target: float) -> float:
    # 100 generations is far past where parity lands on these missions;
    # if the GA never matches, its full-run time is a lower bound and
    # the comparison only becomes harder to pass
    timing: list = []
    _, fitness = ga_optimize(scn, GaConfig(seed=seed, generations=100), timing_ms=timing)
    for gen, fit in enumerate(fitness):
        if -fit <= j_target:
            return timing[gen]
    return timing[-1]


def test_criterion_6_training_cost_ordering():
    trials = 5
    reps = 3
    policy_ms = []
    ga_ms = []
    for t in range(trials):
        scn = generate_scenario(derive_seed(0, "scenario", "K", 4, t), k=4)
        train_seed = derive_seed(0, "l4v", "K", 4, t)
        logs = [train(scn, TrainConfig(seed=train_seed))[1] for _ in range(reps)]
        policy_ms.append(statistics.median(l.wallclock_ms() for l in logs))
        j_target = logs[0].rows[-1].j_total
        ga_seed = derive_seed(0, "ga", "K", 4, t)
        ga_ms.append(statistics.median(
            _ga_time_to_match(scn, ga_seed, j_target) for _ in range(reps)
        ))
    mean_policy = float(np.mean(policy_ms))
    mean_ga = float(np.mean(ga_ms))
    ok = mean_policy < mean_ga
    assert verdict(
        6, ok,
        f"mean over {trials} seeds (median of {reps} timings): training to "
        f"convergence {mean_policy:.2f} ms vs GA to an equal-or-better "
        f"objective {mean_ga:.2f} ms",
    )


# ---------------------------------------------------------------------------
# 7. smoothness regularization reduces heading churn
# ---------------------------------------------------------------------------


def _heading_roughness(traj) -> float:
    theta = traj.controls_array()[:, 1]
    if theta.size < 2:
        return 0.0
    return float(np.mean(np.abs(wrap_angle(np.diff(theta)))))


def test_criterion_7_smoothness_effect():
    pairs = 10
    wins = 0
    for s in range(pairs):
        scn = generate_scenario(s, k=4)
        rough = {}
        for beta in (1.0, 0.0):
            cfg = TrainConfig(seed=s, beta=beta)
            params, _ = train(scn, cfg)
            traj = rollout(PolicyController(params, scn), scn, cfg.t_max, cfg.stop_eps)
            rough[beta] = _heading_roughness(traj)
        wins += rough[1.0] <= rough[0.0]
    ok = wins >= 8
    assert verdict(
        7, ok,
        f"penalized run's mean wrapped heading change <= unpenalized run's "
        f"in {wins}/{pairs} matched seed pairs",
    )


# ---------------------------------------------------------------------------
# 8. sweep harness integrity and byte reproducibility
# ---------------------------------------------------------------------------


def _strip_timing(path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for col in TIMING_COLUMNS:
            row.pop(col, None)
    return rows


def test_criterion_8_sweep_integrity(tmp_path):
    spec = SweepSpec(variable="K", values=(2, 4, 6, 8, 10), trials=10,
                     methods=("l4v", "greedy", "ga"), root_seed=0)
    counts = []
    failures = []
    for i in (1, 2):
        rows = run_sweep(spec)
        counts.append(len(rows))
        failures.extend(r for r in rows if r.error)
        save_detail_csv(rows, str(tmp_path / f"detail{i}.csv"))
        save_aggregate_csv(aggregate(rows), str(tmp_path / f"aggregate{i}.csv"))
    detail_match = _strip_timing(tmp_path / "detail1.csv") == _strip_timing(tmp_path / "detail2.csv")
    agg_match = _strip_timing(tmp_path / "aggregate1.csv") == _strip_timing(tmp_path / "aggregate2.csv")
    n_agg = len(_strip_timing(tmp_path / "aggregate1.csv"))
    ok = (counts == [150, 150] and not failures and n_agg == 15
          and detail_match and agg_match)
    assert verdict(
        8, ok,
        f"K sweep x 10 trials x 3 methods: {counts[0]} detail rows, {n_agg} "
        f"aggregate rows, {len(failures)} failed cells, byte-identical "
        f"reruns outside timing columns {detail_match and agg_match}",
    )
