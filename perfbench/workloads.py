"""The three benchmark workloads: their inputs, the timed call and the checks.

Each workload makes its inputs from the benchmark seed, then runs one
operation again and again: the same timed call on the same inputs. The
first operation on each instance is checked against the independent
reference simulator (``refsim``) and against properties the method must
have; every later one must reproduce it bit for bit, so it passes the
same checks. ``Reference`` is the yardstick every timed call is measured
against.

The long-mission preset is one fixed scenario, generated from seed 0 with
demands of 20 to 40. The benchmark seed picks the method's randomness on
it (the policy initialisation, the GA population) and the root seed of
the sweep. Scenarios drawn per benchmark seed differ too much in mission
length for any figure to be steady across seeds: over scenario seeds
0-15, 40 training iterations took 0.3 to 4.1 s.
"""
from __future__ import annotations

import csv
import math
import os
import tempfile
import time

import numpy as np

import aavtraj
import aavtraj.baselines as baselines
import aavtraj.sweep as sweep
import aavtraj.trainer as trainer
import refsim

PRESET = dict(seed=0, k=4, demand_lo=20.0, demand_hi=40.0)
REL_TOL = 1e-9  # package vs reference simulator: same model, other summation order


def long_mission():
    return aavtraj.generate_scenario(PRESET["seed"], k=PRESET["k"],
                                     demand_lo=PRESET["demand_lo"], demand_hi=PRESET["demand_hi"])


class Reference:
    """A fixed computation that shares no code with the package: the

    reference simulator driving a fixed random MLP policy for 500 steps on
    a fixed four-user mission whose demands are too large to finish. It
    does the same kind of work as the package (small numpy mat-vecs and
    scalar Python per step) and is timed right before every timed call,
    so a call's time divided by it cancels how much other tenants of a
    shared host slowed the machine at that moment (README)."""

    STEPS = 500
    HIDDEN = (64, 64, 32)

    def __init__(self):
        users = np.array([[1.5, -2.5], [-4.5, -5.0], [3.0, 4.0], [1.0, 2.5]])
        self.mission = refsim.Mission(users, np.full(4, 1e6), area_side=10.0, eta=1.0, sigma2=0.1,
                                      altitude=1.0, bandwidth=4.0, tau=1.0, v_max=0.2, dist_weight=0.01)
        dims = [2 + 3 * len(users), *self.HIDDEN, 2]
        size = sum((n_in + 1) * n_out for n_in, n_out in zip(dims[:-1], dims[1:]))
        flat = np.random.default_rng(0).normal(0.0, 0.1, size)
        self.policy = refsim.MlpPolicy(flat, self.HIDDEN, self.mission)

    def seconds(self) -> float:
        t0 = time.perf_counter()
        refsim.simulate(self.mission, self.policy, self.STEPS, 0.0)
        return time.perf_counter() - t0


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def compare_metrics(got, ref, what: str) -> list:
    """Package MissionMetrics (or a sweep row) against refsim.Metrics."""
    errors = []
    for field in ("mission_steps", "completed", "completion_steps"):
        if hasattr(got, field) and getattr(got, field) != getattr(ref, field):
            errors.append(f"{what}: {field} {getattr(got, field)} != reference {getattr(ref, field)}")
    for field in ("mean_completion_steps", "avg_rate"):
        if not close(getattr(got, field), getattr(ref, field)):
            errors.append(f"{what}: {field} {getattr(got, field)!r} != reference {getattr(ref, field)!r}")
    return errors


class Workload:
    """A round runs one operation per instance; instance j of benchmark seed

    s has seed s * INSTANCES + j, so different benchmark seeds never share
    an instance."""

    name = ""
    INSTANCES = 1

    def __init__(self, seed: int, out_dir: str):
        self.seeds = [seed * self.INSTANCES + j for j in range(self.INSTANCES)]
        self.out_dir = out_dir
        self.first: dict = {}  # instance -> outputs of its first operation

    def setup(self) -> None:
        """Make the inputs and warm up the code path with a small call."""
        raise NotImplementedError

    def operation(self, i: int, tracer) -> dict:
        """One timed call on instance i plus the outputs the checks need;

        'wall_s' is the call."""
        raise NotImplementedError

    def check(self, i: int, res: dict) -> list:
        """Messages for every check the operation failed: the first

        operation on an instance is checked in full, later ones must
        reproduce its outputs bit for bit."""
        if i not in self.first:
            self.first[i] = res
            return self.full_check(i, res)
        return [] if self.same(self.first[i], res) else [
            "a repeat of the same call on the same inputs gave different outputs"]

    def full_check(self, i: int, res: dict) -> list:
        """Messages for every check against the reference and the method's properties."""
        raise NotImplementedError

    def same(self, a: dict, b: dict) -> bool:
        """Whether two operations on the same instance gave the same outputs."""
        raise NotImplementedError

    def quality(self, res: dict) -> dict:
        """mission_steps and avg_rate of the plan or policy the call produced."""
        raise NotImplementedError


class TrainLong(Workload):
    """train() with a fixed iteration budget on the long-mission preset, then

    evaluate_policy of the trained policy. Early stopping is off, so every
    call does 5 iterations. From a fresh initialisation no policy finishes
    the mission within t_max, so every iteration rolls out and sweeps back
    the full 500 steps, whatever the seed: the work of a call does not
    depend on it.
    """

    name = "train-long"
    ITERATIONS = 5

    def setup(self):
        self.scn = long_mission()
        self.cfgs = [aavtraj.TrainConfig(seed=s, max_iters=self.ITERATIONS, early_stop_delta=0.0)
                     for s in self.seeds]
        self.mission = refsim.Mission.of(self.scn)
        trainer.train(self.scn, aavtraj.TrainConfig(seed=self.seeds[0], max_iters=1, early_stop_delta=0.0))

    def operation(self, i, tracer):
        cfg = self.cfgs[i]
        t0 = time.perf_counter()
        params, log = trainer.train(self.scn, cfg)
        wall = time.perf_counter() - t0
        metrics = baselines.evaluate_policy(
            aavtraj.PolicyController(params, self.scn), self.scn, cfg.t_max, cfg.stop_eps)
        return {"wall_s": wall, "params": params, "log": log, "metrics": metrics}

    def quality(self, res):
        return {"mission_steps": res["metrics"].mission_steps, "avg_rate": res["metrics"].avg_rate,
                "objective": res["log"].rows[-1].j_total}

    def full_check(self, i, res):
        cfg, scn, m = self.cfgs[i], self.scn, self.mission
        params, log = res["params"], res["log"]
        errors = []
        if log.iterations != cfg.max_iters or log.stop_reason != "max_iters":
            errors.append(f"expected {cfg.max_iters} iterations to max_iters, got "
                          f"{log.iterations} ({log.stop_reason})")
        if not log.rows[-1].j_total < log.rows[0].j_total:
            errors.append(f"objective did not fall: {log.rows[0].j_total} -> {log.rows[-1].j_total}")
        # clip_gradient rescales to the threshold; allow its last-bit rounding
        over = [r.iteration for r in log.rows if r.grad_norm_post > cfg.clip_threshold * (1 + 1e-12)]
        if over:
            errors.append(f"grad_norm_post above clip_threshold at iterations {over[:5]}")

        ref = refsim.simulate(m, refsim.MlpPolicy(params.flat, cfg.hidden, m), cfg.t_max, cfg.stop_eps)
        errors += compare_metrics(res["metrics"], refsim.metrics(m, ref, cfg.t_max), "trained policy")

        traj = aavtraj.rollout(aavtraj.PolicyController(params, scn), scn, cfg.t_max, cfg.stop_eps)
        d = np.array([s.d for s in traj.states])
        if np.any(np.diff(d, axis=0) > 0.0):
            errors.append("a backlog increased along the trained policy's rollout")
        v = traj.controls_array()[:, 0]
        if np.any(v < 0.0) or np.any(v > scn.v_max):
            errors.append(f"speed outside [0, {scn.v_max}]: {v.min()} .. {v.max()}")

        bundle = aavtraj.backward_closedloop(traj, params, scn, beta=cfg.beta, alpha=cfg.alpha)
        j_ref = refsim.objective(ref, cfg.beta, cfg.alpha)
        if not close(bundle.j_total, j_ref):
            errors.append(f"objective of the trained policy {bundle.j_total!r} != reference {j_ref!r}")
        return errors + self.gradient_check(cfg, params, ref, bundle.param_grad)

    def same(self, a, b):
        return (np.array_equal(a["params"].flat, b["params"].flat)
                and [r.j_total for r in a["log"].rows] == [r.j_total for r in b["log"].rows]
                and self.quality(a) == self.quality(b))

    def gradient_check(self, cfg, params, ref, grad, h: float = 1e-5, tol: float = 1e-5) -> list:
        """Directional central difference of the reference objective against

        the reverse-sweep gradient, along a seeded random direction. A
        direction is used only if both probes keep the base trajectory's
        length, termination and clamp pattern, so no branch flips."""
        m = self.mission
        rng = np.random.default_rng(cfg.seed)
        for _ in range(8):
            u = rng.standard_normal(params.flat.size)
            u /= np.linalg.norm(u)
            probes = [refsim.simulate(m, refsim.MlpPolicy(params.flat + s * h * u, cfg.hidden, m),
                                      cfg.t_max, cfg.stop_eps) for s in (1.0, -1.0)]
            if all(p.steps == ref.steps and p.terminated == ref.terminated and p.masks == ref.masks
                   for p in probes):
                fd = (refsim.objective(probes[0], cfg.beta, cfg.alpha)
                      - refsim.objective(probes[1], cfg.beta, cfg.alpha)) / (2.0 * h)
                an = float(grad @ u)
                if abs(fd - an) > tol * max(abs(fd), abs(an), 1.0):
                    return [f"directional derivative {an!r} != central difference {fd!r}"]
                return []
        return ["no probe direction kept the clamp and termination pattern"]


class GaLong(Workload):
    """ga_optimize() with the default population and chromosome length and 1

    generation on the long-mission preset, then the best plan's metrics.
    One generation keeps a call near 0.6 s, so that it meets about the same
    host load as the reference timing before it (see README). Its work
    hardly depends on the seed (12.8k to 13.5k rollout steps over seeds
    0-9)."""

    name = "ga-long"
    GENERATIONS = 1

    def setup(self):
        self.scn = long_mission()
        self.cfg = aavtraj.GaConfig(seed=self.seeds[0], generations=self.GENERATIONS)
        self.mission = refsim.Mission.of(self.scn)
        baselines.ga_optimize(self.scn, aavtraj.GaConfig(seed=self.seeds[0], population=2,
                                                          tournament_size=2, generations=1))

    def operation(self, i, tracer):
        timing: list = []
        t0 = time.perf_counter()
        best, log = baselines.ga_optimize(self.scn, self.cfg, timing_ms=timing)
        wall = time.perf_counter() - t0
        metrics = baselines.evaluate_policy(
            aavtraj.SequenceController(best), self.scn, self.cfg.chromosome_length, self.cfg.stop_eps)
        return {"wall_s": wall, "best": best, "log": log, "metrics": metrics}

    def quality(self, res):
        return {"mission_steps": res["metrics"].mission_steps, "avg_rate": res["metrics"].avg_rate,
                "objective": -res["log"][-1]}

    def full_check(self, i, res):
        cfg, m = self.cfg, self.mission
        best, log = res["best"], res["log"]
        errors = []
        if len(log) != cfg.generations + 1:
            errors.append(f"fitness log has {len(log)} entries, expected {cfg.generations + 1}")
        if any(b < a for a, b in zip(log[:-1], log[1:])):
            errors.append(f"best-so-far fitness decreased: {log}")
        ref = refsim.simulate(m, refsim.OpenLoop(best), cfg.chromosome_length, cfg.stop_eps)
        j_ref = refsim.objective(ref, cfg.beta, cfg.alpha)
        if not close(-log[-1], j_ref):
            errors.append(f"-fitness_log[-1] {-log[-1]!r} != reference objective {j_ref!r}")
        return errors + compare_metrics(res["metrics"], refsim.metrics(m, ref, cfg.chromosome_length),
                                        "best plan")

    def same(self, a, b):
        return (np.array_equal(a["best"], b["best"]) and a["log"] == b["log"]
                and self.quality(a) == self.quality(b))


class SweepDefault(Workload):
    """run_sweep() over K in (2, 6, 10) with 2 trials and all three methods on

    the default (short) mission family, then both CSVs written. The GA cells
    run 5 generations instead of 300, so that one call takes about half a
    second; every other setting is the default. The root seed draws the
    scenarios, and the work of a sweep depends on them (3.8k to 5.3k env
    steps over root seeds 0-9), so a round runs sixteen root seeds."""

    name = "sweep-default"
    INSTANCES = 16
    VALUES = (2, 6, 10)
    TRIALS = 2
    GA = {"generations": 5}

    def setup(self):
        self.specs = [aavtraj.SweepSpec(variable="K", values=list(self.VALUES), trials=self.TRIALS,
                                        root_seed=s, ga=dict(self.GA)) for s in self.seeds]
        small = aavtraj.SweepSpec(variable="K", values=[2], trials=1, root_seed=self.seeds[0],
                                  ga={"generations": 1}, train={"max_iters": 1})
        sweep.run_sweep(small)

    def operation(self, i, tracer):
        t0 = time.perf_counter()
        rows = sweep.run_sweep(self.specs[i], progress=tracer.sweep_progress)
        wall = time.perf_counter() - t0
        with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp, tracer.span("sweep.csv"):
            detail, agg = os.path.join(tmp, "detail.csv"), os.path.join(tmp, "aggregate.csv")
            sweep.save_detail_csv(rows, detail)
            sweep.save_aggregate_csv(aavtraj.aggregate(rows), agg)
            tables = (read_without_timing(detail), read_without_timing(agg))
        return {"wall_s": wall, "rows": rows, "tables": tables}

    def quality(self, res):
        rows = res["rows"]
        return {"mission_steps": float(np.mean([r.mission_steps for r in rows])),
                "avg_rate": float(np.mean([r.avg_rate for r in rows]))}

    def full_check(self, i, res):
        spec, rows = self.specs[i], res["rows"]
        detail, agg = res["tables"]
        errors = []
        n_methods, n_values = len(spec.methods), len(spec.values)
        if len(rows) != n_methods * n_values * spec.trials or len(detail) != len(rows) + 1:
            errors.append(f"{len(rows)} detail rows, expected {n_methods * n_values * spec.trials}")
        if len(agg) != n_methods * n_values + 1:
            errors.append(f"{len(agg) - 1} aggregate rows, expected {n_methods * n_values}")
        failed = [f"{r.method} K={r.value}: {r.error}" for r in rows if r.error]
        if failed:
            errors.append(f"cells failed: {failed}")

        t_max, stop_eps = aavtraj.TrainConfig().t_max, aavtraj.TrainConfig().stop_eps
        greedy = [r for r in rows if r.method == "greedy"]
        cells = [(value, trial) for value in spec.values for trial in range(spec.trials)]
        if len(greedy) != len(cells):
            return errors + [f"{len(greedy)} greedy rows, expected {len(cells)}"]
        for row, (value, trial) in zip(greedy, cells):
            what = f"greedy K={value} trial {trial}"
            if row.value != value or row.trial_seed != aavtraj.derive_seed(
                    spec.root_seed, "greedy", spec.variable, value, trial):
                errors.append(f"{what}: row has K={row.value}, trial seed {row.trial_seed}")
                continue
            scn = aavtraj.generate_scenario(
                aavtraj.derive_seed(spec.root_seed, "scenario", spec.variable, value, trial), k=value)
            m = refsim.Mission.of(scn)
            ref = refsim.metrics(m, refsim.simulate(m, refsim.Greedy(m), t_max, stop_eps), t_max)
            errors += compare_metrics(row, ref, what)
        return errors

    def same(self, a, b):
        return a["tables"] == b["tables"]


def read_without_timing(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    keep = [i for i, col in enumerate(table[0]) if col not in sweep.TIMING_COLUMNS]
    return [[row[i] for i in keep] for row in table]


WORKLOADS = {w.name: w for w in (TrainLong, GaLong, SweepDefault)}
