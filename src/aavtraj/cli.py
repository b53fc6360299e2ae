"""Command-line harness: train, eval, sweep, gradcheck, baseline.

Exit codes: 0 success, 1 runtime failure (training blow-up, failed
gradient check), 2 usage or configuration errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import astuple
from typing import Optional

from .baselines import (
    ConstantController,
    GaConfig,
    GreedyConfig,
    GreedyController,
    MissionMetrics,
    ga_optimize,
    mission_metrics,
)
from .csvio import columns, write_csv
from .env import (
    NumericFailure,
    Scenario,
    ScenarioError,
    SequenceController,
    generate_scenario,
    load_scenario,
    rollout,
    save_scenario,
    scenario_from_dict,
)
from .gradcheck import run_gradcheck, save_gradcheck_report
from .policy import PolicyController, load_checkpoint, save_checkpoint
from .sweep import (
    aggregate,
    run_sweep,
    save_aggregate_csv,
    save_detail_csv,
    sweep_spec_from_dict,
)
from .trainer import TrainConfig, TrainingError, save_training_log, train

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _load_json(path: str) -> dict:
    if not os.path.exists(path):
        raise UsageError(f"file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc


def _scenario_from_config(data: dict) -> Scenario:
    """Accept either an explicit scenario (users/demands) or generator

    parameters (seed, k, area_side, demand range, physics).
    """
    if "users" in data:
        return scenario_from_dict(data)
    known = {
        "seed", "k", "area_side", "demand_lo", "demand_hi",
        "eta", "sigma2", "altitude", "bandwidth", "tau", "v_max", "dist_weight",
    }
    extra = set(data) - known
    if extra:
        raise UsageError(f"unknown scenario fields: {sorted(extra)}")
    for name, value in data.items():
        number = isinstance(value, int if name in ("seed", "k") else (int, float))
        if not (number or (name == "bandwidth" and value is None)):
            raise UsageError(f"scenario field {name!r} has bad value {value!r}")
    return generate_scenario(**{**{"seed": 0}, **data})


def _train_config(data: dict, seed_flag: Optional[int]) -> TrainConfig:
    if seed_flag is not None:
        data = {**data, "seed": seed_flag}
    try:
        return TrainConfig(**data)
    except TypeError as exc:
        raise UsageError(f"bad train config: {exc}") from exc


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _write_mission_csvs(traj, metrics: MissionMetrics, out: str) -> None:
    """metrics.csv (one row) and trajectory.csv (step, x, y) of a rollout."""
    write_csv(os.path.join(out, "metrics.csv"), columns(MissionMetrics), [astuple(metrics)])
    write_csv(
        os.path.join(out, "trajectory.csv"),
        ("step", "x", "y"),
        ([t, x, y] for t, (x, y) in enumerate(traj.positions)),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    config = _load_json(args.config)
    scn = _scenario_from_config(config.get("scenario", {}))
    cfg = _train_config(config.get("train", {}), args.seed)
    out = _ensure_outdir(args.out)
    params, log = train(scn, cfg)
    save_checkpoint(params, os.path.join(out, "checkpoint.json"))
    save_training_log(log, os.path.join(out, "training_log.csv"))
    save_scenario(scn, os.path.join(out, "scenario.json"))
    # train() retries once at half the rate after a numeric failure
    retried = ""
    if log.learning_rate != cfg.learning_rate:
        retried = f"; retried at learning_rate={log.learning_rate}"
    print(
        f"trained {log.iterations} iterations "
        f"(converged={log.converged}, reason={log.stop_reason}, "
        f"final_j={log.rows[-1].j_total if log.rows else float('nan')}){retried}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    scn = _load_scenario_arg(args.scenario)
    if (args.checkpoint is None) == (args.fixed is None):
        raise UsageError("eval needs exactly one of --checkpoint or --fixed 'v,theta'")
    t_max = args.t_max
    stop_eps = args.stop_eps
    if args.checkpoint is not None:
        if not os.path.exists(args.checkpoint):
            raise UsageError(f"checkpoint file not found: {args.checkpoint}")
        try:
            params = load_checkpoint(args.checkpoint)
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise UsageError(f"bad checkpoint {args.checkpoint}: {exc}") from exc
        controller = PolicyController(params, scn)  # rejects K/v_max mismatch
    else:
        try:
            v, theta = (float(p) for p in args.fixed.split(","))
        except ValueError as exc:
            raise UsageError(f"--fixed expects 'v,theta', got {args.fixed!r}") from exc
        controller = ConstantController(v, theta)
    traj = rollout(controller, scn, t_max, stop_eps)
    metrics = mission_metrics(traj, scn, t_max)
    out = _ensure_outdir(args.out)
    _write_mission_csvs(traj, metrics, out)
    print(
        f"evaluated {traj.steps} steps: completed={metrics.completed}, "
        f"mean_completion_steps={metrics.mean_completion_steps}"
    )
    return EXIT_OK


def _load_scenario_arg(path: str) -> Scenario:
    if not os.path.exists(path):
        raise UsageError(f"scenario file not found: {path}")
    try:
        return load_scenario(path)
    except (ScenarioError, json.JSONDecodeError, KeyError) as exc:
        raise UsageError(f"bad scenario file {path}: {exc}") from exc


def cmd_baseline(args) -> int:
    scn = _load_scenario_arg(args.scenario)
    config = _load_json(args.config) if args.config else {}
    t_max = args.t_max
    stop_eps = args.stop_eps
    out = _ensure_outdir(args.out)
    if args.method == "greedy":
        try:
            gcfg = GreedyConfig(**config)
        except TypeError as exc:
            raise UsageError(f"bad greedy config: {exc}") from exc
        controller = GreedyController(scn, gcfg)
        traj = rollout(controller, scn, t_max, stop_eps)
    else:
        try:
            gacfg = GaConfig(**{**{"chromosome_length": t_max, "stop_eps": stop_eps,
                                   "seed": args.seed if args.seed is not None else 0}, **config})
        except TypeError as exc:
            raise UsageError(f"bad GA config: {exc}") from exc
        elapsed_ms: list = []
        best, fitness_log = ga_optimize(scn, gacfg, timing_ms=elapsed_ms)
        write_csv(os.path.join(out, "fitness_log.csv"), ("generation", "best_fitness", "elapsed_ms"),
                  zip(range(len(fitness_log)), fitness_log, elapsed_ms))
        traj = rollout(SequenceController(best), scn, gacfg.chromosome_length, gacfg.stop_eps)
    metrics = mission_metrics(traj, scn, t_max)
    _write_mission_csvs(traj, metrics, out)
    print(
        f"{args.method}: completed={metrics.completed}, "
        f"mean_completion_steps={metrics.mean_completion_steps}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec_data = _load_json(args.spec)
    if args.seed is not None:
        spec_data["root_seed"] = args.seed
    try:
        spec = sweep_spec_from_dict(spec_data)
    except (ScenarioError, TypeError) as exc:
        raise UsageError(f"bad sweep spec: {exc}") from exc
    out = _ensure_outdir(args.out)
    rows = run_sweep(spec)
    save_detail_csv(rows, os.path.join(out, "detail.csv"))
    save_aggregate_csv(aggregate(rows), os.path.join(out, "aggregate.csv"))
    failures = [r for r in rows if r.error]
    print(f"sweep wrote {len(rows)} rows ({len(failures)} failed cells)")
    return EXIT_OK if not failures else EXIT_RUNTIME


def cmd_gradcheck(args) -> int:
    report = run_gradcheck(
        k=args.k, horizon=args.t, seed=args.seed if args.seed is not None else 0,
        h=args.h, tol=args.tol, sample=args.sample,
    )
    if args.out:
        save_gradcheck_report(report, args.out)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status}: max relative error {report.max_rel_err:.3e} over "
        f"{len(report.rows)} parameters (tol {report.tol:.1e}, h {report.h:.1e})"
    )
    return EXIT_OK if report.passed else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aavtraj",
        description="Train and evaluate trajectory policies for aerial data collection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a policy on a scenario")
    p_train.add_argument("--config", required=True, help="JSON with scenario/train sections")
    p_train.add_argument("--seed", type=int, default=None, help="override the training seed")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint or a fixed control")
    p_eval.add_argument("--scenario", required=True, help="scenario JSON file")
    p_eval.add_argument("--checkpoint", default=None, help="policy checkpoint JSON")
    p_eval.add_argument("--fixed", default=None, help="constant control 'v,theta' instead of a checkpoint")
    p_eval.add_argument("--t-max", type=int, default=500)
    p_eval.add_argument("--stop-eps", type=float, default=1e-3)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_base = sub.add_parser("baseline", help="run a baseline planner on a scenario")
    p_base.add_argument("--method", required=True, choices=["greedy", "ga"])
    p_base.add_argument("--scenario", required=True)
    p_base.add_argument("--config", default=None, help="optional JSON baseline config")
    p_base.add_argument("--seed", type=int, default=None, help="GA seed")
    p_base.add_argument("--t-max", type=int, default=500)
    p_base.add_argument("--stop-eps", type=float, default=1e-3)
    p_base.add_argument("--out", required=True)
    p_base.set_defaults(func=cmd_baseline)

    p_sweep = sub.add_parser("sweep", help="run a method-by-variable sweep")
    p_sweep.add_argument("--spec", required=True, help="sweep spec JSON")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the root seed")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_gc = sub.add_parser("gradcheck", help="verify the training gradient by finite differences")
    p_gc.add_argument("--k", type=int, default=2)
    p_gc.add_argument("--t", type=int, default=20)
    p_gc.add_argument("--seed", type=int, default=None)
    p_gc.add_argument("--h", type=float, default=1e-6)
    p_gc.add_argument("--tol", type=float, default=1e-5)
    p_gc.add_argument("--sample", type=int, default=None,
                      help="check only this many randomly chosen parameters")
    p_gc.add_argument("--out", default=None, help="per-parameter CSV report")
    p_gc.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a diagnostic; normalize its exit code
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericFailure, TrainingError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
