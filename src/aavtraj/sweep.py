"""Experiment harness: method-by-variable sweeps with derived seeds.

Every (variable value, trial) cell gets its own scenario, derived from
the root seed by hashing an injective string encoding, so cells never
collide and all methods face the same mission within a cell. Method
randomness (policy init, GA population) is seeded separately with the
method name folded in. Wall-clock columns are the only
non-reproducible output.
"""
from __future__ import annotations

import hashlib
import math
import time
from collections.abc import Mapping
from dataclasses import astuple, dataclass, field
from typing import Optional

import numpy as np

from .baselines import (
    GaConfig,
    GreedyConfig,
    GreedyController,
    evaluate_policy,
    ga_optimize,
)
from .csvio import columns, write_csv
from .env import NumericFailure, Scenario, ScenarioError, SequenceController, check_int, generate_scenario
from .policy import PolicyController
from .trainer import TrainConfig, TrainingError, train

SWEEPABLE = ("K", "L", "eta", "sigma2")
METHODS = ("l4v", "greedy", "ga")

# swept variable -> generate_scenario keyword it controls
SCENARIO_KWARG = {"K": "k", "L": "area_side", "eta": "eta", "sigma2": "sigma2"}

DEFAULT_VALUES = {
    "K": [2, 4, 6, 8, 10],
    "L": [5.0, 10.0, 15.0, 20.0, 25.0],
    "eta": [0.5, 1.0, 1.5, 2.0, 2.5],
    "sigma2": [0.05, 0.1, 0.15, 0.2, 0.25],
}


def derive_seed(root_seed: int, *parts) -> int:
    """Stable 63-bit seed from an injective '|'-joined encoding."""
    text = "|".join([str(int(root_seed))] + [_canon(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _canon(p) -> str:
    if isinstance(p, float):
        s = repr(p)
    else:
        s = str(p)
    # escape the join character so distinct part tuples never collide
    return s.replace("\\", "\\\\").replace("|", "\\|")


@dataclass
class SweepSpec:
    variable: str = "K"
    values: list = field(default_factory=list)
    trials: int = 10
    methods: tuple = METHODS
    root_seed: int = 0
    scenario: dict = field(default_factory=dict)  # generate_scenario overrides
    train: dict = field(default_factory=dict)  # TrainConfig overrides
    ga: dict = field(default_factory=dict)  # GaConfig overrides
    greedy: dict = field(default_factory=dict)  # GreedyConfig overrides

    def __post_init__(self):
        if self.variable not in SWEEPABLE:
            raise ScenarioError(f"swept variable must be one of {SWEEPABLE}")
        if not isinstance(self.values, (list, tuple)):  # None or 0 does not mean the defaults
            raise ScenarioError(f"values must be a list of the swept variable's values, got {self.values!r}")
        self.values = tuple(self.values or DEFAULT_VALUES[self.variable])  # an empty list means the defaults
        check_int("trials", self.trials, 1)
        if isinstance(self.root_seed, bool) or not isinstance(self.root_seed, (int, np.integer)):
            raise ScenarioError(f"root_seed must be an integer, got {self.root_seed!r}")
        if isinstance(self.methods, str) or not np.iterable(self.methods):
            raise ScenarioError(f"methods must be a list of method names from {METHODS}, got {self.methods!r}")
        self.methods = tuple(self.methods)
        for m in self.methods:
            if m not in METHODS:
                raise ScenarioError(f"unknown method {m!r}; expected subset of {METHODS}")
        for group in ("scenario", "train", "ga", "greedy"):
            if not isinstance(getattr(self, group), Mapping):
                raise ScenarioError(f"{group} must be a dict of overrides, got {getattr(self, group)!r}")
        # overrides must name real config fields; surface typos here rather
        # than as 150 identical per-cell failures
        swept = SCENARIO_KWARG[self.variable]
        if swept in self.scenario:
            raise ScenarioError(
                f"scenario override {swept!r} conflicts with swept variable {self.variable!r}"
            )
        for group in ("train", "ga"):
            if "seed" in getattr(self, group):
                raise ScenarioError(f"{group} override may not set 'seed'; seeds are derived per cell")
        try:
            TrainConfig(**self.train)
            GaConfig(**self.ga)
            GreedyConfig(**self.greedy)
            for value in self.values:  # each swept value must make a scenario, too
                generate_scenario(0, **{**self.scenario, swept: value})
        except TypeError as exc:
            raise ScenarioError(f"bad sweep override: {exc}") from None


def sweep_spec_from_dict(data: dict) -> SweepSpec:
    known = {"variable", "values", "trials", "methods", "root_seed", "scenario", "train", "ga", "greedy"}
    extra = set(data) - known
    if extra:
        raise ScenarioError(f"unknown sweep spec fields: {sorted(extra)}")
    return SweepSpec(**data)


@dataclass
class ResultRow:
    method: str
    swept_variable: str
    value: float
    trial_seed: int
    mean_completion_steps: float
    mission_steps: int
    avg_rate: float
    completed: bool
    train_iterations: Optional[int]
    train_wallclock_ms: Optional[float]
    error: str = ""


def _cell_scenario(spec: SweepSpec, value, trial: int) -> Scenario:
    kwargs = dict(spec.scenario)
    cast = int if spec.variable == "K" else float
    kwargs[SCENARIO_KWARG[spec.variable]] = cast(value)
    scn_seed = derive_seed(spec.root_seed, "scenario", spec.variable, value, trial)
    return generate_scenario(scn_seed, **kwargs)


def _run_cell(spec: SweepSpec, method: str, value, trial: int) -> ResultRow:
    scn = _cell_scenario(spec, value, trial)
    method_seed = derive_seed(spec.root_seed, method, spec.variable, value, trial)
    tcfg = TrainConfig(**{**spec.train, "seed": method_seed})

    iterations: Optional[int] = None
    wallclock: Optional[float] = None
    if method == "l4v":
        params, log = train(scn, tcfg)
        metrics = evaluate_policy(PolicyController(params, scn), scn, tcfg.t_max, tcfg.stop_eps)
        iterations = log.iterations
        wallclock = log.wallclock_ms()
    elif method == "greedy":
        gcfg = GreedyConfig(**spec.greedy)
        metrics = evaluate_policy(GreedyController(scn, gcfg), scn, tcfg.t_max, tcfg.stop_eps)
    else:
        gacfg = GaConfig(
            **{
                **spec.ga,
                "seed": method_seed,
                "chromosome_length": spec.ga.get("chromosome_length", tcfg.t_max),
                "stop_eps": spec.ga.get("stop_eps", tcfg.stop_eps),
                "beta": spec.ga.get("beta", tcfg.beta),
                "alpha": spec.ga.get("alpha", tcfg.alpha),
            }
        )
        t0 = time.perf_counter()
        best, fitness_log = ga_optimize(scn, gacfg)
        wallclock = (time.perf_counter() - t0) * 1e3
        metrics = evaluate_policy(
            SequenceController(best), scn, gacfg.chromosome_length, gacfg.stop_eps
        )
        iterations = len(fitness_log) - 1
    return ResultRow(
        method=method,
        swept_variable=spec.variable,
        value=float(value),
        trial_seed=method_seed,
        mean_completion_steps=metrics.mean_completion_steps,
        mission_steps=metrics.mission_steps,
        avg_rate=metrics.avg_rate,
        completed=metrics.completed,
        train_iterations=iterations,
        train_wallclock_ms=wallclock,
    )


def run_sweep(spec: SweepSpec, progress=None) -> list:
    """Run every (method, value, trial) cell sequentially. A cell that

    fails in the domain (training blow-up, non-finite values, invalid
    scenario or config) is recorded in its row and the sweep continues;
    any other exception is a bug and propagates.
    """
    rows = []
    for method in spec.methods:
        for vi, value in enumerate(spec.values):
            for trial in range(spec.trials):
                try:
                    row = _run_cell(spec, method, value, trial)
                except (TrainingError, NumericFailure, ScenarioError) as exc:
                    row = ResultRow(
                        method=method,
                        swept_variable=spec.variable,
                        value=float(value),
                        trial_seed=derive_seed(spec.root_seed, method, spec.variable, value, trial),
                        mean_completion_steps=math.nan,
                        mission_steps=0,
                        avg_rate=math.nan,
                        completed=False,
                        train_iterations=None,
                        train_wallclock_ms=None,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                rows.append(row)
                if progress is not None:
                    progress(row)
    return rows


@dataclass
class AggregateRow:
    method: str
    swept_variable: str
    value: float
    trials: int
    mean_completion_steps_mean: float
    mean_completion_steps_std: float
    mission_steps_mean: float
    mission_steps_std: float
    avg_rate_mean: float
    avg_rate_std: float
    completed_rate: float
    train_iterations_mean: Optional[float]
    train_wallclock_ms_mean: Optional[float]


def aggregate(rows: list) -> list:
    """Mean/std per (method, value) over successful trials, in the order

    the detail rows first present each cell.
    """
    groups: dict = {}
    order = []
    for r in rows:
        key = (r.method, r.swept_variable, r.value)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(r)
    out = []
    for key in order:
        rs = [r for r in groups[key] if not r.error]
        if not rs:
            continue
        comp = np.array([r.mean_completion_steps for r in rs])
        mlen = np.array([r.mission_steps for r in rs], dtype=float)
        arate = np.array([r.avg_rate for r in rs])
        iters = [r.train_iterations for r in rs if r.train_iterations is not None]
        wall = [r.train_wallclock_ms for r in rs if r.train_wallclock_ms is not None]
        out.append(
            AggregateRow(
                method=key[0],
                swept_variable=key[1],
                value=key[2],
                trials=len(rs),
                mean_completion_steps_mean=float(np.mean(comp)),
                mean_completion_steps_std=float(np.std(comp)),
                mission_steps_mean=float(np.mean(mlen)),
                mission_steps_std=float(np.std(mlen)),
                avg_rate_mean=float(np.mean(arate)),
                avg_rate_std=float(np.std(arate)),
                completed_rate=float(np.mean([1.0 if r.completed else 0.0 for r in rs])),
                train_iterations_mean=float(np.mean(iters)) if iters else None,
                train_wallclock_ms_mean=float(np.mean(wall)) if wall else None,
            )
        )
    return out


DETAIL_COLUMNS = columns(ResultRow)
AGGREGATE_COLUMNS = columns(AggregateRow)

# Columns that legitimately differ between byte-level reruns.
TIMING_COLUMNS = ("train_wallclock_ms", "train_wallclock_ms_mean")


def save_detail_csv(rows: list, path: str) -> None:
    write_csv(path, DETAIL_COLUMNS, map(astuple, rows))


def save_aggregate_csv(rows: list, path: str) -> None:
    write_csv(path, AGGREGATE_COLUMNS, map(astuple, rows))
