"""Reference planners and the mission evaluator.

Greedy picks, each slot, the grid candidate that maximizes the summed
rate of still-active users at the post-move position. The genetic
algorithm searches directly over open-loop control sequences with the
same objective the trained policy descends, so the comparison is
apples to apples.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .env import (  # SequenceController stays importable from here
    Control,
    NumericFailure,
    Scenario,
    ScenarioError,
    SequenceController,
    State,
    TrajectoryRecord,
    as_float,
    check_int,
    check_nonnegative,
    check_positive,
    check_seed,
    is_number,
    open_loop_segment,
    rates,
    rollout,
)
from .smoothing import smoothness_penalty

TWO_PI = 2.0 * math.pi
# the most elements an array can have: np.intp counts them
MAX_ELEMENTS = int(np.iinfo(np.intp).max)


# ---------------------------------------------------------------------------
# control sources
# ---------------------------------------------------------------------------


class ConstantController:
    """Same control every slot; (0, theta) hovers in place."""

    def __init__(self, v: float, theta: float):
        self.control = Control(float(v), float(theta))

    def __call__(self, t: int, x: State) -> Control:
        return self.control


# ---------------------------------------------------------------------------
# greedy
# ---------------------------------------------------------------------------


@dataclass
class GreedyConfig:
    """Candidate grid: headings even on [0, 2pi), speeds default to

    (0, v_max/2, v_max). Ties resolve to the lowest candidate index,
    speed-major then heading.
    """

    heading_grid: int = 64
    speed_grid: Optional[tuple] = None

    def __post_init__(self):
        check_int("heading_grid", self.heading_grid, 1)
        if self.speed_grid is not None:
            grid = self.speed_grid
            if not (np.iterable(grid) and all(is_number(s) for s in grid)):
                raise ScenarioError(f"speed_grid must be a list of numbers, got {grid!r}")
            try:
                self.speed_grid = tuple(float(s) for s in grid)
            except OverflowError:
                raise ScenarioError(f"speed_grid must be a list of numbers that fit a float, got {grid!r}") from None
            if not self.speed_grid:
                raise ScenarioError("speed_grid must hold at least one speed, got an empty list")
        speeds = 3 if self.speed_grid is None else len(self.speed_grid)
        if speeds * int(self.heading_grid) * 2 > MAX_ELEMENTS:  # greedy_action's candidate moves
            raise ScenarioError(f"heading_grid must keep the (speeds * heading_grid, 2) candidate moves within "
                                f"{MAX_ELEMENTS} elements, got {self.heading_grid!r} with {speeds} speeds")


def greedy_action(x: State, scn: Scenario, cfg: GreedyConfig) -> Control:
    """One-step lookahead: maximize the summed active-user rate at the

    post-move position; hover at heading 0 when no user is active.
    """
    active = x.d > 0.0
    if not np.any(active):
        return Control(0.0, 0.0)
    speeds = np.asarray(
        cfg.speed_grid if cfg.speed_grid is not None else (0.0, scn.v_max / 2.0, scn.v_max)
    )
    if np.any(speeds < 0) or np.any(speeds > scn.v_max):
        raise ScenarioError("speed grid entries must lie in [0, v_max]")
    headings = TWO_PI * np.arange(cfg.heading_grid) / cfg.heading_grid
    cand_v = np.repeat(speeds, cfg.heading_grid)
    cand_th = np.tile(headings, speeds.size)
    moves = scn.tau * cand_v[:, None] * np.stack([np.cos(cand_th), np.sin(cand_th)], axis=1)
    scores = np.sum(rates(x.q + moves, scn)[:, active], axis=1)
    best = int(np.argmax(scores))  # first max = lowest candidate index
    return Control(float(cand_v[best]), float(cand_th[best]))


class GreedyController:
    def __init__(self, scn: Scenario, cfg: Optional[GreedyConfig] = None):
        self.scn = scn
        self.cfg = cfg if cfg is not None else GreedyConfig()

    def __call__(self, t: int, x: State) -> Control:
        return greedy_action(x, self.scn, self.cfg)


# ---------------------------------------------------------------------------
# genetic algorithm over control sequences
# ---------------------------------------------------------------------------


@dataclass
class GaConfig:
    population: int = 50
    generations: int = 300
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_std: tuple = (0.02, 0.3)
    elitism: int = 1
    chromosome_length: int = 500
    stop_eps: float = 1e-3
    beta: float = 1.0
    alpha: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        for name, lo in (("population", 2), ("generations", 0), ("tournament_size", 1),
                         ("elitism", 0), ("chromosome_length", 1)):
            check_int(name, getattr(self, name), lo)
        check_seed("seed", self.seed)
        if int(self.population) * int(self.chromosome_length) * 2 > MAX_ELEMENTS:
            raise ScenarioError(f"population and chromosome_length must keep the (population, chromosome_length, 2) "
                                f"population within {MAX_ELEMENTS} elements, got {self.population!r} and "
                                f"{self.chromosome_length!r}")
        if self.tournament_size > self.population:
            raise ScenarioError("tournament_size must be in [1, population]")
        if self.elitism >= self.population:
            raise ScenarioError("elitism must be in [0, population)")
        if not (is_number(self.crossover_rate) and 0.0 <= self.crossover_rate <= 1.0):
            raise ScenarioError(f"crossover_rate must be a number in [0, 1], got {self.crossover_rate!r}")
        std = self.mutation_std
        if not (isinstance(std, (tuple, list)) and len(std) == 2
                and all(is_number(s) and 0.0 <= as_float(s) < math.inf for s in std)):
            raise ScenarioError(f"mutation_std must be two finite numbers >= 0, got {std!r}")
        check_positive("stop_eps", self.stop_eps)
        for name in ("beta", "alpha"):
            check_nonnegative(name, getattr(self, name))


# Steps of each member's own first rollout when a population is scored,
# unless the scenario rules out an end within them: default missions end
# in 2-4 steps, so a longer first rollout would mostly compute steps no
# mission takes.
OPEN_LOOP_SEGMENT = 8
# Steps per open_loop_segment call of a population's pass, from step 0: a
# member whose mission ends inside a chunk computes the rest of the chunk
# for nothing, and each call costs about 40 us before any step. One
# ga_optimize call (population 50, T=500, 1 generation, seeds 0-7) on the
# long preset (generate_scenario(0, k=K, demand_lo=20, demand_hi=40)), the
# median over 80 rounds of the mean over the seeds, chunks alternated
# round by round in one process, two runs (2-vCPU x86-64 host, numpy 2.4,
# Python 3.11, OPENBLAS_NUM_THREADS=1):
#
#   chunk         20               30               40               60
#   K=1     7.57 / 8.11 ms   +1.2% / -1.9%    +1.5% / -0.4%    +2.4% / +1.9%
#   K=4     5.89 / 5.52 ms   -5.5% / -6.3%   -10.0% / -9.4%    -5.4% / -7.3%
#   K=10    7.00 / 5.81 ms   +0.1% / -1.4%    -0.3% / -0.3%    +3.8% / +5.6%
#
# Random plans' missions end in 105-229 steps at K=4, 82-182 at K=10 and
# 14-25 at K=1. Longer chunks cost more per member-step at K=10 (larger
# arrays); 40 is the best at K=4 and level elsewhere.
OPEN_LOOP_CHUNK = 40


def _fitness(chrom: np.ndarray, scn: Scenario, cfg: GaConfig) -> float:
    traj = rollout(SequenceController(chrom), scn, cfg.chromosome_length, cfg.stop_eps)
    return _objective(traj.stage_costs, traj.controls, cfg)


def _objective(stage_costs: np.ndarray, controls: np.ndarray, cfg: GaConfig) -> float:
    """Minus the task cost (stage costs summed in step order by sum(), as

    TrajectoryRecord.task_cost adds them) and the weighted smoothness
    penalty of the controls taken.
    """
    return -(float(sum(stage_costs.tolist())) + cfg.beta * smoothness_penalty(controls, cfg.alpha))


def _cannot_end_within(scn: Scenario, steps: int, threshold: float) -> bool:
    """Whether the scenario alone rules out any mission ending within its first steps steps.

    A user's rate falls with its horizontal distance from the vehicle, so
    no slot drains it by more than drain = r_max * tau, r_max being the
    rate straight above it (env.rates at distance 0). Whatever the
    controls, every backlog sum up to row steps is then at least
    left = sum_i max(0, d_i - steps * drain), and the mission, which ends
    on the first row whose sum is below the threshold, cannot end by row
    steps while left is not below it.

    The rollout rounds, and so does left. The rollout's drains are the
    same operations on squared distances >= 0, so each is at most a few
    ulps above drain. Every other operation on either side, at most
    (2 * steps + 3) * K subtractions, products, clamps and additions, is
    off by at most an ulp of a number no larger than
    scale = sum_i d_i + K * steps * drain. The margin,
    (K + steps) * scale * 2**-40, is 4096 such ulps per user and step,
    far more than they can add up to. A non-finite drain makes the
    margin infinite and the answer False.
    """
    drain = float(rates(scn.user_positions[0], scn)[0]) * scn.tau
    demands = scn.demands.tolist()
    left = sum(max(0.0, d - steps * drain) for d in demands)
    margin = (scn.k + steps) * (sum(demands) + scn.k * steps * drain) * 2.0**-40
    return left > threshold + margin


def _population_fitness(pop: np.ndarray, scn: Scenario, cfg: GaConfig) -> np.ndarray:
    """[_fitness(c, scn, cfg) for c in pop] for a population (P, T, 2), bit for bit.

    The members run together in one pass from step 0: one open_loop_segment
    call per OPEN_LOOP_CHUNK steps, from the rows each reached, dropping
    members as their missions end. No member of the pass can end within
    its first OPEN_LOOP_SEGMENT steps (see below), so the first call is a
    whole chunk too. The members of the pass are then scored from arrays:
    the task cost adds the stage costs each segment computed (Segment.costs,
    as a replay's tape takes them) with sum(), as _objective does; the
    smoothness penalty takes the squared speed changes and
    1 - cos(heading change) of all members in one elementwise pass each,
    and adds each member's own contiguous row slice with add.reduce, as
    smoothness_penalty sums its fresh arrays. A member whose penalty is not
    finite (an overflow on its own rows) is scored by _objective, which
    warns as the scalar loop does. A member whose steps would raise takes
    _fitness, in population order, so the exception raised is the scalar
    loop's, and so are its warnings.

    Unless _cannot_end_within rules out an end within the first segment
    (long missions), each member's first segment is first a rollout of its
    own, as on the default 2-4 step missions, where a pass over those
    steps made the GA fast enough to flip acceptance check 6. A member
    whose mission ends there is scored off it by _objective; the rest join
    the pass. On those missions every member ends there, so the pass never
    runs.
    """
    size, t_len = pop.shape[:2]
    head = min(OPEN_LOOP_SEGMENT, t_len)
    threshold = cfg.stop_eps * scn.k
    fitness = np.empty(size)
    running = list(range(size))
    if not _cannot_end_within(scn, head, threshold):
        running = []
        for i, chrom in enumerate(pop):
            try:
                traj = rollout(SequenceController(chrom), scn, head, cfg.stop_eps)
            except (ScenarioError, NumericFailure):
                for j in running:  # an earlier member that runs on may raise first
                    _fitness(pop[j], scn, cfg)
                raise
            if traj.terminated_step is None and head < t_len:
                running.append(i)
            else:
                fitness[i] = _objective(traj.stage_costs, traj.controls, cfg)
        if not running:
            return fitness

    costs = np.empty((size, t_len))
    steps = np.full(size, t_len)
    failed = np.zeros(size, dtype=bool)
    live = np.array(running)
    q, d = np.zeros(2), scn.demands  # the initial state, broadcast over the members
    start = 0
    while start < t_len:
        stop = min(start + OPEN_LOOP_CHUNK, t_len)
        # rows after a member's end are never read, so their overflow is ignored, as in a replay
        with np.errstate(over="ignore"):
            seg = open_loop_segment(pop[live, start:stop], q, d, scn, threshold)
        costs[live, start:stop] = seg.costs
        steps[live[seg.ended]] = start + seg.end[seg.ended]
        failed[live[~seg.valid]] = True
        keep = ~seg.ended & seg.valid
        if not keep.any():
            break
        live, q, d = live[keep], seg.positions[keep, -1], seg.backlogs[keep, -1]
        start = stop

    # the squared speed changes and 1 - cos(heading change) of every member at once, up to the
    # latest end; rows past a member's end are never read, so their overflow and NaN are ignored
    ends = steps.tolist()
    ctl = pop[:, : int(steps[running].max())]
    with np.errstate(over="ignore", invalid="ignore"):
        dv = ctl[:, 1:, 0] - ctl[:, :-1, 0]
        dv *= dv
        turn = np.cos(ctl[:, 1:, 1] - ctl[:, :-1, 1])
        np.subtract(1.0, turn, out=turn)
    for i in running:
        m = ends[i]
        if failed[i]:
            fitness[i] = _fitness(pop[i], scn, cfg)
            continue
        # a row's slice is contiguous: add.reduce sums it pairwise, as smoothness_penalty sums its
        # fresh arrays; a one-step member's empty slices give smoothness_penalty's 0.0
        penalty = float(np.add.reduce(dv[i, : m - 1]) + cfg.alpha * np.add.reduce(turn[i, : m - 1]))
        if math.isfinite(penalty):
            fitness[i] = -(float(sum(costs[i, :m].tolist())) + cfg.beta * penalty)
        else:  # an overflow on the member's own rows: _objective warns as the scalar loop does
            fitness[i] = _objective(costs[i, :m], pop[i, :m], cfg)
    return fitness


def _tournament(rng: np.random.Generator, fitness: np.ndarray, size: int) -> int:
    idx = rng.integers(0, fitness.size, size=size)
    return int(idx[np.argmax(fitness[idx])])


def ga_optimize(
    scn: Scenario, cfg: GaConfig, *, timing_ms: Optional[list] = None
) -> tuple[np.ndarray, list]:
    """Evolve open-loop control sequences; returns the best chromosome

    (T, 2) and the best-so-far fitness per generation (generation 0
    first, hence length generations + 1). Deterministic in cfg.seed.
    When timing_ms is a list it receives the cumulative wall-clock in
    ms after each generation's evaluation, aligned with the fitness log.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    t_len = cfg.chromosome_length
    pop = np.empty((cfg.population, t_len, 2))
    pop[:, :, 0] = rng.uniform(0.0, scn.v_max, size=(cfg.population, t_len))
    pop[:, :, 1] = rng.uniform(0.0, TWO_PI, size=(cfg.population, t_len))
    fitness = _population_fitness(pop, scn, cfg)

    best_idx = int(np.argmax(fitness))
    best = pop[best_idx].copy()
    best_fit = float(fitness[best_idx])
    log = [best_fit]
    if timing_ms is not None:
        timing_ms.append(1e3 * (time.perf_counter() - t0))

    v_std, th_std = cfg.mutation_std
    for _ in range(cfg.generations):
        elites = np.argsort(-fitness, kind="stable")[: cfg.elitism]
        children = [pop[i].copy() for i in elites]
        while len(children) < cfg.population:
            pa = pop[_tournament(rng, fitness, cfg.tournament_size)]
            pb = pop[_tournament(rng, fitness, cfg.tournament_size)]
            ca, cb = pa.copy(), pb.copy()
            if t_len > 1 and rng.random() < cfg.crossover_rate:
                cut = int(rng.integers(1, t_len))
                ca[:cut], cb[:cut] = pb[:cut].copy(), pa[:cut].copy()
            for child in (ca, cb):
                child[:, 0] = np.clip(
                    child[:, 0] + rng.normal(0.0, v_std, t_len), 0.0, scn.v_max
                )
                child[:, 1] = child[:, 1] + rng.normal(0.0, th_std, t_len)
            children.append(ca)
            if len(children) < cfg.population:
                children.append(cb)
        pop = np.stack(children)
        # an elite's fitness is known: only the bred children are rolled out
        fitness = np.concatenate([fitness[elites], _population_fitness(pop[cfg.elitism:], scn, cfg)])
        gen_best = int(np.argmax(fitness))
        if float(fitness[gen_best]) > best_fit:
            best_fit = float(fitness[gen_best])
            best = pop[gen_best].copy()
        log.append(best_fit)
        if timing_ms is not None:
            timing_ms.append(1e3 * (time.perf_counter() - t0))

    return best, log


# ---------------------------------------------------------------------------
# mission evaluation
# ---------------------------------------------------------------------------


@dataclass
class MissionMetrics:
    """Per-trial summary used by the sweep harness; fields are in the

    column order of metrics.csv.
    """

    mean_completion_steps: float
    mission_steps: int
    avg_rate: float
    completed: bool
    completion_steps: list


def mission_metrics(traj: TrajectoryRecord, scn: Scenario, t_max: int) -> MissionMetrics:
    """Summarize a rollout. Users not individually drained by mission end

    get the termination step (residual below the stop threshold); in an
    incomplete mission unfinished users take the t_max sentinel. The
    average rate is taken over active users at pre-step positions,
    skipping slots where nobody is active.
    """
    completed = traj.terminated_step is not None
    steps_per_user = []
    for cs in traj.completion_step:
        if cs is None:
            cs = traj.terminated_step if completed else t_max
        steps_per_user.append(int(cs))
    mission_steps = max(steps_per_user) if completed else t_max

    t_len = traj.steps
    active = traj.backlogs[:t_len] > 0.0
    step_rates = rates(traj.positions[:t_len], scn)
    # backlogs only fall, so the active set changes at most K times; the
    # per-step means are taken over one run of equal active sets at a time.
    # compress keeps the rows C-contiguous, so each row sums in the order
    # of a one-step mean.
    changes = np.flatnonzero(np.any(active[1:] != active[:-1], axis=1)) + 1
    edges = [0, *changes.tolist(), t_len]
    step_means = [
        np.mean(np.compress(active[lo], step_rates[lo:hi], axis=1), axis=1)
        for lo, hi in zip(edges, edges[1:])
        if hi > lo and np.any(active[lo])
    ]
    avg_rate = float(np.mean(np.concatenate(step_means))) if step_means else 0.0

    return MissionMetrics(
        mean_completion_steps=float(np.mean(steps_per_user)),
        mission_steps=int(mission_steps),
        avg_rate=avg_rate,
        completed=bool(completed),
        completion_steps=steps_per_user,
    )


def evaluate_policy(policy, scn: Scenario, t_max: int, stop_eps: float) -> MissionMetrics:
    """Roll out any (t, state) -> Control source and summarize it."""
    traj = rollout(policy, scn, t_max, stop_eps)
    return mission_metrics(traj, scn, t_max)
