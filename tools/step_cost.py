"""Per-step and per-phase costs of the closed-loop training iteration.

    python3 tools/step_cost.py [--against REV] [--budget SECONDS] [--rounds N]

Three figures of the aavtraj under test:
- rollout K=k: the closed-loop rollout's us per step at K = 4, 10 and 20
  on the long preset (generate_scenario(0, k=K, demand_lo=20,
  demand_hi=40), init_params of seed 0, T=500), the median over repeated
  rollouts of one controller after a first, untimed one;
- long: the medians of a T=500 training iteration's rollout, backward and
  optimizer phases and of the whole iteration, read off the TrainingLog
  rows of 5-iteration runs on the long preset at K=4 (train-long's call:
  TrainConfig(seed=0, max_iters=5, early_stop_delta=0)), in ms;
- short: the same medians over acceptance check 6's five default-preset
  K=4 missions (2-4 steps), each trained to early stop with check 6's
  seeds, in us.

Beside them it prints the calls a training iteration makes, counted
in an untimed run after the timed ones: per phase (rollout, backward,
opt) and for the whole iteration, of the long and short runs, the
low median over the iterations of the sys.setprofile "call" events (Python
frames, generators resumed included) and "c_call" events (C functions
and methods, numpy's included). Operator ufuncs (a @ b, a += b) raise
no event, so a call moved from an operator to a method (a @ b to
a.dot(b)) raises the C count while it cuts work: both counts are
reported. The counts repeat exactly, run after run; a count that
differs between rounds prints as "varies".

Each round is a fresh process with OPENBLAS_NUM_THREADS=1 that imports
the tree's src/ and spends about BUDGET seconds (default 4) on the three
figures, at least one rollout or run each. Without --against it runs the
working tree. With --against REV both sides run from fresh trees, as in
tools/bench_pairs.py: REV extracted with `git archive`, and a snapshot of
the working tree; the two sides alternate, the parent first in even
rounds. It prints each figure's median over the rounds of each side, the
change relative to the parent and the rounds the change was faster in. `--json` measures the aavtraj on the import path in this
process and prints the figures as JSON (the per-round step). Standard
library, numpy and the package only.
"""
import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KS = (4, 10, 20)
T_MAX = 500
PHASES = {"rollout_ms": "rollout", "backward_ms": "backward", "opt_ms": "opt", "ms": "iteration"}


def long_preset(k: int):
    from aavtraj import generate_scenario

    return generate_scenario(0, k=k, demand_lo=20.0, demand_hi=40.0)


def rollout_us_per_step(k: int, seconds: float) -> float:
    from aavtraj import PolicyController, init_params, rollout

    scn = long_preset(k)
    ctl = PolicyController(init_params(0, k=k, v_max=scn.v_max), scn)
    rollout(ctl, scn, T_MAX, 1e-3)  # the first tape also builds the controller's workspace
    per_step = []
    deadline = time.perf_counter() + seconds
    while not per_step or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        traj = rollout(ctl, scn, T_MAX, 1e-3)
        per_step.append((time.perf_counter() - t0) / traj.steps * 1e6)
    return statistics.median(per_step)


def phase_medians(runs: list, seconds: float, scale: float) -> dict:
    """The median of each of PHASES over the TrainingLog rows of train on

    each (scenario, config) of runs, the runs repeated in turn until
    seconds have passed, times scale.
    """
    from aavtraj import train

    rows = []
    deadline = time.perf_counter() + seconds
    while not rows or time.perf_counter() < deadline:
        for scn, cfg in runs:
            rows += train(scn, cfg)[1].rows
    return {name: statistics.median(getattr(r, name) for r in rows) * scale for name in PHASES}


def call_counts(runs: list) -> dict:
    """Per phase of PHASES (the iteration's too), the low median over the

    iterations train makes on each (scenario, config) of runs of its
    [Python, C] call counts. The phases are cut where _train_once reads
    time.perf_counter (t0 to t1 the rollout, then the backward sweep,
    then the optimizer, to t3); an iteration that does not reach t3 is
    left out.
    """
    from aavtraj import train, trainer

    code, clock = trainer._train_once.__code__, time.perf_counter
    names = [PHASES[name] for name in PHASES if name != "ms"]
    done, current, stamps, phase = [], None, 0, None

    def profile(frame, event, arg):
        nonlocal current, stamps, phase
        if event == "call" and frame.f_code is code:
            stamps, phase = 0, None  # a new run (or retry) starts
        elif event == "c_call" and arg is clock and frame.f_code is code:
            stamp, stamps = stamps % 4, stamps + 1
            if stamp == 0:
                current = {name: [0, 0] for name in names}
            elif stamp == 3:
                done.append(current)
            phase = names[stamp] if stamp < 3 else None
        elif phase is not None and event in ("call", "c_call"):
            current[phase][event == "c_call"] += 1

    sys.setprofile(profile)
    try:
        for scn, cfg in runs:
            train(scn, cfg)
    finally:
        sys.setprofile(None)
    for it in done:
        it["iteration"] = [sum(it[name][i] for name in names) for i in (0, 1)]
    return {name: [statistics.median_low(it[name][i] for it in done) for i in (0, 1)] for name in PHASES.values()}


def measure(budget: float) -> dict:
    """The figures of the aavtraj on the import path, in this process."""
    import aavtraj
    from aavtraj import TrainConfig, derive_seed, generate_scenario

    share = budget / (len(KS) + 2)
    long_runs = [(long_preset(4), TrainConfig(seed=0, max_iters=5, early_stop_delta=0.0))]
    check6 = [(generate_scenario(derive_seed(0, "scenario", "K", 4, t), k=4),
               TrainConfig(seed=derive_seed(0, "l4v", "K", 4, t))) for t in range(5)]
    figures = {f"rollout K={k} us/step": rollout_us_per_step(k, share) for k in KS}
    figures.update({f"long {PHASES[name]} ms": value for name, value in phase_medians(long_runs, share, 1.0).items()})
    figures.update({f"short {PHASES[name]} us": value for name, value in phase_medians(check6, share, 1e3).items()})
    counts = {f"{run} {phase} calls": value for run, runs in (("long", long_runs), ("short", check6))
              for phase, value in call_counts(runs).items()}
    return {"package": aavtraj.__file__, "figures": figures, "counts": counts}


def report(sides: dict) -> list:
    """One line per figure: each side's median over its rounds (and, with

    two sides, the change relative to the parent and its faster rounds);
    then a line per call count: each side's Python and C counts, the same
    in every round or "varies" (and, with two sides, the change in each).
    """
    names = list(next(iter(sides.values()))[0]["figures"])
    lines = []
    for name in names:
        cells = [f"{name:<26}"]
        medians = {}
        for side, rounds in sides.items():
            medians[side] = statistics.median(r["figures"][name] for r in rounds)
            cells.append(f"{side} {medians[side]:9.3f}")
        if "parent" in sides:
            wins = sum(c["figures"][name] < p["figures"][name] for p, c in zip(sides["parent"], sides["change"]))
            rel = medians["change"] / medians["parent"] - 1.0
            cells.append(f"{rel:+7.1%}  faster in {wins}/{len(sides['change'])}")
        lines.append("  ".join(cells))
    lines.append('calls per iteration, low median over iterations: Python frames ("call") and C functions '
                 '("c_call"); operator ufuncs (a @ b, a += b) raise no event')
    for name in next(iter(sides.values()))[0]["counts"]:
        cells, counts = [f"{name:<26}"], {}
        for side, rounds in sides.items():
            seen = {tuple(r["counts"][name]) for r in rounds}
            counts[side] = seen.pop() if len(seen) == 1 else None
            cells.append(f"{side} " + ("{:7g} py {:7g} c".format(*counts[side]) if counts[side] else "varies"))
        if "parent" in sides and counts["parent"] and counts["change"]:
            cells.append("{:+g} py {:+g} c".format(*(c - p for p, c in zip(counts["parent"], counts["change"]))))
        lines.append("  ".join(cells))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--against", help="git revision to compare the working tree with")
    p.add_argument("--budget", type=float, default=4.0, help="seconds of measurement per round")
    p.add_argument("--rounds", type=int, default=5, help="fresh processes per side")
    p.add_argument("--json", action="store_true", help="measure in this process and print JSON")
    args = p.parse_args(argv)
    if args.budget <= 0.0 or args.rounds < 1:
        p.error("need --budget > 0 and --rounds >= 1")
    if args.json:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before measure first imports numpy
        print(json.dumps(measure(args.budget)))
        return 0

    from bench_pairs import extract, run_in_tree, snapshot

    with tempfile.TemporaryDirectory(prefix="step-cost-") as tmp:
        trees = {"change": ROOT}
        title = f"step_cost: the working tree, {args.rounds} rounds of {args.budget:g} s"
        if args.against:
            trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
            sha = extract(args.against, trees["parent"])
            snapshot(trees["change"])
            title += f", against {args.against} ({sha[:12]})"
        print(title, flush=True)
        sides = {side: [] for side in trees}
        for i in range(args.rounds):
            for side in trees if i % 2 == 0 else reversed(list(trees)):
                record = run_in_tree(trees[side], __file__, "--json", "--budget", str(args.budget))
                sides[side].append(record)
    print("\n".join(report(sides)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
