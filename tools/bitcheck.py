"""Byte-equality of seeded outputs between a git revision and the working tree.

    python3 tools/bitcheck.py --against REV

The determinism rule of ROADMAP.md: a refactor keeps seeded rollouts,
gradients, training logs and sweep CSVs byte-equal. This script extracts
REV with `git archive` (as tools/bench_pairs.py does), computes in each
tree, in a fresh process importing that tree's src/, the SHA-256 digest
of every output below, and names every output whose digest moved or that
only one side has. It exits 1 if any did, 0 otherwise.

- rollouts of a policy and of random controls, and both reverse sweeps
  (closed loop at beta 0 and 1), on TAPES tapes of each preset with K in
  KS and up to 500 steps, a K=20 tape and a tape with a zero-demand user
  of each preset, and a long-preset tape of up to 1500 steps;
- per preset, replays of a random plan longer than their horizons, and
  one on the same scenario without the distance term (dist_weight 0,
  where stage costs are the backlog sums alone);
- step-loop tapes and their open-loop sweeps: greedy and a hover on a
  scenario of each preset for each K in KS, and hand-built scenarios
  where a backlog lands exactly on zero (with a zero-demand user and a
  user whose rate rounds to zero), on every rollout path: a hovering
  policy's float tape, a replay, and the step loop of greedy, a hover
  and a PolicyController subclass;
- training logs without their wall-clock columns, and the trained
  parameters: 5 iterations on the long preset at K=4 and K=10, a run to
  early stop on the default preset for each K in KS, and a run whose
  float tape underflows, so it trains on step-loop tapes;
- a 3-generation GA log and best plan on each preset, on GA_LONG's
  long-preset cases and on the mid preset (demands 4-8). Every member
  whose mission is not over after its first segment runs in the
  population pass from step 0. The long preset's K=3 run and GA_LONG's
  K=4 and K=10 runs take no per-member first segment; the default
  preset's run, GA_LONG's K=1 run and the mid preset's run make one per
  member first, and on the mid preset many members run past it. Each
  preset's run is repeated without the distance term;
- a K=2 sweep's detail.csv without sweep.TIMING_COLUMNS.

`--digests` prints the digests of the aavtraj on the import path as JSON
instead (the per-tree step). Standard library, numpy and the package only.
"""
import argparse
import csv
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PRESETS = {"default": (0.5, 1.0), "long": (20.0, 40.0)}
TAPES = 24
KS = (1, 3, 6, 10)
TRAIN_TIMING = ("ms", "rollout_ms", "backward_ms", "opt_ms")


def digest(value) -> str:
    """SHA-256 of an output: an array's bytes with its dtype and shape, else its repr."""
    if isinstance(value, np.ndarray):
        blob = f"{value.dtype}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    else:
        blob = repr(value).encode()
    return hashlib.sha256(blob).hexdigest()


def tape_outputs(tag: str, traj) -> dict:
    return {f"{tag}.{name}": getattr(traj, name) for name in
            ("positions", "backlogs", "controls", "active_masks", "stage_costs",
             "completion_step", "terminated_step")}


def tape_cases(tapes: int = TAPES):
    """(tag, scenario, seed, t_max) of each tape: tapes seeded tapes of each
    preset with K cycling through KS, then per preset a K=20 tape and one
    with a zero-demand user, then a long-preset tape of up to 1500 steps."""
    from dataclasses import replace

    from aavtraj import generate_scenario

    for preset, (lo, hi) in PRESETS.items():
        for i in range(tapes):
            k = KS[i % len(KS)]
            yield f"{preset}.{i}.k{k}", generate_scenario(i, k=k, demand_lo=lo, demand_hi=hi), i, 500
        yield f"{preset}.k20", generate_scenario(100, k=20, demand_lo=lo, demand_hi=hi), 100, 500
        scn = generate_scenario(101, k=4, demand_lo=lo, demand_hi=hi)
        yield (f"{preset}.zero-demand.k4", replace(scn, demands=np.where(np.arange(4) == 1, 0.0, scn.demands)),
               101, 500)
    lo, hi = PRESETS["long"]
    yield "long.t1500.k4", generate_scenario(0, k=4, demand_lo=lo, demand_hi=hi), 0, 1500


def sweep_outputs(tapes: int = TAPES) -> dict:
    """Rollouts and both sweeps' outputs on each of tape_cases(tapes)."""
    from aavtraj import (PolicyController, SequenceController, backward_closedloop, backward_openloop,
                         init_params, rollout)

    out = {}
    for tag, scn, seed, t_max in tape_cases(tapes):
        params = init_params(seed, k=scn.k)
        traj = rollout(PolicyController(params, scn), scn, t_max, 1e-3)
        out.update(tape_outputs(f"{tag}.policy", traj))
        costates, grads = backward_openloop(traj, scn)
        out[f"{tag}.open.costates"] = np.asarray(costates)
        out[f"{tag}.open.action_grads"] = grads
        for beta in (0.0, 1.0):
            bundle = backward_closedloop(traj, params, scn, beta=beta, alpha=1e-3)
            for name, value in asdict(bundle).items():
                out[f"{tag}.closed.beta{beta:g}.{name}"] = value
        rng = np.random.default_rng(seed)
        controls = np.column_stack([rng.uniform(0.0, scn.v_max, t_max), rng.uniform(-np.pi, np.pi, t_max)])
        replay = rollout(SequenceController(controls), scn, t_max, 1e-3)
        out.update(tape_outputs(f"{tag}.sequence", replay))
        costates, grads = backward_openloop(replay, scn)
        out[f"{tag}.sequence.open.costates"] = np.asarray(costates)
        out[f"{tag}.sequence.open.action_grads"] = grads
    return out


def long_plan_outputs() -> dict:
    """Per preset, the tapes of a random 700-step plan replayed over 40 and 300 steps,

    and over 300 steps without the distance term."""
    from dataclasses import replace

    from aavtraj import SequenceController, generate_scenario, rollout

    out = {}
    for preset, (lo, hi) in PRESETS.items():
        scn = generate_scenario(2, k=4, demand_lo=lo, demand_hi=hi)
        rng = np.random.default_rng(2)
        controls = np.column_stack([rng.uniform(0.0, scn.v_max, 700), rng.uniform(-np.pi, np.pi, 700)])
        for t_max in (40, 300):
            replay = rollout(SequenceController(controls), scn, t_max, 1e-3)
            out.update(tape_outputs(f"{preset}.plan700.t{t_max}", replay))
        replay = rollout(SequenceController(controls), replace(scn, dist_weight=0.0), 300, 1e-3)
        out.update(tape_outputs(f"{preset}.plan700.t300.dist0", replay))
    return out


def step_loop_cases():
    """(tag, scenario, t_max) of the step-loop tapes: per preset a scenario

    for each K in KS, then the hand-built exact-zero scenarios at unit
    physics, where a user under a hovering vehicle drains exactly 1.0 per
    slot (tau 0.5: 0.5 per slot).
    """
    from aavtraj import Scenario, generate_scenario

    for preset, (lo, hi) in PRESETS.items():
        for i, k in enumerate(KS):
            yield f"{preset}.loop{i}.k{k}", generate_scenario(200 + i, k=k, demand_lo=lo, demand_hi=hi), 500
    unit = dict(area_side=10.0, eta=1.0, sigma2=1.0, altitude=1.0, v_max=0.2, dist_weight=0.01, seed=0)
    yield ("zero.mixed.k3", Scenario(user_positions=np.array([[0.0, 0.0], [3.0, 0.0], [1e9, 0.0]]),
                                     demands=np.array([2.0, 0.0, 5.0]), **unit), 8)
    yield "zero.ends.k1", Scenario(user_positions=np.zeros((1, 2)), demands=np.array([3.0]), **unit), 8
    yield ("zero.half.k2", Scenario(user_positions=np.array([[0.0, 0.0], [0.0, 0.0]]),
                                    demands=np.array([1.5, 4.0]), tau=0.5, **unit), 12)


def step_loop_outputs() -> dict:
    """Tapes and open-loop sweeps of step_loop_cases(): greedy and a hover on

    every case, and on the exact-zero cases a hovering policy (a -inf speed
    bias), its replay and a PolicyController subclass too.
    """
    from dataclasses import replace

    from aavtraj import (ConstantController, GreedyController, PolicyController, SequenceController,
                         backward_openloop, init_params, rollout)

    class Subclass(PolicyController):
        pass

    out = {}
    for tag, scn, t_max in step_loop_cases():
        sources = {"greedy": GreedyController(scn), "hover": ConstantController(0.0, 0.0)}
        if tag.startswith("zero."):
            params = init_params(0, k=scn.k, hidden=(8,), v_max=scn.v_max)
            flat = params.flat.copy()
            flat[-2] = -np.inf
            params = replace(params, flat=flat)
            sources.update(policy=PolicyController(params, scn), sequence=SequenceController(np.zeros((t_max, 2))),
                           subclass=Subclass(params, scn))
        for name, source in sources.items():
            traj = rollout(source, scn, t_max, 1e-3)
            out.update(tape_outputs(f"{tag}.{name}", traj))
            costates, grads = backward_openloop(traj, scn)
            out[f"{tag}.{name}.open.costates"] = np.asarray(costates)
            out[f"{tag}.{name}.open.action_grads"] = grads
    return out


def training_cases():
    """(tag, scenario, TrainConfig) of the training runs: 5 iterations on the

    long preset at K=4 and K=10, then a run to early stop on the default
    preset for each K in KS, whose sweeps read the forward pass the run's
    controller recorded, and one whose rates' (d2 + H^2) * sigma2
    underflows, so every rollout falls back to the step loop and every
    sweep recomputes the pass.
    """
    from aavtraj import TrainConfig, generate_scenario

    lo, hi = PRESETS["long"]
    for k in (4, 10):
        yield ("train" if k == 4 else f"train.long.k{k}", generate_scenario(0, k=k, demand_lo=lo, demand_hi=hi),
               TrainConfig(max_iters=5, early_stop_delta=0.0, seed=0))
    lo, hi = PRESETS["default"]
    for k in KS:
        yield f"train.default.k{k}", generate_scenario(300 + k, k=k, demand_lo=lo, demand_hi=hi), TrainConfig(seed=k)
    yield ("train.underflow.k2", generate_scenario(0, k=2, altitude=1e-160, sigma2=1e-160),
           TrainConfig(max_iters=5, seed=0))


def training_outputs() -> dict:
    from aavtraj import train

    out = {}
    for tag, scn, cfg in training_cases():
        params, log = train(scn, cfg)
        out[f"{tag}.log"] = [{k: v for k, v in asdict(r).items() if k not in TRAIN_TIMING} for r in log.rows]
        out[f"{tag}.stop"] = (log.converged, log.stop_reason, log.learning_rate)
        out[f"{tag}.params"] = params.flat
    return out


# long-preset GA runs past the first segment: (tag, K, chromosome_length).
# Length 60 ends before any member's mission, so the whole population
# reaches t_max; 137 is no multiple of a chunk (20 to 60 steps), so the
# last chunk is a short one. With K = 4 and 10 no member can end in its
# first segment, so the population pass runs it too; the K = 1
# user's demand could drain within it, so each member's first segment
# stays a rollout of its own, as on the default preset.
GA_LONG = (("t60.k4", 4, 60), ("t137.k4", 4, 137), ("k1", 1, 500), ("k10", 10, 500))


def ga_outputs() -> dict:
    from dataclasses import replace

    from aavtraj import GaConfig, ga_optimize, generate_scenario

    out = {}
    for preset, (lo, hi) in PRESETS.items():
        scn = generate_scenario(1, k=3, demand_lo=lo, demand_hi=hi)
        for tag, run_scn in ((preset, scn), (f"{preset}.dist0", replace(scn, dist_weight=0.0))):
            best, log = ga_optimize(run_scn, GaConfig(generations=3, seed=0))
            out[f"ga.{tag}.log"], out[f"ga.{tag}.best"] = log, best
    lo, hi = PRESETS["long"]
    for tag, k, length in GA_LONG:
        best, log = ga_optimize(generate_scenario(0, k=k, demand_lo=lo, demand_hi=hi),
                                GaConfig(generations=3, chromosome_length=length, seed=0))
        out[f"ga.long.{tag}.log"], out[f"ga.long.{tag}.best"] = log, best
    best, log = ga_optimize(generate_scenario(0, k=4, demand_lo=4.0, demand_hi=8.0), GaConfig(generations=3, seed=0))
    out["ga.mid.k4.log"], out["ga.mid.k4.best"] = log, best
    return out


def sweep_csv_outputs() -> dict:
    from aavtraj import SweepSpec, run_sweep, sweep

    rows = run_sweep(SweepSpec(variable="K", values=[2], trials=2, root_seed=0, ga={"generations": 3}))
    with tempfile.TemporaryDirectory(prefix="bitcheck-") as tmp:
        path = os.path.join(tmp, "detail.csv")
        sweep.save_detail_csv(rows, path)
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
    keep = [j for j, name in enumerate(table[0]) if name not in sweep.TIMING_COLUMNS]
    return {"sweep.detail_csv": [[line[j] for j in keep] for line in table]}


def digests() -> dict:
    outputs = {**sweep_outputs(), **long_plan_outputs(), **step_loop_outputs(), **training_outputs(),
               **ga_outputs(), **sweep_csv_outputs()}
    return {name: digest(value) for name, value in outputs.items()}


def moved(parent: dict, change: dict) -> list:
    """Names whose digests differ or that only one side has, sorted."""
    return sorted(name for name in parent.keys() | change.keys() if parent.get(name) != change.get(name))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--against", help="git revision to compare the working tree with")
    group.add_argument("--digests", action="store_true", help="print this tree's digests as JSON")
    args = p.parse_args(argv)
    if args.digests:
        import aavtraj
        print(json.dumps({"package": aavtraj.__file__, "digests": digests()}))
        return 0

    from bench_pairs import extract, run_in_tree

    with tempfile.TemporaryDirectory(prefix="bitcheck-") as tmp:
        sha = extract(args.against, Path(tmp))
        parent = run_in_tree(Path(tmp), __file__, "--digests")["digests"]
    change = run_in_tree(ROOT, __file__, "--digests")["digests"]
    names = moved(parent, change)
    for name in names:
        print(f"moved: {name}")
    print(f"bitcheck against {args.against} ({sha[:12]}): {len(names)} of "
          f"{len(parent.keys() | change.keys())} outputs moved")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
