"""tools/step_cost.py, run end to end on the working tree with a tiny budget,

and its call counts, in this process.
"""
import importlib.util
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from aavtraj import TrainConfig, generate_scenario

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "step_cost.py"
_spec = importlib.util.spec_from_file_location("step_cost", _TOOL)
step_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_cost)

FIGURES = ["rollout K=4 us/step", "rollout K=10 us/step", "rollout K=20 us/step",
           "long rollout ms", "long backward ms", "long opt ms", "long iteration ms",
           "short rollout us", "short backward us", "short opt us", "short iteration us"]
COUNTS = [f"{run} {phase} calls" for run in ("long", "short") for phase in ("rollout", "backward", "opt", "iteration")]


def test_prints_every_figure_of_the_working_tree():
    proc = subprocess.run([sys.executable, str(_TOOL), "--budget", "0.01", "--rounds", "1"],
                          capture_output=True, text=True, check=True, timeout=300)
    title, *lines = proc.stdout.strip().splitlines()
    assert title == "step_cost: the working tree, 1 rounds of 0.01 s"
    figures, (note, *counts) = lines[:len(FIGURES)], lines[len(FIGURES):]
    assert [line[:26].rstrip() for line in figures] == FIGURES
    for line in figures:
        side, value = line[26:].split()
        assert side == "change" and float(value) > 0.0
    assert "operator ufuncs (a @ b, a += b) raise no event" in note
    assert [line[:26].rstrip() for line in counts] == COUNTS
    for line in counts:
        side, py, py_unit, c, c_unit = line[26:].split()
        assert (side, py_unit, c_unit) == ("change", "py", "c") and int(py) > 0 and int(c) > 0


def test_call_counts_repeat_exactly():
    runs = [(generate_scenario(0, k=4, demand_lo=20.0, demand_hi=40.0),
             TrainConfig(seed=0, max_iters=3, t_max=40, early_stop_delta=0.0, hidden=(8, 8))),
            (generate_scenario(1, k=2), TrainConfig(seed=1, max_iters=20, hidden=(8,)))]
    first = step_cost.call_counts(runs)
    assert step_cost.call_counts(runs) == first
    assert list(first) == ["rollout", "backward", "opt", "iteration"]
    assert all(py > 0 and c > 0 for py, c in first.values())


def test_a_rollout_step_runs_no_python_frame():
    # 40 steps of the float loop: the frames counted are the rollout's own, not one per step
    runs = [(generate_scenario(0, k=4, demand_lo=20.0, demand_hi=40.0),
             TrainConfig(seed=0, max_iters=3, t_max=40, early_stop_delta=0.0, hidden=(8, 8)))]
    runs_long = [(scn, replace(cfg, t_max=80)) for scn, cfg in runs]
    assert step_cost.call_counts(runs)["rollout"][0] == step_cost.call_counts(runs_long)["rollout"][0]


def test_rejects_an_empty_budget():
    proc = subprocess.run([sys.executable, str(_TOOL), "--budget", "0"], capture_output=True, text=True)
    assert proc.returncode == 2 and "need --budget > 0" in proc.stderr
