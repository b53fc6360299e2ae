"""tools/step_cost.py, run end to end on the working tree with a tiny budget."""
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "step_cost.py"
FIGURES = ["rollout K=4 us/step", "rollout K=10 us/step", "rollout K=20 us/step",
           "long rollout ms", "long backward ms", "long opt ms", "long iteration ms",
           "short rollout us", "short backward us", "short opt us", "short iteration us"]


def test_prints_every_figure_of_the_working_tree():
    proc = subprocess.run([sys.executable, str(_TOOL), "--budget", "0.01", "--rounds", "1"],
                          capture_output=True, text=True, check=True, timeout=300)
    title, *lines = proc.stdout.strip().splitlines()
    assert title == "step_cost: the working tree, 1 rounds of 0.01 s"
    assert [line[:26].rstrip() for line in lines] == FIGURES
    for line in lines:
        side, value = line[26:].split()
        assert side == "change" and float(value) > 0.0


def test_rejects_an_empty_budget():
    proc = subprocess.run([sys.executable, str(_TOOL), "--budget", "0"], capture_output=True, text=True)
    assert proc.returncode == 2 and "need --budget > 0" in proc.stderr
