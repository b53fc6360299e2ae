"""The pairs report of tools/bench_pairs.py, on canned run records, and its

snapshot of a working tree, on a small git repository.
"""
import argparse
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_rel", "better": "lower"}, {"name": "score", "better": "higher"}]


def run(pair, side, wall=None, score=None, workload="train-long", seed=0):
    metrics = {}
    if wall is not None:
        metrics["wall_rel"] = {"value": wall, "unit": "ref"}
    if score is not None:
        metrics["score"] = {"value": score, "unit": "pts"}
    return {"workload": workload, "seed": seed, "pair": pair, "side": side,
            "result": {"correct": True, "metrics": metrics}}


def test_medians_quartiles_and_wins():
    parent = [8.0, 9.0, 10.0, 11.0, 12.0]
    change = [5.0, 6.0, 7.0, 12.5, 8.0]
    runs = [run(i, "parent", p) for i, p in enumerate(parent)]
    runs += [run(i, "change", c) for i, c in enumerate(change)]
    got = bench_pairs.summarize(runs, METRICS)["train-long:0"]
    assert got["pairs"] == 5
    wall = got["wall_rel"]
    # inclusive quartiles of five sorted values are the 2nd, 3rd and 4th
    assert wall["parent"] == {"median": 10.0, "q1": 9.0, "q3": 11.0}
    assert wall["change"] == {"median": 7.0, "q1": 6.0, "q3": 8.0}
    assert wall["median_rel"] == pytest.approx(-0.3)
    assert wall["wins"] == 4 and wall["complete_pairs"] == 5
    assert "score" not in got  # no run reported it


def test_higher_is_better_ties_and_cases_kept_apart():
    runs = [run(0, "parent", score=3.0), run(0, "change", score=4.0),
            run(1, "change", score=2.0), run(1, "parent", score=2.0),
            run(0, "parent", 1.0, seed=7), run(0, "change", 2.0, seed=7)]
    got = bench_pairs.summarize(runs, METRICS)
    assert set(got) == {"train-long:0", "train-long:7"}
    score = got["train-long:0"]["score"]
    assert score["wins"] == 1  # a tie is not a win
    assert score["parent"]["median"] == 2.5 and score["change"]["median"] == 3.0
    one = got["train-long:7"]["wall_rel"]
    assert one["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert one["wins"] == 0 and one["median_rel"] == pytest.approx(1.0)


def test_a_pair_missing_a_side_counts_for_neither():
    runs = [run(0, "parent", 10.0), run(0, "change", 5.0), run(1, "parent", 10.0),
            {"workload": "train-long", "seed": 0, "pair": 1, "side": "change",
             "result": {"correct": False, "metrics": {}}}]
    wall = bench_pairs.summarize(runs, METRICS)["train-long:0"]["wall_rel"]
    assert wall["complete_pairs"] == 1 and wall["wins"] == 1
    assert wall["parent"]["median"] == 10.0


@pytest.mark.parametrize("wins, losses, p", [(10, 0, 0.002), (0, 10, 0.002), (8, 2, 0.109), (3, 7, 0.344),
                                             (5, 5, 1.0), (0, 0, 1.0)])
def test_sign_test_p(wins, losses, p):
    assert round(bench_pairs.sign_test_p(wins, losses), 3) == p


def test_sign_p_leaves_ties_out():
    parent, change = [10.0] * 10, [9.0] * 8 + [10.0, 11.0]  # 8 wins, a tie and a loss
    runs = [run(i, "parent", a) for i, a in enumerate(parent)] + [run(i, "change", b) for i, b in enumerate(change)]
    wall = bench_pairs.summarize(runs, METRICS)["train-long:0"]["wall_rel"]
    assert wall["wins"] == 8 and wall["complete_pairs"] == 10
    assert wall["sign_p"] == 2 * (1 + 9) / 2**9  # 8 of 9: twice P(at most 1 loss in 9 fair tosses)


@pytest.mark.parametrize("text, want", [("train-long:0", ("train-long", 0)), ("ga-long:7", ("ga-long", 7))])
def test_parse_case(text, want):
    assert bench_pairs.parse_case(text) == want


@pytest.mark.parametrize("text", ["train-long", "train-long:x", "train-long:0:10", ":0", "a:-1", "a:"])
def test_parse_case_rejects(text):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.parse_case(text)


def write_bench(path, case, change_median):
    summary = {case: {"pairs": 10, "wall_rel": {"change": {"median": change_median}}}}
    path.write_text(json.dumps({"summary": summary}))


def test_newest_earlier_report_is_the_largest_lower_number(tmp_path):
    for n in (2, 7, 10, 11):
        write_bench(tmp_path / f"BENCH_{n}.json", "train-long:0", float(n))
    (tmp_path / "BENCH_x.json").write_text("{}")
    assert bench_pairs.newest_earlier(tmp_path / "BENCH_10.json") == tmp_path / "BENCH_7.json"
    assert bench_pairs.newest_earlier(tmp_path / "BENCH_3.json") == tmp_path / "BENCH_2.json"
    assert bench_pairs.newest_earlier(tmp_path / "BENCH_2.json") is None
    assert bench_pairs.newest_earlier(tmp_path / "pairs.json") == tmp_path / "BENCH_11.json"
    assert bench_pairs.newest_earlier(tmp_path / "sub" / "BENCH_12.json") is None


def test_previous_change_median_sits_beside_the_parent_median(tmp_path):
    write_bench(tmp_path / "BENCH_7.json", "train-long:0", 8.0)
    runs = [run(0, "parent", 10.0, score=1.0), run(0, "change", 5.0, score=2.0),
            run(0, "parent", 9.0, seed=7), run(0, "change", 9.5, seed=7)]
    summary = bench_pairs.summarize(runs, METRICS)
    previous = bench_pairs.newest_earlier(tmp_path / "BENCH_8.json")
    bench_pairs.add_previous(summary, json.loads(previous.read_text()), previous.name)
    wall = summary["train-long:0"]["wall_rel"]
    assert wall["previous"] == {"file": "BENCH_7.json", "change_median": 8.0, "parent_rel": pytest.approx(0.25)}
    # a case or metric the earlier report lacks gets no entry
    assert "previous" not in summary["train-long:0"]["score"]
    assert "previous" not in summary["train-long:7"]["wall_rel"]


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com", *args], cwd=repo,
                   check=True, capture_output=True)


def test_snapshot_copies_the_working_tree_without_ignored_or_deleted_files(tmp_path):
    repo, into = tmp_path / "repo", tmp_path / "snap"
    (repo / "src").mkdir(parents=True)
    (repo / ".gitignore").write_text("out/\n__pycache__/\n")
    (repo / "src" / "edited.py").write_text("x = 1\n")
    (repo / "src" / "deleted.py").write_text("y = 2\n")
    (repo / "kept.txt").write_text("same\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "base")
    (repo / "src" / "edited.py").write_text("x = 3\n")
    (repo / "src" / "new.py").write_text("z = 4\n")
    (repo / "src" / "deleted.py").unlink()
    for ignored in ("out/run.json", "src/__pycache__/edited.pyc"):
        (repo / ignored).parent.mkdir(exist_ok=True)
        (repo / ignored).write_text("ignored\n")
    bench_pairs.snapshot(into, repo)
    files = {p.relative_to(into).as_posix(): p.read_text() for p in into.rglob("*") if p.is_file()}
    assert files == {".gitignore": "out/\n__pycache__/\n", "kept.txt": "same\n", "src/edited.py": "x = 3\n",
                     "src/new.py": "z = 4\n"}
