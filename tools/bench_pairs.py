"""Parent-versus-change benchmark pairs: run perfbench on a git revision and
on the working tree, alternately, and summarise the end-to-end metrics.

    python3 tools/bench_pairs.py --against REV --out BENCH_<pr>.json \\
        train-long:0 train-long:7 ga-long:0 sweep-default:0

Each case is WORKLOAD:SEED and runs PAIRS = 10 pairs, every run as long
as BENCHMARK.json's run_seconds. REV is extracted with `git archive` into
a temporary directory, and the working tree of the checkout this script
lives in is copied into another (snapshot): its tracked and untracked
files as they are on disk, uncommitted edits included, without ignored
files (such as perfbench/out/ and __pycache__) or deleted ones. So both
sides run from fresh trees alike. Pair i runs the parent first when i is
even and the change first when it is odd, so a slow drift of the host
loads both sides alike. The output holds every run's result line and,
per case and end-to-end metric (as listed in BENCHMARK.json), each side's
median and quartiles, the number of pairs the change won and the exact
two-sided sign-test p-value of that count over the pairs that were not
ties (sign_p: 10 wins of 10 give 0.002, 8 of 10 give 0.109). Beside the
parent's median it puts the change-side median that the newest earlier
BENCH_<n>.json in the output's directory recorded for the same case and
metric, so drift across revisions and hosts shows. It is a report, not a
gate. Standard library only.
"""
import argparse
import io
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def parse_case(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2 or not all(parts):
        raise argparse.ArgumentTypeError(f"case {text!r} is not WORKLOAD:SEED")
    try:
        seed = int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"case {text!r}: SEED must be an integer") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"case {text!r}: need SEED >= 0")
    return parts[0], seed


def extract(rev: str, into: Path) -> str:
    """Write the files of rev under into; returns the commit's full SHA."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    blob = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")
    return sha


def snapshot(into: Path, root: Path = ROOT) -> None:
    """Copy the working tree of the git checkout root under into: every file

    `git ls-files --cached --others --exclude-standard` names that is on
    disk, with its content there.
    """
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=root,
                           check=True, capture_output=True).stdout.split(b"\0")
    for name in dict.fromkeys(filter(None, names)):  # an unmerged file is listed once per stage
        src, dst = root / os.fsdecode(name), into / os.fsdecode(name)
        if not os.path.lexists(src):
            continue  # deleted in the working tree
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, dst, follow_symlinks=False)


def run_in_tree(tree: Path, script: str, *args: str) -> dict:
    """The JSON object script prints when run with args in a fresh process

    whose PYTHONPATH is tree/src. Its "package" entry names the aavtraj the
    process imported, which must be under tree/src.
    """
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, script, *args], env=env, check=True, capture_output=True, text=True)
    record = json.loads(proc.stdout)
    if not Path(record["package"]).resolve().is_relative_to((tree / "src").resolve()):
        raise RuntimeError(f"imported aavtraj from {record['package']}, not from {tree / 'src'}")
    return record


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree: its last stdout line (the result object)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["exit_code"] = proc.returncode
    if proc.returncode != 0:
        result["stderr_tail"] = proc.stderr[-2000:]
    return result


def quartiles(values: list) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def sign_test_p(wins: int, losses: int) -> float:
    """The exact two-sided sign-test p-value of wins against losses (ties

    left out): twice the probability, under a fair coin, of a split at
    least as lopsided, at most 1.
    """
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def summarize(runs: list, metrics: list) -> dict:
    """Per case "workload:seed" and metric: each side's median and quartiles,

    the change's median relative to the parent's, the pairs the change
    won (strictly better, in the metric's direction) and their sign test's
    p-value (sign_test_p against the pairs it lost). runs are records
    {"workload", "seed", "pair", "side", "result"}; metrics are
    BENCHMARK.json's end_to_end entries. A pair missing either side's value
    counts toward neither side.
    """
    cases: dict = {}
    for run in runs:
        value = run["result"].get("metrics", {})
        key = f"{run['workload']}:{run['seed']}"
        cases.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = value
    out: dict = {}
    for key, pairs in cases.items():
        out[key] = {"pairs": len(pairs)}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            both = [(p["parent"][name]["value"], p["change"][name]["value"]) for p in pairs.values()
                    if name in p.get("parent", {}) and name in p.get("change", {})]
            if not both:
                continue
            parent, change = quartiles([a for a, _ in both]), quartiles([b for _, b in both])
            wins = sum((b < a) if lower else (b > a) for a, b in both)
            losses = sum((b > a) if lower else (b < a) for a, b in both)
            out[key][name] = {
                "better": metric["better"], "parent": parent, "change": change,
                "median_rel": change["median"] / parent["median"] - 1.0 if parent["median"] else None,
                "wins": wins, "sign_p": sign_test_p(wins, losses), "complete_pairs": len(both),
            }
    return out


def bench_number(path: Path):
    """n of a file named BENCH_<n>.json, else None."""
    match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    return int(match.group(1)) if match else None


def newest_earlier(out: Path):
    """The BENCH_<n>.json beside out with the largest n below out's own (any n

    when out is not so named), or None.
    """
    own = bench_number(out)
    found = [(n, p) for p in out.parent.glob("BENCH_*.json")
             if (n := bench_number(p)) is not None and (own is None or n < own)]
    return max(found)[1] if found else None


def add_previous(summary: dict, previous: dict, name: str) -> None:
    """Give each case's metric of summary that the earlier report previous

    (named name) also holds a "previous" entry: that report's change-side
    median and this run's parent median relative to it.
    """
    for key, case in summary.items():
        for metric, entry in case.items():
            old = previous.get("summary", {}).get(key, {}).get(metric)
            if not isinstance(entry, dict) or not old:
                continue
            median = old["change"]["median"]
            entry["previous"] = {
                "file": name, "change_median": median,
                "parent_rel": entry["parent"]["median"] / median - 1.0 if median else None,
            }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--against", required=True, help="git revision of the parent side")
    p.add_argument("--out", required=True, help="JSON file to write, such as BENCH_7.json")
    p.add_argument("cases", nargs="+", help="WORKLOAD:SEED")
    args = p.parse_args(argv)
    try:
        cases = [parse_case(c) for c in args.cases]
    except argparse.ArgumentTypeError as exc:
        p.error(str(exc))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        parent_sha = extract(args.against, trees["parent"])
        snapshot(trees["change"])
        for workload, seed in cases:
            for pair in range(PAIRS):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    t0 = time.time()
                    result = run_once(trees[side], workload, seed, seconds)
                    runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side,
                                 "result": result})
                    wall = {k: v["value"] for k, v in result.get("metrics", {}).items()}
                    print(f"{workload}:{seed} pair {pair} {side}: {wall} "
                          f"correct={result.get('correct')} ({time.time() - t0:.0f} s)", flush=True)

    summary = summarize(runs, bench["end_to_end"])
    previous = newest_earlier(Path(args.out))
    if previous is not None:
        add_previous(summary, json.loads(previous.read_text()), previous.name)
    record = {
        "against": args.against, "parent_sha": parent_sha, "seconds": seconds,
        "command": "python3 tools/bench_pairs.py " + " ".join(sys.argv[1:] if argv is None else argv),
        "summary": summary, "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record["summary"], indent=1))
    return 0 if all(r["result"].get("correct") for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
