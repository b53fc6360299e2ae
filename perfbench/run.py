"""aavtraj benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload train-long --seed 0 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from its
``src/`` directory. ``--trace 0`` times the workload untraced and prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
calls, prints the per-layer metrics and the tracing overhead, and writes
the spans under ``perfbench/out/``. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
See perfbench/README.md.
"""
import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One process, one BLAS/OpenMP thread: set before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 5  # set-ups in fresh processes; setup_s reports their median
REF_SAMPLES = 6  # reference timings before each call; ref_s is their mean
# The reference's time on an uncontended host, the 2-vCPU Xeon guest of the
# README's figures (1st percentile of 435 timings: 16.3 ms). setup_s is
# given in seconds at that speed.
REF_UNCONTENDED_S = 0.016
MIN_ROUNDS = 2  # the traced run needs an untraced and a traced round


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("train-long", "ga-long", "sweep-default"))
    p.add_argument("--seed", type=int, default=0, help="workload seed, >= 0 (default 0)")
    p.add_argument("--seconds", type=float, default=36.0, help="measuring time (default 36)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "aavtraj" / "__init__.py").is_file():
        print(f"perfbench: no aavtraj package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy as np

    import aavtraj
    import tracing
    import workloads

    if not Path(aavtraj.__file__).resolve().is_relative_to(src):
        print(f"perfbench: imported aavtraj from {aavtraj.__file__}, not {src}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, str(OUT))
    wl.setup()
    if args.setup_only:
        return 0
    reference = workloads.Reference()
    reference.seconds()  # warm-up

    def ref_s() -> float:
        return statistics.fmean(reference.seconds() for _ in range(REF_SAMPLES))

    # Each set-up is scaled by the reference timed before and after it, as
    # the calls are (see relative below).
    setup_times, setup_refs = [], [ref_s()]
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
                        "--setup-only"], check=True, timeout=60, stdout=subprocess.DEVNULL)
        setup_times.append(time.perf_counter() - t0)
        setup_refs.append(ref_s())
    setup_s = REF_UNCONTENDED_S * statistics.median(
        t / statistics.fmean(pair) for t, pair in zip(setup_times, zip(setup_refs, setup_refs[1:])))

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    ops, errors, rounds, traced_rounds, attempted, failed = [], [], 0, 0, 0, 0
    start, longest = time.perf_counter(), 0.0
    try:
        while True:
            traced = bool(args.trace) and rounds % 2 == 1
            t_round = time.perf_counter()
            for i in range(wl.INSTANCES):
                ref = ref_s()
                attempted += 1
                tracer.active = traced
                try:
                    res = wl.operation(i, tracer)
                except Exception:  # a failed call is counted and the run goes on
                    failed += 1
                    traceback.print_exc()
                    continue
                finally:
                    tracer.active = False
                errors += [f"instance {i}, round {rounds}: {e}" for e in wl.check(i, res)]
                ops.append({"instance": i, "traced": traced, "wall_s": res["wall_s"], "ref_s": ref,
                            **wl.quality(res)})
            rounds += 1
            traced_rounds += traced
            longest = max(longest, time.perf_counter() - t_round)
            if rounds >= MIN_ROUNDS and time.perf_counter() - start + longest > args.seconds:
                break
    finally:
        tracer.uninstall()

    untraced = [o for o in ops if not o["traced"]]
    traced_ops = [o for o in ops if o["traced"]]
    for sel in (untraced, traced_ops) if args.trace else (untraced,):
        if {o["instance"] for o in sel} != set(range(wl.INSTANCES)):
            print("perfbench: an instance has no completed call", file=sys.stderr)
            return 1

    def per_instance(sel, key, pick):
        return statistics.fmean(pick(o[key] for o in sel if o["instance"] == i)
                                for i in range(wl.INSTANCES))

    def relative(sel) -> float:
        # Other tenants of a shared host slow this one by up to 2x, in
        # stretches from milliseconds to minutes; some runs see no
        # uncontended stretch at all. The reference computation, timed
        # before every call, is slowed by the same factor, so the calls' time
        # in units of it holds steady where seconds do not (README).
        return statistics.fmean(
            sum(o["wall_s"] for o in sel if o["instance"] == i)
            / sum(o["ref_s"] for o in sel if o["instance"] == i) for i in range(wl.INSTANCES))

    quality = {k: per_instance(untraced, k, next)
               for k in ops[0] if k not in ("instance", "traced", "wall_s", "ref_s")}

    wall_rel = relative(untraced)
    if args.trace:
        layer = tracer.layer_metrics(rounds=traced_rounds)
        overhead = 100.0 * (relative(traced_ops) / wall_rel - 1.0)
        layer["trace.overhead_pct"] = (overhead, "%")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {
            "wall_rel": {"value": wall_rel, "unit": "ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "env": environment(np), "setup_times_s": setup_times, "setup_refs_s": setup_refs,
              "quality": quality, "operations": ops, "check_errors": errors, "result": result}
    if args.trace:
        tracer.write(str(stem) + "-spans.npz")
        record["spans"] = tracer.by_name()
    with open(str(stem) + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"env": record["env"], "quality": quality, "operations": ops}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
