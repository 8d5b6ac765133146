#!/usr/bin/env python3
"""Is the benchmark steady enough to judge a change with?

Runs the command of ../BENCHMARK.json the way the driver does (one workload
per process, end-to-end metrics, `--trace 0`) and compares runs of the SAME
build with each other, against the bounds BENCHMARK.json declares:

  repeat.py --repeat 2   two runs per workload at one seed; prints the relative
                         difference of every end-to-end metric next to its bound.
  repeat.py --spread 10  ten runs per workload, each at another seed; prints the
                         interquartile range over the median (the driver's
                         acceptance test; `setup_s` is shown but not judged).

Exits 1 if any judged number exceeds its bound. Run it from anywhere; it
changes to the repository root first.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--repeat", type=int, metavar="N", help="N runs at one seed (default 2)")
    mode.add_argument("--spread", type=int, metavar="N", help="N runs at seeds SEED..SEED+N-1")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--workload", action="append", help="only this workload (may repeat)")
    ap.add_argument("-v", "--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    spread = args.spread is not None
    runs = args.spread if spread else (args.repeat or 2)
    if runs < 2 or (spread and runs < 4):
        sys.exit("need at least 2 runs to compare, 4 to take quartiles")

    excess = False
    head = "IQR/median" if spread else "rel.diff"
    print(f"{'workload':<14} {'metric':<17} {'median':>14} {head:>10} {'bound':>6}")
    for workload in workloads:
        seeds = [args.seed + i if spread else args.seed for i in range(runs)]
        results = [run_once(spec, workload, seed, seconds) for seed in seeds]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name] for r in results]
            median = statistics.median(values)
            if spread:
                q1, _, q3 = statistics.quantiles(values, n=4)
                width = (q3 - q1) / median
                judged = name != "setup_s"
            else:
                width = (max(values) - min(values)) / min(values)
                judged = True
            over = judged and width > bound
            excess |= over
            mark = "  EXCEEDS" if over else ("  (not judged)" if not judged else "")
            print(f"{workload:<14} {name:<17} {median:>14.6g} {width:>10.4f} {bound:>6}{mark}")
            if args.values:
                print(" " * 15 + " ".join(f"{v:.6g}" for v in values))
    sys.exit(1 if excess else 0)


if __name__ == "__main__":
    main()
