#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds per workload and
reports, for every end-to-end metric, the median, the quartiles and the
interquartile spread as a share of the median, next to the metric's bound.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--sets 1]
                                [--first-seed 1] [--json FILE]

Run from the repository root. Each set runs seeds first-seed ..
first-seed + runs - 1. Runs are interleaved (run i of every set and workload
before run i + 1), so slow drifts of the host hit all of them alike. With two
or more sets it also reports how far each set's median is from the first
set's, as a share of the first. Exits non-zero if a run fails or reports an
incorrect result, or if a spread (setup_s excepted) or a median difference is
larger than the metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return result


def summarize(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": xs}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    # values[set][workload][metric] -> one value per run
    values = [{w: {} for w in workloads} for _ in range(args.sets)]
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    for i in range(args.runs):
        for s in range(args.sets):
            for w in workloads:
                result = run(w, args.first_seed + i, bench["run_seconds"])
                for name, metric in result["metrics"].items():
                    values[s][w].setdefault(name, []).append(metric["value"])
                print(f"run {i + 1}/{args.runs} set {s + 1} {w}: " + ", ".join(
                    f"{k}={v['value']:.6g}"
                    for k, v in result["metrics"].items()), file=sys.stderr)

    ok = True
    sets = []
    for s in range(args.sets):
        summary = {}
        for w in workloads:
            summary[w] = {}
            for metric in bench["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                row = summarize(values[s][w][name])
                row["bound"] = bound
                flags = []
                if name != "setup_s" and row["spread"] > bound:
                    flags.append("spread above bound")
                    ok = False
                elif name != "setup_s" and row["spread"] >= bound / 3:
                    flags.append("spread above bound/3")
                if s > 0:
                    first = sets[0][w][name]["median"]
                    worse = (first - row["median"] if metric["better"] == "higher"
                             else row["median"] - first) / first
                    row["worse_than_set_1"] = worse
                    if worse > bound:
                        flags.append("median worse than set 1 by more than bound")
                        ok = False
                summary[w][name] = row
                print(f"set {s + 1} {w:24s} {name:24s} median {row['median']:14.6g}"
                      f" q1 {row['q1']:14.6g} q3 {row['q3']:14.6g} spread "
                      f"{100 * row['spread']:6.2f}% (bound {100 * bound:.0f}%)"
                      + (f" vs set 1 {100 * row['worse_than_set_1']:+6.2f}%"
                         if s > 0 else "")
                      + "".join(f"  <-- {f}" for f in flags))
        sets.append(summary)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"started": started, "run_seconds": bench["run_seconds"],
                       "seeds": [args.first_seed,
                                 args.first_seed + args.runs - 1],
                       "sets": sets}, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
