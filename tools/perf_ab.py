#!/usr/bin/env python3
"""Interleaved A/B of perfbench: a parent revision against this working tree.

Run from anywhere inside the repository:

    tools/perf_ab.py --parent REV [--workloads fig-grid,capture-replay-timeline]
                     [--pairs 10] [--seconds S] [--seed N] [--json FILE]

Exports REV with `git archive` into a fresh temporary directory, removed
at exit, and runs each tree's own perfbench/run.py (so each side builds and
measures its own source) for every workload, `--pairs` times, alternating
which side goes first. Pass several workloads to one call to build the
parent once. The working tree, uncommitted edits included, is the change
side. Workloads, metrics, their direction and their regression bounds come
from BENCHMARK.json; `--seconds` defaults to its run_seconds.

For each workload and end-to-end metric it prints both sides' median and
quartiles, the pairs the change won (ties count for neither side) and a
verdict:

  identical     every run of both sides gave the same value
  gain          at least 10 pairs ran, the change won at least 9/10 of
                them (a pair with a failed run is not a win) and the
                medians differ, in its favour, by more than the parent's
                interquartile range
  worse         the change's median is worse than the parent's by more than
                the metric's bound
  within bound  neither, and the parent's interquartile range is within the
                bound (or every change run beats every parent run)
  unresolved    neither, and the spread is wider than the bound

A run that fails, prints no result or reports `"correct": false` leaves
its pair out of the statistics; it is listed with the last lines of its
standard error and ends the script with exit code 1. `--json FILE` also
writes every run's metrics and the summary.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STDERR_TAIL = 10  # lines of a failed run's standard error to report


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    xs = sorted(values)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def run_side(tree, workload, seed, seconds):
    """Runs one perfbench workload in `tree`.

    Returns (result, None) for a correct run and (None, why) otherwise,
    where `why` ends with the last lines of the run's standard error (the
    build's output goes there too).
    """
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    proc = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if result is not None and result.get("correct"):
        return result, None
    why = (f"exit code {proc.returncode}, " +
           (f"result {lines[-1]}" if lines else "no result"))
    tail = proc.stderr.strip().splitlines()[-STDERR_TAIL:]
    return None, "\n".join([why] + ["    " + line for line in tail])


def verdict(metric, parent, change, pairs):
    """Summary of one metric over its complete pairs; see the module
    docstring. `pairs` counts every pair run, complete or not."""
    higher = metric["better"] == "higher"
    bound = metric["bound"]
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gain = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
    wins = sum(gain(c, p) for p, c in zip(parent, change))
    losses = sum(gain(p, c) for p, c in zip(parent, change))
    spread = pq3 - pq1
    limit = abs(pmed) * bound
    worse_by = (pmed - cmed) if higher else (cmed - pmed)
    if len(set(parent) | set(change)) == 1:
        word = "identical"
    elif pairs >= 10 and wins * 10 >= 9 * pairs and -worse_by > spread:
        word = "gain"
    elif worse_by > limit:
        word = "worse"
    elif spread <= limit or (min(change) > max(parent) if higher
                             else max(change) < min(parent)):
        word = "within bound"
    else:
        word = "unresolved"
    return {"parent": {"q1": pq1, "median": pmed, "q3": pq3},
            "change": {"q1": cq1, "median": cmed, "q3": cq3},
            "ratio": cmed / pmed if pmed else None,
            "wins": wins, "losses": losses, "pairs": pairs,
            "complete": len(parent),
            "verdict": word}


def fmt(x):
    return f"{x / 1e6:.2f}M" if abs(x) >= 1e6 else f"{x:.6g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare against")
    parser.add_argument("--workloads",
                        help="comma-separated; default: BENCHMARK.json's")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="run length; default: BENCHMARK.json's")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--json", metavar="FILE")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in benchmark["workloads"]])
    seconds = (args.seconds if args.seconds is not None
               else benchmark["run_seconds"])
    metrics = benchmark["end_to_end"]

    # A fresh directory every call: git archive stamps every file with the
    # commit time, so an export over an older build would leave that build
    # looking up to date.
    with tempfile.TemporaryDirectory(prefix="perf_ab-") as temp:
        parent_tree = os.path.join(temp, "parent")
        os.makedirs(parent_tree)
        archive = subprocess.run(["git", "-C", ROOT, "archive", args.parent],
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", parent_tree], input=archive,
                       check=True)
        sides = {"parent": parent_tree, "change": ROOT}
        report = {"parent_rev": args.parent, "seed": args.seed,
                  "seconds": seconds, "workloads": {}}
        problems = []
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = (["parent", "change"] if pair % 2 == 0
                         else ["change", "parent"])
                for side in order:
                    result, why = run_side(sides[side], workload, args.seed,
                                           seconds)
                    if why is not None:
                        problems.append(f"{workload} pair {pair + 1} {side}: "
                                        f"{why}")
                    runs[side].append(result)
                print(f"{workload}: pair {pair + 1}/{args.pairs} done",
                      file=sys.stderr)
            summary = {}
            complete = [i for i in range(args.pairs)
                        if runs["parent"][i] and runs["change"][i]]
            print(f"\n{workload}: {len(complete)} of {args.pairs} pairs "
                  f"complete, seed {args.seed}, {seconds:g} s per run")
            if complete:
                print(f"{'metric':26s} {'parent median [q1, q3]':36s} "
                      f"{'change median [q1, q3]':36s} {'ratio':>7s} "
                      f"{'wins':>6s}  verdict")
            for metric in metrics:
                name = metric["name"]
                parent = [runs["parent"][i]["metrics"][name]["value"]
                          for i in complete
                          if name in runs["parent"][i]["metrics"]]
                change = [runs["change"][i]["metrics"][name]["value"]
                          for i in complete
                          if name in runs["change"][i]["metrics"]]
                if not parent or len(parent) != len(change):
                    continue
                v = verdict(metric, parent, change, args.pairs)
                v["runs"] = {"parent": parent, "change": change}
                summary[name] = v
                p, c = v["parent"], v["change"]
                ratio = f"{v['ratio']:.3f}" if v["ratio"] is not None else "-"
                print(f"{name:26s} "
                      f"{fmt(p['median']) + ' [' + fmt(p['q1']) + ', ' + fmt(p['q3']) + ']':36s} "
                      f"{fmt(c['median']) + ' [' + fmt(c['q1']) + ', ' + fmt(c['q3']) + ']':36s} "
                      f"{ratio:>7s} {str(v['wins']) + '/' + str(v['pairs']):>6s}  "
                      f"{v['verdict']}")
            report["workloads"][workload] = summary
        for problem in problems:
            print(f"failed run: {problem}", file=sys.stderr)
        if args.json:
            with open(args.json, "w") as f:
                json.dump(report, f, indent=2)
                f.write("\n")
        return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
