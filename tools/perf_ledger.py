#!/usr/bin/env python3
"""Appends repeated benchmark runs to the performance ledger.

Runs the repository benchmark (perfbench/run.py) --runs times per workload
in each source tree given, and appends one JSON line per tree and workload
to PERF_LEDGER.jsonl at the root of this repository:

    python3 tools/perf_ledger.py [--runs N] [--seconds S] [--trace 0|1]
        [--seed N] [--workload NAME]... [--label NAME]... [--ledger PATH]
        [TREE]...

TREE defaults to this repository. Each tree builds its own binaries (the
benchmark builds into TREE/.bench_build/). With two or more trees the runs
alternate, tree by tree, within each repeat, and every other repeat runs
the trees in reverse order, so slow drift of the host and any first-run
advantage hit every tree alike; run i of every tree uses seed --seed + i.
After the runs, every end-to-end metric of BENCHMARK.json is summarised
per tree (median and interquartile range), and each later tree is
compared pair by pair with the first.

A ledger line holds:

  commit      the `commit` stamp of the benchmark's conditions line: the
              git commit, or a content hash of the sources outside a git
              tree;
  label       --label for this tree (defaults to the tree's directory name);
  workload, seconds, trace, seeds;
  host        the rest of the conditions line (compiler, build type, nproc,
              PBT_THREADS, scale);
  attempted, failed
              summed over the runs;
  metrics     per metric: unit, n, median, q1, q3, iqr and the run values
              in run order.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("registry_warm", "replay_batch", "prepare_store")
MIN_RUNS = 5
# Conditions keys that describe one run, not the host.
RUN_KEYS = ("commit", "workload", "seed", "seconds", "trace")


def run_once(tree, workload, seed, seconds, trace):
    """One benchmark run: (conditions dict, result dict)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit("perf_ledger: %s failed in %s" % (workload, tree))
    lines = out.stdout.strip().splitlines()
    cond = next((json.loads(l[len("conditions "):]) for l in lines
                 if l.startswith("conditions ")), None)
    if cond is None:
        raise SystemExit("perf_ledger: no conditions line from %s" % tree)
    return cond, json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def ledger_line(label, workload, args, seeds, runs):
    cond = runs[0][0]
    metrics = {}
    for name, first in runs[0][1]["metrics"].items():
        values = [r["metrics"][name]["value"] for _, r in runs]
        metrics[name] = dict(unit=first["unit"], **summary(values))
    return {
        "commit": cond["commit"],
        "label": label,
        "workload": workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": seeds,
        "host": {k: v for k, v in cond.items() if k not in RUN_KEYS},
        "attempted": sum(r["attempted"] for _, r in runs),
        "failed": sum(r["failed"] for _, r in runs),
        "metrics": metrics,
    }


def compare(lines, end_to_end):
    """Prints each tree's end-to-end medians and, for every later tree,
    its pairwise standing against the first."""
    base = lines[0]
    for spec in end_to_end:
        name = spec["name"]
        if name not in base["metrics"]:
            continue
        lower = spec["better"] == "lower"
        b = base["metrics"][name]
        print("  %-12s %-10s median %.4g (IQR %.3g)" % (
            name, base["label"], b["median"], b["iqr"]))
        for other in lines[1:]:
            o = other["metrics"][name]
            wins = sum(1 for x, y in zip(b["values"], o["values"])
                       if (y < x if lower else y > x))
            change = (o["median"] / b["median"] - 1) * 100 \
                if b["median"] else 0.0
            print("  %-12s %-10s median %.4g (IQR %.3g)  %+.1f%%, "
                  "better in %d/%d pairs" % (
                      "", other["label"], o["median"], o["iqr"], change,
                      wins, len(o["values"])))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", default=[ROOT])
    parser.add_argument("--runs", type=int, default=MIN_RUNS)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--label", action="append")
    parser.add_argument("--ledger",
                        default=os.path.join(ROOT, "PERF_LEDGER.jsonl"))
    args = parser.parse_args()
    if args.runs < MIN_RUNS:
        parser.error("--runs must be at least %d: a ledger line reports "
                     "a median and a spread" % MIN_RUNS)
    trees = [os.path.abspath(t) for t in args.trees]
    labels = args.label or [os.path.basename(t) for t in trees]
    if len(labels) != len(trees):
        parser.error("give one --label per tree")
    with open(os.path.join(trees[0], "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]

    for workload in args.workload or WORKLOADS:
        seeds = [args.seed + i for i in range(args.runs)]
        runs = [[] for _ in trees]
        for i, seed in enumerate(seeds):
            order = range(len(trees)) if i % 2 == 0 else \
                reversed(range(len(trees)))
            for t in order:
                runs[t].append(run_once(trees[t], workload, seed,
                                        args.seconds, args.trace))
        lines = [ledger_line(labels[t], workload, args, seeds, runs[t])
                 for t in range(len(trees))]
        with open(args.ledger, "a") as f:
            for line in lines:
                f.write(json.dumps(line, sort_keys=True) + "\n")
        print(workload)
        compare(lines, end_to_end)
    return 0


if __name__ == "__main__":
    sys.exit(main())
