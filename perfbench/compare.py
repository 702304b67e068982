#!/usr/bin/env python3
"""Runs two sets of benchmark runs and compares them against BENCHMARK.json.

  compare.py pair --base DIR --head DIR --out PREFIX [--seeds 1-10]
      Two sets, every workload once per seed on each side, base and head
      alternating which runs first for each seed. Each side builds into its
      own DIR/.bench_build. Saves PREFIX-base.json and PREFIX-head.json,
      prints each side's medians and spreads (interquartile range over the
      median) against the bounds, then diffs them. Give the same DIR twice
      to check that the benchmark agrees with itself.

  compare.py diff BASE.json HEAD.json
      Per workload and end-to-end metric: both medians, the change (positive
      = worse), and a verdict. "regressed" means the head median is worse
      than the base median by more than the metric's bound; "unresolved"
      means a side's spread exceeds the bound and not every head run beats
      every base run.

The exit status is 0 only when every run passed its checks, every spread is
within its bound and nothing regressed. Tune on seeds 1-10; confirm a claim
on seeds 101-110, which no tuning saw.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result["exit"] = proc.returncode
    return result


def summarize(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def report_set(spec, results):
    ok = True
    for w in spec["workloads"]:
        runs = list(results.get(w["name"], {}).values())
        bad = [r for r in runs if r["exit"] != 0 or not r["correct"] or r["failed"]]
        print("%s: %d runs, %d failed" % (w["name"], len(runs), len(bad)))
        ok = ok and not bad
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs
                      if m["name"] in r["metrics"]]
            if not values:
                continue
            med, spread = summarize(values)
            flag = ("OVER BOUND" if spread > m["bound"] else
                    "over a third" if spread > m["bound"] / 3 else "")
            if spread > m["bound"]:
                ok = False
            print("  %-16s %14.6g %-5s spread %6.3f bound %.2f %s" % (
                m["name"], med, m["unit"], spread, m["bound"], flag))
    return ok


def diff(spec, base, head):
    regressed = False
    for w in spec["workloads"]:
        print(w["name"])
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"]
                 for r in base.get(w["name"], {}).values()
                 if m["name"] in r["metrics"]]
            h = [r["metrics"][m["name"]]["value"]
                 for r in head.get(w["name"], {}).values()
                 if m["name"] in r["metrics"]]
            if not b or not h:
                continue
            bm, bs = summarize(b)
            hm, hs = summarize(h)
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (hm - bm) / bm
            if sign > 0:
                all_better = max(h) < min(b)
            else:
                all_better = min(h) > max(b)
            if max(bs, hs) > m["bound"] and not all_better:
                verdict = "unresolved"
            elif change > m["bound"]:
                verdict = "regressed"
                regressed = True
            else:
                verdict = "ok"
            print("  %-16s base %12.6g head %12.6g change %+7.3f bound %.2f %s"
                  % (m["name"], bm, hm, change, m["bound"], verdict))
    return not regressed


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_pair = sub.add_parser("pair")
    p_pair.add_argument("--base", required=True)
    p_pair.add_argument("--head", required=True)
    p_pair.add_argument("--out", required=True)
    p_pair.add_argument("--seeds", default="1-10")
    p_diff = sub.add_parser("diff")
    p_diff.add_argument("base")
    p_diff.add_argument("head")
    args = parser.parse_args()

    spec = load_spec()
    if args.cmd == "diff":
        with open(args.base) as f, open(args.head) as g:
            return 0 if diff(spec, json.load(f), json.load(g)) else 1
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    sides = {"base": (os.path.abspath(args.base), {}),
             "head": (os.path.abspath(args.head), {})}
    for i, seed in enumerate(seeds):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for w in workloads:
            for side in order:
                root, results = sides[side]
                results.setdefault(w, {})[str(seed)] = run_once(
                    root, w, seed, spec["run_seconds"])
                print("ran %s %s seed %d" % (side, w, seed), file=sys.stderr)
    for side, (_, results) in sides.items():
        with open("%s-%s.json" % (args.out, side), "w") as f:
            json.dump(results, f, indent=1)
    ok = True
    for side, (_, results) in sides.items():
        print("== %s" % side)
        ok = report_set(spec, results) and ok
    print("== diff")
    return 0 if diff(spec, sides["base"][1], sides["head"][1]) and ok else 1


if __name__ == "__main__":
    sys.exit(main())
