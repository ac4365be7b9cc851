#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads spec_cold,packet_reply --seeds 1-10
    python3 perfbench/spread.py --seeds 1001 --repeat 10 --record held_out

For every workload and end-to-end metric it prints the median of the
runs, the quartiles (statistics.quantiles, n=4), the interquartile
distance as a share of the median next to the metric's bound from
BENCHMARK.json, and every run's value. A spread above a third of the
bound is marked. With
--record LABEL the medians, spreads and the run stamp are stored under
LABEL in perfbench/BASELINE.json, next to any other label already there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr}")
    stamp = next((l[len("stamp: "):] for l in lines if l.startswith("stamp: ")), "{}")
    return json.loads(lines[-1]), json.loads(stamp)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--repeat", type=int, default=1, help="runs per seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args()

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    seeds = parse_seeds(args.seeds) * args.repeat
    record = {"seeds": sorted(set(seeds)), "runs_per_workload": len(seeds),
              "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        failed = 0
        for seed in seeds:
            result, stamp = run_once(workload, seed, args.seconds, args.trace)
            failed += result["failed"] + (0 if result["correct"] else 1)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        record["stamp"] = {k: stamp.get(k) for k in
                           ("nproc", "compiler", "build_type", "git_sha", "vm_dispatch")}
        print(f"{workload}: {len(seeds)} runs, {failed} failed ops or incorrect runs")
        rows = {}
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
            share = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = "  <-- above bound/3" if bound and share > bound / 3 else ""
            print(f"  {m['name']:32} median {med:14.6g} {m['unit']:6} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {share:7.2%}"
                  + (f" (bound {bound:.0%})" if bound else "") + flag)
            print("    values: " + " ".join(f"{x:.6g}" for x in v))
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                               "values": v}
        record["workloads"][workload] = rows

    if args.record:
        path = os.path.join(HERE, "BASELINE.json")
        baseline = json.load(open(path)) if os.path.exists(path) else {}
        baseline[args.record] = record
        with open(path, "w") as f:
            json.dump(baseline, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
