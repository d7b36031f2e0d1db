#!/usr/bin/env python3
"""Runs workloads of the benchmark over several seeds and reports, per
metric, the median, the quartiles and the spread (interquartile distance
over the median, as statistics.quantiles(values, n=4) gives the quartiles),
next to the metric's bound from BENCHMARK.json. A spread above a third of
its bound is flagged.

Run it from the repository root:

    python3 perfbench/spread.py --workload cold-query --seeds 1-10
    python3 perfbench/spread.py --workload hot-query --workload write-mix --seeds 1-5

--trace 1 reports the per-layer metrics instead. --json FILE writes the
runs in the form of perfbench/BASELINE.json: per workload the seeds, the
workload's fixed shape and the host (from the run records under
.bench_build/runs), each metric's values, median, quartiles, spread and
bound, and each run's elapsed time. Workloads already in FILE and not run
now are kept, so the baseline can be rebuilt one workload at a time:

    python3 perfbench/spread.py --workload write-mix --seeds 1-10 --json perfbench/BASELINE.json
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def run_workload(bench, workload, seeds, seconds, trace):
    runs = []
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(trace)]
        t0 = time.time()
        p = subprocess.run(cmd, capture_output=True, text=True)
        elapsed = time.time() - t0
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print(f"{workload} seed {seed}: exit {p.returncode} after {elapsed:.1f}s\n{p.stderr[-2000:]}",
                  file=sys.stderr)
            sys.exit(1)
        res = json.loads(lines[-1])
        values = {k: v["value"] for k, v in res["metrics"].items()}
        runs.append({"seed": seed, "elapsed_s": elapsed, "correct": res["correct"],
                     "attempted": res["attempted"], "failed": res["failed"], "metrics": values})
        print(f"{workload} seed {seed}: {elapsed:.1f}s correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)
    return runs


def summarise(workload, runs, bounds):
    summary = {}
    print(f"== {workload}")
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in sorted(runs[0]["metrics"]):
        vals = [r["metrics"][name] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <- above a third of its bound"
        summary[name] = {"values": [round(v, 6) for v in vals], "median": round(med, 6),
                         "q1": round(q1, 6), "q3": round(q3, 6), "spread": round(spread, 4), "bound": bound}
        b = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"{name:44s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {b}{flag}")
    print(f"elapsed per run: max {max(r['elapsed_s'] for r in runs):.1f}s, "
          f"median {statistics.median(r['elapsed_s'] for r in runs):.1f}s")
    return summary


def run_record(workload, seed, trace):
    path = os.path.join(".bench_build", "runs", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = seeds_of(args.seeds)

    out = {"workloads": {}}
    if args.json and os.path.exists(args.json):
        with open(args.json) as f:
            out = json.load(f)
    out["description"] = (f"Ten-seed runs per workload, --trace {args.trace}, written by "
                          f"python3 perfbench/spread.py --workload <name> --seeds <seeds> --json <this file>.")
    out["run_seconds"] = seconds
    for workload in args.workload:
        runs = run_workload(bench, workload, seeds, seconds, args.trace)
        summary = summarise(workload, runs, bounds)
        rec = run_record(workload, seeds[0], args.trace)
        out["host"] = rec["host"]
        out["workloads"][workload] = {
            "seeds": seeds, "config": rec["config"], "metrics": summary,
            "elapsed_s": [round(r["elapsed_s"], 1) for r in runs],
            "finished": rec["finished"],
        }
    if args.json:
        with open(args.json, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
