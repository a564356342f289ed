#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

For every workload and seed it runs the command from BENCHMARK.json with
`--workload <w> --seed <s> --seconds <run_seconds> --trace <0|1>`, then
prints, per metric, the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound.

    python3 benchmark/sweep.py --seeds 0-9                # untraced, every workload
    python3 benchmark/sweep.py --workloads r3sat --seeds 0-4
    python3 benchmark/sweep.py --trace --seeds 0-2 --out traced.json
    python3 benchmark/sweep.py --bin /tmp/perfbench-parent --seeds 0-9

Run it from the repository root. `--out` writes the summary as JSON;
`--bin` runs a prebuilt perfbench executable in place of the command, so
two builds can be compared with identical settings.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(args, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--bin")
    opts = parser.parse_args()
    command = [opts.bin] if opts.bin else bench["command"]

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in opts.workloads.split(","):
        runs = [run(command, workload, s, opts.seconds, opts.trace)
                for s in seed_list(opts.seeds)]
        summary[workload] = {name: summarise([r[name] for r in runs]) for name in runs[0]}
        print(f"{workload} ({len(runs)} seeds)")
        for name, s in summary[workload].items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:.2f}" + (
                "  OVER A THIRD" if s["spread"] > bound / 3 and name != "setup_s" else "")
            print(f"  {name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.3f}{flag}")
        sys.stdout.flush()
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
