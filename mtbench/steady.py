#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of the runs,
as a share of their median (statistics.quantiles(values, n=4)).

    python3 mtbench/steady.py --workload live-serve --seeds 1-5 [--trace 0|1]

Run from the repository root. Prints one line per metric with the
median, the spread and the metric's bound from BENCHMARK.json (a spread
above a third of the bound is flagged), the render digests that differ
between in-memory and reloaded renders, and the fingerprints. Each run's
full output is kept under mtbench/work/steady/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    outdir = os.path.join("mtbench", "work", "steady")
    os.makedirs(outdir, exist_ok=True)

    values = {}
    mismatch_runs = []
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        name = f"{args.workload}-{seed}-t{args.trace}"
        with open(os.path.join(outdir, name + ".out"), "w") as f:
            f.write(proc.stdout)
        with open(os.path.join(outdir, name + ".err"), "w") as f:
            f.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            sys.exit(1)
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            obj = json.loads(line)
            if "fingerprint" in obj:
                mm = obj["fingerprint"].get("render_mismatches", "-")
                if mm != "-":
                    mismatch_runs.append((seed, mm))
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        if not result["correct"]:
            print(proc.stderr, file=sys.stderr)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    print(f"\n{'metric':34} {'median':>14} {'spread':>8} {'bound':>6}")
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
        else:
            q1 = q3 = vs[0]
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(k)
        flag = ""
        if bound is not None and not spread <= bound / 3:
            flag = "  <-- above a third of the bound" if k != "setup_s" else "  (setup_s: spread not gated)"
        print(f"{k:34} {med:14.6g} {spread:8.4f} {bound if bound is not None else '-':>6}{flag}")
    if mismatch_runs:
        print("\nin-memory vs reload render mismatches (known HashMap tie-break defect):")
        for seed, mm in mismatch_runs:
            print(f"  seed {seed}: {mm}")


if __name__ == "__main__":
    main()
