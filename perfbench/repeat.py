#!/usr/bin/env python3
"""Repeat the benchmark and report each metric's median, quartiles and spread.

Run from the root of a checkout:

    python3 perfbench/repeat.py --runs 10                 # this checkout
    python3 perfbench/repeat.py --runs 10 --other ../base # alternate two

Each workload of BENCHMARK.json runs --runs times with seeds --seed-base,
--seed-base + 1, ...; with --other, every seed runs on both checkouts,
alternating which goes first. The spread of a metric is
(q3 - q1) / median, quartiles as statistics.quantiles(values, n=4) gives
them. A spread above a third of the metric's bound is marked WIDE; with two
checkouts, a median worse than the first checkout's by more than the bound
is marked WORSE. This is how the bounds in BENCHMARK.json are set and
checked. To check a change on a seed nobody tuned against, pick a fresh
--seed-base.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(root, spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed in {root}: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"incorrect result in {root}: {' '.join(cmd)}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seconds", type=int,
                        help="override run_seconds of BENCHMARK.json")
    parser.add_argument("--other", help="root of a second checkout")
    parser.add_argument("--json", help="write every raw value here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    roots = [ROOT] + ([os.path.abspath(args.other)] if args.other else [])

    # Workloads (and checkouts) take turns, so a slow spell of the machine
    # falls on all of them alike.
    raw = {w: [{} for _ in roots] for w in workloads}
    for i in range(args.runs):
        seed = args.seed_base + i
        order = list(range(len(roots)))
        if i % 2 == 1:
            order.reverse()
        for workload in workloads:
            for side in order:
                got = run_once(roots[side], spec, workload, seed, seconds,
                               args.trace)
                for name, value in got.items():
                    raw[workload][side].setdefault(name, []).append(value)
        print(f"run {i + 1}/{args.runs} done", file=sys.stderr)

    for workload in workloads:
        values = raw[workload]
        print(f"\n== {workload} ({args.runs} runs, {seconds} s each)")
        for m in metrics:
            name = m["name"]
            bound = m.get("bound")
            cells = []
            flags = []
            medians = []
            for side, vals in enumerate(values):
                if name not in vals:
                    cells.append("missing")
                    flags.append("MISSING")
                    continue
                med, q1, q3, spread = summarize(vals[name])
                medians.append(med)
                cells.append(f"med {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                             f"spread {spread:.3f}")
                if bound is not None and name != "setup_s" and \
                        spread > bound / 3:
                    flags.append(f"WIDE[{side}]")
            if bound is not None and len(medians) == 2 and medians[0]:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if m["better"] == "lower" else -change
                cells.append(f"change {change:+.3f}")
                if worse > bound:
                    flags.append("WORSE")
            bound_txt = f"bound {bound}" if bound is not None else ""
            line = f"{name:28s} {m['unit']:>12s} {bound_txt:10s} "
            line += " | ".join(cells)
            print(line + ("  " + " ".join(flags) if flags else ""))

    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
