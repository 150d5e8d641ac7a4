#!/usr/bin/env python3
"""Run every workload N times (round-robin, a distinct seed per run) with
the command from BENCHMARK.json and print, per workload and end-to-end
metric, the median, the quartiles and the quartile spread as a share of
the median, next to the metric's bound. The "wall spread" column gives
the same spread for the wall-clock median each run also prints (its
`# wall clock:` line), which the host-speed gauge corrects.

    python3 benchmark/calibrate.py [N] [FIRST_SEED] [WORKLOAD ...]

Run from the repository root. Results go to stdout as a Markdown table
and, in full, to benchmark/work/calibration.json.
"""

import json
import os
import statistics
import subprocess
import sys
import time


def spread(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3, (q3 - q1) / statistics.median(xs)


def main():
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    first_seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    bench = json.load(open("BENCHMARK.json"))
    names = sys.argv[3:] or [w["name"] for w in bench["workloads"]]
    seconds = str(bench["run_seconds"])
    values, wall = {}, {}
    for i in range(runs):
        for name in names:
            cmd = bench["command"] + ["--workload", name, "--seed", str(first_seed + i),
                                      "--seconds", seconds, "--trace", "0"]
            start = time.monotonic()
            p = subprocess.run(cmd, capture_output=True, text=True)
            elapsed = time.monotonic() - start
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if p.returncode != 0 or not result or not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {first_seed + i} failed:\n{p.stderr[-4000:]}")
            for metric, v in result["metrics"].items():
                values.setdefault(name, {}).setdefault(metric, []).append(v["value"])
            for line in lines:
                if line.startswith("# wall clock:"):
                    for pair in line.split(":", 1)[1].split():
                        metric, v = pair.split("=")
                        wall.setdefault(name, {}).setdefault(metric, []).append(float(v))
            print(f"run {i} {name} ({elapsed:.0f} s): " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), file=sys.stderr)
    print("| workload | metric | median | q1 | q3 | spread | wall spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    summary = {}
    for name, metrics in values.items():
        for m in bench["end_to_end"]:
            xs = metrics[m["name"]]
            med = statistics.median(xs)
            q1, q3, s = spread(xs)
            ws = wall.get(name, {}).get(m["name"])
            summary.setdefault(name, {})[m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": s, "values": xs, "wall": ws}
            wall_spread = f"{100 * spread(ws)[2]:.1f}%" if ws else ""
            print(f"| {name} | {m['name']} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {100 * s:.1f}% | {wall_spread} | {100 * m['bound']:.0f}% |")
    os.makedirs("benchmark/work", exist_ok=True)
    with open("benchmark/work/calibration.json", "w") as f:
        json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
