#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload once per seed and prints, for every end-to-end metric,
the median, the quartiles, and the interquartile spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json. Also prints the failed
share of each run, which must be identical across runs. Run from the
repository root:

    python3 perfbench/steady.py [--workloads race-wide,fixed-fig1]
        [--seeds 1,2,3,4,5] [--sets 2]

Each spread is marked "ok" under a third of its bound (the target),
"within" up to the bound (the most a spread may reach), and "WIDE" beyond
it. setup_s is the exception: its spread is printed but not judged,
because set-up time is judged by how far its median moves between two
sets of runs, not by its spread. With --sets 2 the seeds run twice, and
every metric's second median, setup_s included, must not be worse than
the first by more than the bound.

On race-wide each seed gives another database, so the spread over seeds
mixes input variation with run-to-run noise. Repeating one seed
(--seeds 3,3,3,3,3) measures the run-to-run noise alone.

Exits 1 if a run is incorrect, the failed shares differ, a judged spread
is not under a third of its bound, or a median moved by more than its
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(wl, runs, metrics):
    """Prints the spread table of one set; returns (steady, medians)."""
    steady = True
    shares = {(r["failed"], r["attempted"]) for r in runs}
    if len({f / a for f, a in shares}) != 1:
        steady = False
    print(f"{wl}: failed/attempted across runs: {sorted(shares)}")
    print(f"{'metric':16} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
    medians = {}
    for m in metrics:
        name, bound = m["name"], m["bound"]
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        medians[name] = med
        spread = (q3 - q1) / med
        if name == "setup_s":
            verdict = "not judged"
        elif spread < bound / 3:
            verdict = "ok"
        else:
            verdict = "within" if spread <= bound else "WIDE"
            steady = False
        print(f"{name:16} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:8.2%} {bound:6.2f} {verdict}")
    return steady, medians


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    metrics = bench["end_to_end"]
    seeds = [int(s) for s in args.seeds.split(",")]
    steady = True
    for wl in args.workloads.split(","):
        first = None
        for s in range(args.sets):
            runs = []
            for seed in seeds:
                r = run(wl, seed, args.seconds)
                if not r["correct"]:
                    steady = False
                    print(f"{wl} seed {seed}: correct is false")
                runs.append(r)
                print(f"{wl} set {s + 1} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in sorted(r["metrics"].items())), flush=True)
            ok, medians = summarize(f"{wl} set {s + 1}", runs, metrics)
            steady = steady and ok
            if first is None:
                first = medians
                continue
            for m in metrics:
                name, bound = m["name"], m["bound"]
                a, b = first[name], medians[name]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                verdict = "ok" if worse <= bound else "MOVED"
                if worse > bound:
                    steady = False
                print(f"{wl} set {s + 1} vs set 1: {name:16} {a:10.4g} -> {b:10.4g} "
                      f"worse by {worse:7.2%} (bound {bound:.2f}) {verdict}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
