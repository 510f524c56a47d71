"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workloads convexity,subdivision,pi1 \
        --seeds 1-10 --seconds 20

For each workload and seed it runs ``run.py`` once (a fresh process each
time), keeps the raw output in ``perfbench/runs/<workload>-<trace>-<seed>
.txt`` and then prints, per workload and metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, plus the shares of failed operations.  Exits non-zero if any
run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = os.path.join(HERE, "runs")


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(workload, seeds, seconds, trace):
    """Run every seed of one workload; print the summary; count failures."""
    values, shares, bad = {}, [], 0
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", trace],
            capture_output=True, text=True)
        name = f"{workload}-{trace}-{seed}.txt"
        with open(os.path.join(RUNS, name), "w") as fh:
            fh.write(proc.stdout + proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            bad += 1
            print(f"{workload} seed {seed}: exit {proc.returncode}",
                  flush=True)
            continue
        result = json.loads(lines[-1])
        shares.append(result["failed"] / result["attempted"])
        for metric, got in result["metrics"].items():
            values.setdefault(metric, []).append(got["value"])
        if trace == "0":
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}"
                for k, v in result["metrics"].items()), flush=True)
    for metric, vals in values.items():
        if len(vals) < 2:
            continue
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else 0.0
        print(f"{workload} {metric}: median {med:.6g} q1 {q1:.6g} "
              f"q3 {q3:.6g} spread {share:.4f}")
    print(f"{workload} failed shares: {sorted(set(shares))}", flush=True)
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="convexity,subdivision,pi1")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)
    os.makedirs(RUNS, exist_ok=True)
    bad = sum(spread(w, args.seeds, args.seconds, args.trace)
              for w in args.workloads.split(","))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
