"""The benchmark of the pure-``Fraction`` lane: one workload per run.

    python3 perfbench/run.py --workload convexity --seed 1 --seconds 20 \
        --trace 0

Workloads: ``convexity``, ``subdivision``, ``pi1`` (see README.md).  Run
from anywhere; the program is imported from ``src/`` next to this
directory, with no build step.  Each run starts fresh interpreters:
``SETUP_SAMPLES - 1`` that only set up (import ``ascolim`` and make the
inputs) and one that sets up and then measures whole rounds of the
workload for ``--seconds``, checking every output.

Output: a stamp line (Python, scalar and kernel backends, nproc, commit,
rounds, set-up samples) and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are ``setup_s`` (median set-up of the samples), ``wall_s``
(median round), ``op_p50_ms`` (median operation) and ``peak_rss_mb`` (of
the measured process); with ``--trace 1`` they are the per-layer figures
per round.  Exits non-zero, without a result line, when the program cannot
be imported or a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5
#: a run ends within this many seconds, or is killed and fails
DEADLINE_S = 175


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


class RunFailed(Exception):
    pass


def _start(args, deadline, setup_only):
    """Start a worker; return it with its set-up time (up to ``READY``)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_env(), cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        _finish(proc, deadline)
        raise RunFailed(f"worker did not set up (exit {proc.returncode})")
    return proc, setup


def _finish(proc, deadline):
    """Read the worker's remaining output and wait for it to end."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline
                                              - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed("worker overran the run deadline")
    return out


def run(args):
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = _start(args, deadline, setup_only=True)
        _finish(proc, deadline)
        if proc.returncode:
            raise RunFailed(f"set-up worker exited {proc.returncode}")
        setups.append(setup)
    proc, setup = _start(args, deadline, setup_only=False)
    setups.append(setup)
    out = _finish(proc, deadline)
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if proc.returncode or not lines:
        raise RunFailed(f"worker exited {proc.returncode}")
    report = json.loads(lines[-1])

    metrics = report.get("metrics", {})
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups),
                               "unit": "s"}, **metrics}
    stamp = dict(report["stamp"], nproc=os.cpu_count(), commit=_commit(),
                 workload=args.workload, seed=args.seed,
                 rounds=report["rounds"],
                 round_walls_s=report["round_walls_s"],
                 check_s=report["check_s"],
                 setup_samples_s=setups,
                 errors=report["errors"], problems=report["problems"],
                 missing=report.get("missing", []))
    print(json.dumps({"stamp": stamp}))
    correct = report["n_problems"] == 0 and report["rounds"] > 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct and not report["failed"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("convexity", "subdivision", "pi1"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
