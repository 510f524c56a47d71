"""One measured process of the benchmark; started by ``run.py``.

Imports ``ascolim``, makes the seeded inputs, prints ``READY`` (the end of
set-up), and unless ``--setup-only`` runs whole rounds of the workload
until the rounds' own time reaches ``--seconds``, checking every round.  With ``--trace 1``
it installs the span tracer first.  The last line of its output is one
JSON object with the round and operation times, the checks' problems and
either the untraced figures or the per-layer ones.

    python3 perfbench/worker.py --workload pi1 --seed 1 --seconds 20 \
        --trace 0
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


class Clock:
    """Context manager that appends the wall time of each use."""

    def __init__(self):
        self.times = []

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.times.append(time.perf_counter() - self._t0)
        return False


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import importlib

    import ascolim
    from ascolim import rats

    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.abspath(ascolim.__file__).startswith(src + os.sep):
        sys.exit(f"ascolim imported from {ascolim.__file__}, not {src}")

    import workloads

    for name in workloads.PROGRAM_MODULES:
        importlib.import_module(f"ascolim.{name}")
    workload, inputs = workloads.make(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    round_walls, op_times, drained, problems, errors = [], [], [], [], []
    attempted = failed = 0
    check_s = 0.0
    peak_kb = 0
    while not round_walls or sum(round_walls) < args.seconds:
        clock = Clock()
        gc.collect()
        t0 = time.perf_counter()
        try:
            outputs = workload.run_round(inputs, clock)
        except Exception as exc:  # a failing operation ends the run
            failed += 1
            attempted += max(len(clock.times), 1)
            errors.append(f"{type(exc).__name__}: {exc}")
            break
        round_walls.append(time.perf_counter() - t0)
        # before the checks, so their memory is not counted on round one
        peak_kb = max(peak_kb,
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if tracer is not None:
            drained.append(tracer.drain())
        op_times.extend(clock.times)
        attempted += len(clock.times)
        t0 = time.perf_counter()
        problems += workload.check(inputs, outputs,
                                   first=len(round_walls) == 1)
        check_s += time.perf_counter() - t0
        if tracer is not None:
            tracer.drain()  # checks may call the program; not measured
        del outputs

    result = {
        "rounds": len(round_walls),
        "round_walls_s": round_walls,
        "check_s": check_s,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "problems": problems[:20],
        "n_problems": len(problems),
        "stamp": {
            "python": platform.python_version(),
            "scalar": getattr(rats.RAT, "__name__", str(rats.RAT)),
            "kernel": ascolim.KERNEL_BACKEND,
        },
    }
    if tracer is not None and drained:
        result["metrics"] = tracing.summarize(tracer, drained, round_walls)
        result["missing"] = tracer.missing
    elif round_walls:
        result["metrics"] = {
            "wall_s": {"value": statistics.median(round_walls), "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(op_times),
                          "unit": "ms"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
