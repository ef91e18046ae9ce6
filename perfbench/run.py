"""framepath benchmark: one workload per process, timed end to end, or
traced layer by layer.

    python3 perfbench/run.py --workload train-joint --seed 1 --trace 0
    python3 perfbench/run.py --seed 1     # every workload, one process each

Run from the root of a checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
Exit status: 0 when every output check passed, 1 when one failed, 2
when the framepath sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("train-joint", "train-long", "parse")
# BLAS and OpenMP size their thread pools once, when numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec()["run_seconds"],
                   help="how long the timed part runs (default: "
                   "run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak memory and import state
    are that workload's alone."""
    status = 0
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        results[workload] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return status


def environment() -> dict:
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "framepath" / "__init__.py").is_file():
        print(f"error: no framepath package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import tracer as tracing
    import workloads

    declared = spec()["per_layer" if args.trace else "end_to_end"]
    tracer = tracing.Tracer() if args.trace else None
    outcome = workloads.run(args.workload, args.seed, args.seconds, tracer,
                            OUT)
    metrics = dict(outcome.metrics)
    if tracer is not None:
        metrics.update(tracing.layer_metrics(tracer))
        tracer.write(str(OUT / f"spans-{args.workload}-{args.seed}.jsonl"),
                     {"workload": args.workload, "seed": args.seed,
                      **environment()})

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print(f"env {json.dumps(environment())}")
    units = {m["name"]: m["unit"] for m in declared}
    for name, value in metrics.items():
        print(f"  {name:38s} {value:14.6f} {units.get(name, '?')}")
    for key, value in outcome.info.items():
        print(f"  info {key} = {value}")
    for word, counts in [("failed", outcome.failures),
                         ("rejected", outcome.rejections)]:
        print(f"  {word} {sum(counts.values())} of {outcome.attempted} "
              "attempted" + "".join(f"; {k} x{n} (first: "
                                    f"{outcome.examples[k]})"
                                    for k, n in counts.items()))
    for problem in outcome.problems[:20]:
        print(f"  CHECK FAILED: {problem}")

    if set(metrics) != set(units):
        outcome.problems.append(
            f"metrics {sorted(set(metrics) ^ set(units))} do not match "
            "BENCHMARK.json")
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
