"""Run one workload over several seeds and report each end-to-end
metric's median, quartiles and spread (quartile distance over median)
against its bound.

    python3 perfbench/spread.py --workload parse --seeds 1-10 [--json out.json]

Runs are sequential, one process each, untraced, and measure for
BENCHMARK.json's run_seconds.  With --json the per-run results and the
summary are written to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    out = {}
    for m in declared:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, median, q3 = (statistics.quantiles(values, n=4)
                          if len(values) > 1 else values * 3)
        out[m["name"]] = {"median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median if median else None,
                          "bound": m.get("bound"), "unit": m["unit"]}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--json")
    args = p.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    declared = spec["end_to_end"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        # unscaled wall-clock figures, from the info lines
        result["wall"] = {key[len("wall_"):]: float(value)
                          for key, _, value in (
                              line.strip()[len("info "):].partition(" = ")
                              for line in lines
                              if line.strip().startswith("info wall_"))}
        runs.append(result)
        print(f"seed {seed}: exit {proc.returncode} "
              f"correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()), flush=True)
    summary = summarize(runs, declared)
    walls = [{"metrics": {k: {"value": v} for k, v in r["wall"].items()}}
             for r in runs]
    wall_declared = [m for m in declared if m["name"] in runs[0]["wall"]]
    for name, s in summarize(walls, wall_declared).items():
        summary[name]["wall_median"] = s["median"]
        summary[name]["wall_spread"] = s["spread"]
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:38s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}"
              + (f"  bound {s['bound']}" if s["bound"] is not None else "")
              + (f"  (wall: median {s['wall_median']:.6g}, spread "
                 f"{s['wall_spread']:.4f})" if "wall_spread" in s else ""))
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "runs": runs,
             "summary": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
