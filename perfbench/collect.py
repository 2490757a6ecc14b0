"""Repeat the benchmark over seeds and record medians, spreads and a trace.

For each workload, runs ``run.py --trace 0`` at seeds 1..N, takes every
end-to-end metric's median and quartile spread ((q3 - q1) / median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), then makes one
traced run for the per-layer metrics.  Usage, from the root of a checkout:

    python3 perfbench/collect.py --seeds 10 --out perfbench/baseline.json

The output file is the record that before/after comparisons quote.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment: "))
    result = json.loads(lines[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        # every end-to-end metric of the run, gated or not
        last = json.loads((Path.cwd() / ".bench_out"
                           / f"last_{workload}_trace0.json").read_text())
        result["all_metrics"] = last["metrics"]
    return result, env


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace-seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"run_seconds": seconds, "workloads": {}}
    for workload in args.workload:
        runs = []
        for seed in range(1, args.seeds + 1):
            result, env = run_once(workload, seed, seconds, 0)
            runs.append({"seed": seed, **result})
            print(workload, seed, result["correct"], result["failed"],
                  {k: round(v, 4) for k, v in result["metrics"].items()},
                  flush=True)
        summary = {name: summarize([r["metrics"][name] for r in runs])
                   for name in bounds}
        for name, s in summary.items():
            print(f"  {name}: median {s['median']:.4g}, spread "
                  f"{s['spread']:.4f} (bound {bounds[name]})", flush=True)
        traced, _ = run_once(workload, args.trace_seed, seconds, 1)
        record["environment"] = env
        record["workloads"][workload] = {
            "runs": runs, "end_to_end": summary,
            "all_correct": all(r["correct"] for r in runs),
            "trace": {"seed": args.trace_seed, "correct": traced["correct"],
                      "metrics": traced["metrics"]}}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
