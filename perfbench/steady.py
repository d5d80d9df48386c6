"""Steadiness: run one workload N times and report each end-to-end
metric's spread.

    python3 perfbench/steady.py --workload NAME --runs N [--seconds S]
        [--first-seed K]

Run i uses seed K+i.  For each metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread
(interquartile distance over the median) and that spread as a share
of the metric's bound in BENCHMARK.json.  The last line is the same
as JSON, with every run's values, so two sets can be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    failed = []
    for run in range(args.runs):
        seed = args.first_seed + run
        start = time.perf_counter()
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if not doc["correct"]:
            print(f"seed {seed}: outputs are not correct", file=sys.stderr)
            return 1
        failed.append(doc["failed"] / doc["attempted"])
        for name in values:
            values[name].append(doc["metrics"][name]["value"])
        print(f"seed {seed} ({time.perf_counter() - start:.1f}s): " + " ".join(
            f"{name}={doc['metrics'][name]['value']:.4g}"
            for name in values), flush=True)
    summary = {}
    for name, series in values.items():
        q1, q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / q2
        summary[name] = {"median": q2, "q1": q1, "q3": q3,
                         "spread": spread,
                         "of_bound": spread / bounds[name],
                         "values": series}
        print(f"{name:22s} median={q2:.4g} q1={q1:.4g} q3={q3:.4g} "
              f"spread={spread:.4f} ({spread / bounds[name]:.2f} "
              f"of bound {bounds[name]})")
    print(f"failed share per run: {sorted(set(failed))}")
    print(json.dumps({"workload": args.workload, "metrics": summary,
                      "failed_share": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
