"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workloads sweep_raft failover --seeds 1 2 3 4 5

For every workload and end-to-end metric this prints the median of the
runs and their spread (inter-quartile distance over the median, from
``statistics.quantiles(values, n=4)``) next to the bound in
BENCHMARK.json.  Every run has tracing off.  ``--markdown`` also writes
the table of spreads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from helpers import median, spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument(
        "--markdown", default=None, help="write the spread table here"
    )
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = ["| Workload | Metric | Median | Spread | Bound |", "|---|---|---|---|---|"]
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            started = time.monotonic()
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect: {out.stdout}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            took = time.monotonic() - started
            print(f"{workload} seed {seed} ({took:.0f} s): " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ), flush=True)
        for name, series in values.items():
            bound = bounds.get(name)
            line = f"  {workload:15s} {name:40s} median {median(series):12.5g}"
            share = spread(series) if len(series) >= 2 and median(series) else 0.0
            line += f"  spread {share:.4f}"
            if bound is not None:
                line += f"  bound {bound}"
                rows.append(
                    f"| `{workload}` | `{name}` | {median(series):.6g} "
                    f"| {share:.3f} | {bound} |"
                )
            print(line, flush=True)
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
