"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads registry cli --seeds 10 --seconds 20

For every end-to-end metric of every workload it prints the median of
the runs and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the bound
BENCHMARK.json fixes.  A spread above a third of its bound means the
benchmark is not steady enough to resolve that bound.  Runs are
sequential; every result line is also appended to --log as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--log", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            if args.log:
                with open(args.log, "a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bounds[name] / 3 or name == "setup_s" else "  UNSTEADY"
            print(f"{workload:12} {name:12} median={med:.6g} spread={spread:.4f} bound={bounds[name]}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
