"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 --seconds 40 [--workload NAME ...]

Workloads are interleaved round-robin (seed by seed), so host drift lands on
every workload alike instead of on one block.  For each workload and metric
it prints the median and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, plus the median of the
calibration loop beside each round.  Runs use --trace 0 (the end-to-end
metrics).  Results are also written to perfbench/out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

RUN = Path(run.__file__)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    names = args.workload or list(run.WORKLOADS)
    values: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    calibration: dict[str, list[float]] = {w: [] for w in names}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for name in names:
            out = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, check=True, text=True,
            ).stdout.splitlines()
            detail, result = json.loads(out[-2])["detail"], json.loads(out[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect: {detail['failures']}", file=sys.stderr)
                return 1
            cal = statistics.median(r["calibration_s"] for r in detail["rounds"])
            calibration[name].append(cal)
            for metric, v in result["metrics"].items():
                values[name].setdefault(metric, []).append(v["value"])
            shown = " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items())
            print(f"seed {seed} {name}: {shown} calibration={cal:.4f}", flush=True)

    summary = {}
    for name in names:
        summary[name] = {}
        for metric, vals in values[name].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            summary[name][metric] = {
                "median": med,
                "spread": (q3 - q1) / med if med else 0.0,
                "values": vals,
            }
            print(f"{name:16} {metric:12} median={med:.4f} "
                  f"spread={summary[name][metric]['spread']:.4f}")
        summary[name]["calibration_s"] = calibration[name]
    run.OUT_DIR.mkdir(exist_ok=True)
    with open(run.OUT_DIR / "spread.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
