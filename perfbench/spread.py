"""Run-to-run spread of the end-to-end metrics, raw and calibrated.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload paper16 --seeds 1 2 3 4 5

Runs ``run.py`` once per seed, one after the other, and prints for each
metric the median and the interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), for the calibrated figures the
benchmark reports and for the raw wall-clock figures beside them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q = quantiles(values, n=4)
    return (q[2] - q[0]) / median(values)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    raw = next(json.loads(line[4:]) for line in lines
               if line.startswith("raw:"))
    return {"seed": seed, "raw": raw, "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    runs = []
    for seed in args.seeds:
        run = run_once(args.workload, seed, args.seconds)
        result = run["result"]
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        runs.append(run)
    names = list(runs[0]["result"]["metrics"])
    print(f"{'metric':22s} {'median':>12s} {'spread':>8s} {'raw spread':>10s}")
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        raw = [r["raw"][name] for r in runs if name in r["raw"]]
        raw_spread = f"{spread(raw):10.4f}" if len(raw) > 1 else " " * 10
        print(f"{name:22s} {median(values):12.6g} {spread(values):8.4f} "
              f"{raw_spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
