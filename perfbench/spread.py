"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload darcy_train --seeds 1-10 --seconds 15

The spread is the distance between the first and third quartile of a
metric's per-seed values, as a share of their median: the figure a bound in
BENCHMARK.json has to cover.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time

import stats

RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--json", help="also write the per-seed values and spreads here")
    args = parser.parse_args(argv)

    values, env = {}, None
    for seed in _seeds(args.seeds):
        started = time.monotonic()
        proc = subprocess.run([sys.executable, str(RUN), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", args.seconds,
                               "--trace", "0"],
                              stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}")
            return 1
        lines = proc.stdout.strip().splitlines()
        env = next((line for line in lines if line.startswith("env: ")), env)
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ran {time.monotonic() - started:.1f} s  "
              + "  ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    if len(next(iter(values.values()))) >= 2:
        for name, vals in values.items():
            med = stats.median(vals)
            spread = stats.relative_spread(vals) if med else None
            summary[name] = {"median": med, "spread": spread, "values": vals}
            print(f"{name}: median {med:.6g}, quartile spread "
                  + (f"{spread:.4f} of the median" if spread is not None else "undefined"))
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps({
            "workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
            "env": env, "metrics": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
