"""Pipeline benchmark for fbc2c: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload darcy_train --seed 0 --seconds 24 --trace 0

Each run starts fresh worker processes one after another, with the BLAS
thread count pinned in their environment before numpy loads.  Each imports
``fbc2c`` from ``src/``, warms up BLAS and prepares the workload.  The
``TIMED_PROCESSES`` then share ``--seconds`` of timed calls, at least two
each; the set-up-only processes that follow stop before their first call
and only add set-up samples.  ``--trace 1`` alternates untraced and traced calls in every
timed process: traced calls give the per-layer metrics, and the ratio of the
two kinds gives the tracing overhead.

The last stdout line is the result object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer ones, as BENCHMARK.json names them.
Every timed call's output is checked; a call that raises or fails a check
counts in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

import stats
from layers import NOTES

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
# Processes that make timed calls; each gets an equal share of --seconds.
TIMED_PROCESSES = 2
# Set-up-only processes add set-up samples, up to SETUP_SAMPLES in all, while
# they have spent less than SETUP_ONLY_S: about 0.7 s each on darcy_train
# and poisson2d_sweep, 3.4 s on darcy_transfer, whose preparation trains.
SETUP_SAMPLES = 9
SETUP_ONLY_S = 8.0
DEADLINE_S = 170.0


def _worker(root, workload, seed, budget, trace, threads, deadline, setup_only=False):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--budget", repr(budget), "--trace", str(trace)]
        + (["--setup-only"] if setup_only else []),
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker for {workload} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["first_call_at"] - spawned_at
    return result


def _metrics(kind):
    """Name -> unit of BENCHMARK.json's "end_to_end" or "per_layer" metrics."""
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def summarize(workload, procs, trace, threads):
    """The result object and the human-readable lines printed above it.

    ``procs`` holds every worker's record; set-up-only workers have no calls.
    """
    timed_procs = [p for p in procs if p["calls"]]
    calls = [c for p in timed_procs for c in p["calls"]]
    attempted = len(calls)
    failed = sum(1 for c in calls if c["problems"])
    timed = [c for c in calls if not c["traced"]]
    ok = [c for c in timed if not c["problems"]] or timed
    walls = [c["wall_s"] for c in ok]
    qualities = [c["test_rel_err"] for c in calls if c["test_rel_err"] is not None]
    env = procs[0]["env"]
    lines = [
        f"workload {workload}: {len(procs)} processes, {len(timed_procs)} of them with "
        f"{attempted} timed calls",
        f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"openblas {env['openblas']}, nproc {len(os.sched_getaffinity(0))}, "
        f"BLAS threads pinned to {threads} (OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']})",
    ]
    lines.append(f"setup_s parts, median over {len(procs)} processes: "
                 + ", ".join(f"{part} {stats.median(p[key] for p in procs):.4f} s"
                             for part, key in (("import", "import_s"), ("BLAS warm-up", "warmup_s"),
                                               ("preparation", "prepare_s"))))
    tail = stats.tail_percentile(walls)
    lines.append(f"wall_s: median {stats.median(walls):.4f} s over {len(walls)} samples; "
                 + (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                    "no percentile has 10 samples beyond it"))
    # Not a result metric: it is 0 on a healthy run, and an end-to-end
    # metric's bound is a share of its median.  The result carries its parts
    # as "failed" and "attempted".
    lines.append(f"fail_frac = {stats.fail_frac(failed, attempted):.6g} ratio  "
                 f"({failed} of {attempted} timed calls raised or failed a check)")
    values = {
        "setup_s": stats.median(p["setup_s"] for p in procs),
        "wall_s": stats.median(walls),
        "test_rel_err": stats.median(qualities) if qualities else None,
        "peak_rss_mb": stats.median(p["peak_rss_mb"] for p in timed_procs),
    }
    units = _metrics("end_to_end")
    if trace:
        traced = [c["wall_s"] for c in calls if c["traced"]]
        layers = [layer for p in timed_procs for layer in p["layers"]]
        if not layers:
            raise SystemExit(f"{workload}: no traced call completed")
        values = {name: stats.median(layer[name] for layer in layers) for name in layers[0]}
        values["setup.import_s"] = stats.median(p["import_s"] for p in procs)
        values["setup.warmup_s"] = stats.median(p["warmup_s"] for p in procs)
        values["trace.wall_ratio"] = stats.median(traced) / stats.median(walls)
        lines.append(f"traced wall_s: median {stats.median(traced):.4f} s over {len(traced)} "
                     f"samples, untraced {stats.median(walls):.4f} s, difference "
                     f"{stats.median(traced) - stats.median(walls):+.4f} s")
        units = _metrics("per_layer")
    if set(values) != set(units):
        raise SystemExit(f"{workload}: computed metrics {sorted(values)} differ from "
                         f"BENCHMARK.json's {sorted(units)}")
    for name, unit in units.items():
        value = "n/a" if values[name] is None else f"{values[name]:.6g}"
        reached = "" if values[name] != 0 else "not reached by this workload; "
        lines.append(f"{name} = {value} {unit}  ({reached}{NOTES[name]})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS threads per worker process (at most nproc)")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = pathlib.Path.cwd()
    if not (root / "src" / "fbc2c" / "__init__.py").is_file():
        print(f"no fbc2c sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if not 1 <= args.threads <= nproc:
        print(f"--threads {args.threads} must lie in [1, nproc={nproc}]", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    budget = args.seconds / TIMED_PROCESSES
    procs = [_worker(root, args.workload, args.seed, budget, args.trace, args.threads, deadline)
             for _ in range(TIMED_PROCESSES)]
    started = time.monotonic()
    while len(procs) < SETUP_SAMPLES and time.monotonic() - started < SETUP_ONLY_S:
        procs.append(_worker(root, args.workload, args.seed, 0.0, args.trace, args.threads,
                             deadline, setup_only=True))
    result, lines = summarize(args.workload, procs, args.trace, args.threads)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
