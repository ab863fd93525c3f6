"""One benchmark process: import, warm up, prepare, then timed calls.

With ``--setup-only`` it stops where the first timed call would start.

Started by ``run.py`` with the BLAS thread pin already in its environment,
so the pin holds before numpy is first imported.  Prints one JSON object on
its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import sys
import tempfile
import time

ROOT = pathlib.Path.cwd()
# Two calls even when one overruns the budget: a sweep call takes ~6 s, and
# a traced run needs one untraced and one traced call per process.
MIN_CALLS = 2


def _openblas_version(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _warm_up(np) -> None:
    """First BLAS/LAPACK calls of a process pay one-off costs; pay them here."""
    import scipy.linalg

    a = np.random.default_rng(0).standard_normal((300, 200))
    np.linalg.svd(a, full_matrices=False)
    np.linalg.cholesky(a.T @ a + np.eye(200))
    scipy.linalg.solve_banded((1, 1), np.ones((3, 50)) + [[0.0], [3.0], [0.0]], np.ones(50))


def _calls_left(elapsed: float, budget: float, last: float) -> bool:
    # Stop where the total lands nearest the budget: one more call of the
    # last call's length must end less than half a call past it.
    return elapsed + last / 2 < budget


def _call(workload, tracer, outdir, reference):
    """One timed call and its checks: (call record, layer metrics or None)."""
    # both import fbc2c, so main loads them only after timing that import
    import tracer as tracing
    import workloads

    problems, quality, wall_s, per_layer = [], None, None, None
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.installed():
                output = workload.call(outdir)
        else:
            output = workload.call(outdir)
        wall_s = time.perf_counter() - t0
        outcome = workload.check(output, outdir)
        problems, quality = outcome.problems, outcome.test_rel_err
        if (reference is not None
                and abs(quality - reference) > workloads.REFERENCE_RTOL * reference):
            problems.append(f"test_rel_err {quality!r} differs from the reference {reference!r}")
        if tracer is not None:
            per_layer, span_calls = tracing.layer_metrics(tracer.spans)
            tracer.spans.clear()
            missing = sorted(n for n in workload.spans if span_calls[n] == 0)
            if missing:
                raise SystemExit(f"{workload.name}: traced call recorded no calls of {missing}")
    except Exception as exc:  # a timed call that raises is a counted failure
        if wall_s is None:
            wall_s = time.perf_counter() - t0
        problems.append(f"{type(exc).__name__}: {exc}")
    record = {"wall_s": wall_s, "traced": tracer is not None, "test_rel_err": quality,
              "problems": problems}
    return record, per_layer


def _timed_calls(workload, tracer, budget, reference):
    """Timed calls until the budget is spent, at least MIN_CALLS.

    With a tracer, every second call is traced.
    """
    calls, layers = [], []
    started = time.perf_counter()
    while True:
        traced = tracer if tracer is not None and len(calls) % 2 == 1 else None
        outdir = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench_tmp", dir=ROOT))
        try:
            record, per_layer = _call(workload, traced, outdir, reference)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        calls.append(record)
        if per_layer is not None:
            layers.append(per_layer)
        for problem in record["problems"]:
            print(f"{workload.name} call {len(calls)}: {problem}", file=sys.stderr)
        elapsed = time.perf_counter() - started
        if len(calls) >= MIN_CALLS and not _calls_left(elapsed, budget, record["wall_s"]):
            return calls, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import fbc2c
    import numpy as np
    import scipy
    import_s = time.perf_counter() - t0
    if not pathlib.Path(fbc2c.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"fbc2c imported from {fbc2c.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    _warm_up(np)
    warmup_s = time.perf_counter() - t0

    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    t0 = time.perf_counter()
    workload.prepare()
    prepare_s = time.perf_counter() - t0
    # the reference was recorded on one BLAS thread; other pins round differently
    reference = (workloads.REFERENCE[workload.name]
                 if args.seed == workloads.DEFAULT_SEED
                 and os.environ.get("OPENBLAS_NUM_THREADS") == "1" else None)

    tracer = tracing.Tracer() if args.trace and not args.setup_only else None
    first_call_at = time.monotonic()
    calls, layers = ([], []) if args.setup_only else _timed_calls(
        workload, tracer, args.budget, reference)

    print(json.dumps({
        "first_call_at": first_call_at,
        "import_s": import_s,
        "warmup_s": warmup_s,
        "prepare_s": prepare_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
        "layers": layers,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas": _openblas_version(np),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
