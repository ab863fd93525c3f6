"""Command-line entry points.

Subcommands: gen, encode, train, eval, diagnose, sweep.  The run config
(``-c run.json``, an ``ExperimentConfig``) is the one description of the
dataset, the bases and the encodes: ``gen`` writes the splits of its
dataset, ``encode`` uses its basis and encode of one side (the basis
``run`` builds for that side's components), ``train`` and ``sweep`` run
it.  ``encode`` records that basis as the side's spec (``basis``), its
``mode`` and its ``components``, which rebuild it bit for bit.  Exit codes:
0 success, 2 bad configuration or data (message names the field), 3
missing file, 4 numerical failure.  A config is checked as it loads, before
any data is read or generated.  Errors print one machine-parsable line to
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys

import numpy as np

from .config import load_config
from .container import read_container, write_container
from .encoder import diagnostics, encode
from .errors import ConfigurationError, DataError, DomainError, NumericalError, TrainingDiverged
from .experiment import (eval_resolutions, evaluate_on, load_run, prepare_data, run,
                         side_basis, sweep_cutoff)


def _cmd_gen(args) -> int:
    spec = load_config(args.config).dataset
    data = prepare_data(spec)
    arrays = {"input_points": data.train.input_points,
              "output_points": data.train.output_points}
    meta = {"kind": "function_dataset", "problem": spec.kind}
    for label, ds in (("train", data.train), ("test", data.test)):
        arrays[f"inputs_{label}"] = ds.inputs
        arrays[f"outputs_{label}"] = ds.outputs
        meta[f"m_{label}"] = ds.n_samples
        meta[f"provenance_{label}"] = ds.provenance
    write_container(args.output, arrays, meta)
    print(f"wrote {args.output}: {data.train.n_samples} train + {data.test.n_samples} test samples")
    return 0


def _comma_list(text: str, convert, flag: str) -> list:
    """The comma-separated values of ``flag``, each passed through ``convert``."""
    try:
        return [convert(v) for v in text.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"{flag}: expected comma-separated {convert.__name__} values, got {text!r}"
        ) from None


def _cmd_encode(args) -> int:
    config = load_config(args.config)
    spec = getattr(config, f"{args.side}_basis")
    arrays, _ = read_container(args.dataset)
    names = [f"{args.side}_points", f"{args.side}s_train", f"{args.side}s_test"]
    missing = [name for name in names if name not in arrays]
    if missing:
        raise DataError(f"{args.dataset} is not a dataset: it has no {missing[0]!r} array")
    points = arrays[names[0]]
    values = np.concatenate([arrays[names[1]], arrays[names[2]]])
    spec.check_dim(1 if points.ndim == 1 else points.shape[1], f"config.{args.side}_basis")
    components = values.shape[1] if values.ndim == 3 else 1
    basis, mode = side_basis(config, args.side, components)
    coeffs = encode(basis, points, values, getattr(config, f"{args.side}_encode"))
    diag = diagnostics(coeffs)
    write_container(args.output,
                    arrays={"coefficients": coeffs,
                            "singular_values": diag.singular_values,
                            "per_basis_variance": diag.per_basis_variance},
                    meta={"kind": "coefficients", "basis": dataclasses.asdict(spec),
                          "mode": mode, "components": components,
                          "erank": diag.effective_rank,
                          "variance_entropy": diag.variance_entropy,
                          "source": str(args.dataset)})
    print(f"wrote {args.output}: coefficients {coeffs.shape}, "
          f"erank {diag.effective_rank:.3f}")
    return 0


def _cmd_train(args) -> int:
    # the run directory is made after training, so a path it cannot be is refused first
    out = pathlib.Path(args.output)
    blocker = next((p for p in (out, *out.parents) if p.exists()), None)
    if blocker is not None and not blocker.is_dir():
        raise ConfigurationError(f"--output: {blocker} exists and is not a directory")
    config = load_config(args.config)
    result = run(config, outdir=args.output)
    print(f"final test relative error {result.report.final_test_error:.6e}")
    print(f"artifacts in {args.output}")
    return 0


def _cmd_eval(args) -> int:
    resolutions = _comma_list(args.resolutions, int, "--resolutions") if args.resolutions else None
    trained = load_run(args.run_dir)
    # the transfer table comes first, so a bad grid size is refused before anything prints
    table = eval_resolutions(trained, resolutions) if resolutions else {}
    error, _ = evaluate_on(trained, prepare_data(trained.config.dataset).test)
    print(f"final_test_relative_error = {error!r}")
    for r, err in table.items():
        print(f"resolution {r}: test_relative_error = {err!r}")
    return 0


def _cmd_diagnose(args) -> int:
    arrays, _ = read_container(args.container)
    if "coefficients" not in arrays:
        raise DataError(f"{args.container} is not a coefficient container: "
                        f"it has no 'coefficients' array")
    coeffs = arrays["coefficients"]
    diag = diagnostics(np.atleast_2d(coeffs))
    print(f"array = coefficients  shape = {coeffs.shape}")
    print(f"erank = {diag.effective_rank:.3f}")
    print(f"variance_entropy = {diag.variance_entropy:.3f}")
    print(f"sigma_max = {diag.singular_values.max():.6e}")
    print(f"degenerate = {diag.degenerate}")
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    cuts = _comma_list(args.cuts, float, "--cuts")
    table = sweep_cutoff(config, cuts)
    print("cut,erank,variance_entropy,final_test_error")
    for row in table.rows:
        print(f"{row.cut:g},{row.erank:.6f},{row.variance_entropy:.6f},"
              f"{row.final_test_error:.6e}")
    if args.output:
        table.write_csv(args.output)
        print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbc2c",
        description="Fixed-basis coefficient-to-coefficient operator learning tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write the dataset a run config describes")
    p.add_argument("-c", "--config", required=True, help="run config (its dataset section)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("encode", help="encode a dataset with a run config's basis and encode")
    p.add_argument("dataset")
    p.add_argument("-c", "--config", required=True,
                   help="run config (its <side>_basis and <side>_encode sections)")
    p.add_argument("--side", choices=["input", "output"], default="input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("train", help="run a config and write artifacts")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--output", required=True, help="artifact directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained run directory on its test split")
    p.add_argument("run_dir", help="directory that train wrote")
    p.add_argument("--resolutions", default=None,
                   help="comma-separated grid sizes for resolution transfer")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("diagnose", help="effective rank and variance of encoded coefficients")
    p.add_argument("container")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("sweep", help="cutoff sweep table for a config")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--cuts", required=True, help="comma-separated cutoff values")
    p.add_argument("-o", "--output", default=None, help="optional CSV path")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, DomainError, DataError) as exc:
        print(f"error code=2 kind=config msg={exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, NotADirectoryError, IsADirectoryError) as exc:
        print(f"error code=3 kind=missing-file msg={exc}", file=sys.stderr)
        return 3
    except (NumericalError, TrainingDiverged) as exc:
        print(f"error code=4 kind=numeric msg={exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
