"""Spans around calls into fbc2c, recorded from outside the package.

The tracer replaces module and class attributes for the length of one timed
call and restores them afterwards, so untraced calls run the package as
shipped.  A callable is replaced under every name its callers look it up by:
``experiment`` imports ``LeastSquaresEncoder`` and ``relative_loss``
directly, so those are wrapped as ``fbc2c.experiment.*``, and wrapping only
``fbc2c.encoder.LeastSquaresEncoder`` would miss every call from a run.

Spans stay in memory.  A wrapper only reads the clock and keeps a reference
to what a metric needs; the counting (nonzeros, hashes, file sizes) happens
in ``layer_metrics`` after the timed call, so it does not land in any span.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import os
import time
from collections import defaultdict

import numpy as np


class Span:
    __slots__ = ("name", "parent", "start", "end", "capture")

    def __init__(self, name, parent, start=0.0, end=0.0, capture=None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.capture = capture


def _arg0(args, kwargs, result):
    return args[0]


def _result(args, kwargs, result):
    return result


def _darcy_rows(args, kwargs, result):
    return result.shape[0]


def _arguments(args, kwargs, result):
    return args, kwargs


# (binding module, attribute path, span name, what the span keeps).  The
# attribute path is resolved on the binding module; a dotted path names a
# method on a class defined there.
TARGETS = (
    ("fbc2c.datagen", "make_darcy1d", "datagen.make_darcy1d", None),
    ("fbc2c.datagen", "make_darcy1d_multiresolution", "datagen.make_darcy1d_multiresolution", None),
    ("fbc2c.datagen", "make_poisson2d", "datagen.make_poisson2d", None),
    ("fbc2c.datagen", "sample_grf_at", "datagen.sample_grf_at", _arg0),
    ("fbc2c.datagen", "solve_darcy_batch", "datagen.solve_darcy_batch", _darcy_rows),
    ("fbc2c.basis", "RfmBasis.design_matrix", "basis.RfmBasis.design_matrix", _result),
    ("fbc2c.encoder", "LeastSquaresEncoder.encode_values",
     "encoder.LeastSquaresEncoder.encode_values", None),
    ("fbc2c.encoder", "LeastSquaresEncoder", "encoder.LeastSquaresEncoder", _arguments),
    ("fbc2c.experiment", "LeastSquaresEncoder", "encoder.LeastSquaresEncoder", _arguments),
    ("fbc2c.experiment", "diagnostics", "encoder.diagnostics", None),
    ("fbc2c.experiment", "projection_error_from_design",
     "encoder.projection_error_from_design", None),
    ("fbc2c.neuralop", "ReconstructionLoss.loss_and_grads",
     "neuralop.ReconstructionLoss.loss_and_grads", None),
    ("fbc2c.neuralop", "ReconstructionLoss.loss", "neuralop.ReconstructionLoss.loss", None),
    ("fbc2c.neuralop", "ReconstructionLoss", "neuralop.ReconstructionLoss", None),
    ("fbc2c.experiment", "train", "neuralop.train", None),
    ("fbc2c.experiment", "forward", "neuralop.forward", None),
    ("fbc2c.experiment", "relative_loss", "neuralop.relative_loss", None),
    ("fbc2c.experiment", "run", "experiment.run", None),
    ("fbc2c.experiment", "sweep_cutoff", "experiment.sweep_cutoff", None),
    ("fbc2c.experiment", "eval_resolutions", "experiment.eval_resolutions", None),
    ("fbc2c.experiment", "write_container", "container.write_container", _arg0),
)

class Tracer:
    """Records spans while installed; ``spans`` is cleared by ``installed``."""

    def __init__(self, targets=TARGETS):
        self.spans: list[Span] = []
        self._open: list[int] = []
        # Resolve every owner before anything is replaced: the method targets
        # must reach the real classes, not the wrappers put in their place.
        self._patches = []
        for module_name, path, name, capture in targets:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original, self._wrap(original, name, capture)))

    def _wrap(self, original, name, capture):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if capture is not None:
                span.capture = capture(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    @contextlib.contextmanager
    def installed(self):
        self.spans.clear()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.end - span.start - covered_length(children[i], span.start, span.end)
            for i, span in enumerate(spans)]


def _factor_key(arguments) -> tuple:
    """What makes two encoder constructions the same factorization: the design and the rest."""
    (design, *rest), kwargs = arguments
    design = np.ascontiguousarray(design, dtype=np.float64)
    digest = hashlib.blake2b(design.tobytes(), digest_size=16).hexdigest()
    return design.shape, digest, repr(rest), repr(sorted(kwargs.items()))


def layer_metrics(spans) -> tuple[dict, dict]:
    """Per-layer metrics of one traced call, and the number of calls per span name."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    kept = defaultdict(list)
    for span, self_s in zip(spans, self_times(spans)):
        total[span.name] += span.end - span.start
        own[span.name] += self_s
        calls[span.name] += 1
        if span.capture is not None:
            kept[span.name].append(span.capture)

    designs = kept["basis.RfmBasis.design_matrix"]
    entries = sum(d.size for d in designs)
    nonzero = sum(int(np.count_nonzero(d)) for d in designs)
    factors = kept["encoder.LeastSquaresEncoder"]
    steps = calls["neuralop.ReconstructionLoss.loss_and_grads"]
    loss_grad_s = total["neuralop.ReconstructionLoss.loss_and_grads"]
    train_self_s = own["neuralop.train"]
    return {
        "datagen.grf_s": total["datagen.sample_grf_at"],
        "datagen.grf_points": sum(int(np.size(p)) for p in kept["datagen.sample_grf_at"]),
        "datagen.newton_s": total["datagen.solve_darcy_batch"],
        "datagen.newton_solves": sum(kept["datagen.solve_darcy_batch"]),
        "datagen.self_s": sum(own[n] for n in ("datagen.make_darcy1d",
                                               "datagen.make_darcy1d_multiresolution",
                                               "datagen.make_poisson2d")),
        "basis.design_s": total["basis.RfmBasis.design_matrix"],
        "basis.design_calls": calls["basis.RfmBasis.design_matrix"],
        "basis.design_entries": entries,
        "basis.design_nonzero_frac": nonzero / entries if entries else 0.0,
        "encoder.factor_s": own["encoder.LeastSquaresEncoder"],
        "encoder.factor_calls": len(factors),
        "encoder.factor_unique_frac": (len({_factor_key(e) for e in factors}) / len(factors)
                                       if factors else 0.0),
        "encoder.apply_s": total["encoder.LeastSquaresEncoder.encode_values"],
        "encoder.diag_s": total["encoder.diagnostics"],
        "encoder.floor_s": own["encoder.projection_error_from_design"],
        "neuralop.workspace_s": total["neuralop.ReconstructionLoss"],
        "neuralop.loss_grad_s": loss_grad_s,
        "neuralop.steps": steps,
        "neuralop.eval_loss_s": total["neuralop.ReconstructionLoss.loss"],
        "neuralop.train_self_s": train_self_s,
        "neuralop.step_us": (loss_grad_s + train_self_s) / steps * 1e6 if steps else 0.0,
        "neuralop.forward_s": total["neuralop.forward"] + total["neuralop.relative_loss"],
        "experiment.self_s": sum(own[n] for n in ("experiment.run", "experiment.sweep_cutoff",
                                                  "experiment.eval_resolutions")),
        "experiment.runs": calls["experiment.run"],
        "container.write_s": total["container.write_container"],
        "container.bytes": sum(os.path.getsize(p) for p in kept["container.write_container"]),
    }, calls
