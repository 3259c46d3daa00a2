"""Span tracing of fishershift's public functions, from outside the program.

The modules import each other by name (``from .numerics import
loss_and_gradient``), so a function is reachable through several module
bindings. ``Tracer.install`` replaces the function at every binding that
holds it, in every loaded ``fishershift`` module, and ``uninstall`` puts the
originals back. Spans (name, start, end, parent) go into flat int64 arrays
in memory and are written once, at the end of the run.

A span's self time is its duration minus the durations of its child spans.
The code is single-threaded, so children never overlap and their durations
add up to the part of the parent they cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# The public functions whose spans the traced run reports, per module.
TRACED = {
    "numerics": ("forward", "loss_and_gradient", "score_square_mean", "optimizer_step"),
    "information": ("empirical_fisher_diagonal", "gaussian_kl"),
    "penalty": ("penalized_loss_and_grad", "absorb_batch"),
    "data": ("synth_shift", "load_csv", "load_idx", "train_validation_split", "fragment",
             "batch_moments"),
    "trainer": ("shift_correction", "evaluate", "RunTrace.to_json"),
    "bench": ("lambda_sweep", "verify_report", "emit_report"),
    "cli": ("main", "write_atomic"),
}

PACKAGE = "fishershift"
SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)
TRAINING_SPAN = "trainer.shift_correction"


def training_key(args, kwargs) -> tuple:
    """Identity of one training: (cell, rep, mode, effective lambda) plus the
    rest of the training config.

    The program derives ``cfg.seed`` from the cell and the repetition but not
    from lambda, and the baselines train with lambda 0 whatever the cell's
    lambda, so two ``shift_correction`` calls with equal keys do the same
    work. The share of distinct keys among calls is the share of useful
    trainings.
    """
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[4]
    lam = cfg.penalty.lam if cfg.baseline_mode == "c3" else 0.0
    return (cfg.seed, cfg.baseline_mode, lam, cfg.epochs, cfg.minibatch_size, cfg.optimizer,
            cfg.penalty.mode, cfg.penalty.accumulation, cfg.reset_state_each_epoch)


def _as_numpy(values: array) -> np.ndarray:
    return np.array(values, dtype=np.int64)


class Tracer:
    """Records nested spans around the functions named in ``TRACED``."""

    def __init__(self):
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.keys: dict[int, tuple] = {}
        self.operations: list[tuple[int, int]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        """Wrap every binding of every traced function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for module_name, functions in TRACED.items():
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            for qualname in functions:
                span = f"{module_name}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, attr, self._wrapper(span, cls.__dict__[attr]))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrapper(span, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrapper(self, span: str, fn):
        name_id = SPAN_NAMES.index(span)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, keys = self._stack, self.keys
        clock = time.perf_counter_ns
        keyed = span == TRAINING_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            if keyed:
                keys[index] = training_key(args, kwargs)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    # -- recording ----------------------------------------------------------

    def begin_operation(self) -> None:
        self.operations.append((len(self.starts), -1))

    def end_operation(self) -> None:
        first, _ = self.operations[-1]
        self.operations[-1] = (first, len(self.starts))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": _as_numpy(self.name_ids),
            "start_ns": _as_numpy(self.starts),
            "end_ns": _as_numpy(self.ends),
            "parent": _as_numpy(self.parents),
            "operations": np.asarray(self.operations, dtype=np.int64).reshape(-1, 2),
            "names": np.asarray(SPAN_NAMES),
        }

    def save(self, path: str) -> None:
        """Write every span of the run in one file (numpy .npz)."""
        np.savez(path, **self.arrays())

    # -- aggregating --------------------------------------------------------

    def self_times_ns(self) -> np.ndarray:
        spans = self.arrays()
        duration = spans["end_ns"] - spans["start_ns"]
        parent = spans["parent"]
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
        return duration - covered.astype(np.int64)

    def per_operation(self) -> list[dict]:
        """For each operation: calls and total self seconds per span name,
        and the share of distinct trainings among ``shift_correction`` calls."""
        names = _as_numpy(self.name_ids)
        self_ns = self.self_times_ns()
        out = []
        for first, stop in self.operations:
            ids = names[first:stop]
            calls = np.bincount(ids, minlength=len(SPAN_NAMES))
            busy = np.bincount(ids, weights=self_ns[first:stop], minlength=len(SPAN_NAMES))
            trainings = [k for i, k in self.keys.items() if first <= i < stop]
            out.append({
                "calls": {n: int(c) for n, c in zip(SPAN_NAMES, calls)},
                "self_s": {n: float(b) / 1e9 for n, b in zip(SPAN_NAMES, busy)},
                "useful_run_ratio": (len(set(trainings)) / len(trainings)) if trainings else None,
            })
        return out

    def self_us_p50(self) -> dict[str, float]:
        """Median self time per call over every traced operation, in µs."""
        names = _as_numpy(self.name_ids)
        self_ns = self.self_times_ns()
        medians = {}
        for i, name in enumerate(SPAN_NAMES):
            picked = self_ns[names == i]
            medians[name] = float(np.median(picked)) / 1e3 if picked.size else 0.0
        return medians
