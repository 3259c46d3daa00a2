"""Fisher-weighted penalty state for sequential-batch training.

A consumed batch leaves behind its diagonal Fisher estimate and the parameters
it finished at. Later batches pay a quadratic price for moving parameters away
from that anchor, weighted per coordinate by the accumulated Fisher mass:

    penalty(theta) = (lam / 2) * sum_i F_i * (theta_i - anchor_i)^2

``lam = 0`` switches the mechanism off entirely: losses and gradients are then
bit-identical to plain cross-entropy training. A secondary ``trace`` mode
penalises the live batch's own Fisher mass instead; its gradient runs through
finite differences and is kept for exploration, not production runs.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .information import FisherEstimate
from .numerics import (
    LayerSlice,
    MlpSpec,
    ParameterVector,
    loss_and_gradient,
    score_square_mean,
)

PENALTY_MODES = ("quadratic", "trace")
ACCUMULATION_MODES = ("sum", "mean")

SNAPSHOT_VERSION = 1


class PenaltyError(ValueError):
    """Invalid penalty configuration or mismatched state."""


@dataclass(frozen=True)
class PenaltyConfig:
    """Strength and shape of the batch-to-batch penalty."""

    lam: float = 0.1
    mode: str = "quadratic"
    accumulation: str = "sum"

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0.0:
            raise PenaltyError(f"lam must be finite and >= 0, got {self.lam}")
        if self.mode not in PENALTY_MODES:
            raise PenaltyError(f"unknown penalty mode {self.mode!r}")
        if self.accumulation not in ACCUMULATION_MODES:
            raise PenaltyError(f"unknown accumulation mode {self.accumulation!r}")


@dataclass(frozen=True)
class PenaltyState:
    """Accumulated Fisher mass and anchor from all batches consumed so far.

    Immutable: ``absorb_batch`` returns a fresh state. An empty state (no
    batches consumed) contributes exactly zero penalty.
    """

    accumulated: FisherEstimate | None
    batches_consumed: int = 0

    @classmethod
    def empty(cls) -> "PenaltyState":
        return cls(accumulated=None, batches_consumed=0)

    @property
    def is_empty(self) -> bool:
        return self.batches_consumed == 0


def absorb_batch(
    state: PenaltyState,
    fisher: FisherEstimate,
    params_post: ParameterVector,
    cfg: PenaltyConfig,
) -> PenaltyState:
    """Fold one finished batch's Fisher estimate into the running state.

    ``sum`` accumulation keeps adding diagonals so every consumed batch keeps
    contributing; ``mean`` keeps a running average. The anchor always moves to
    the parameters the batch finished at.
    """
    if not fisher.anchor.same_layout(params_post):
        raise PenaltyError("fisher layout does not match the post-batch parameters")
    if state.is_empty:
        merged = FisherEstimate(fisher.diagonal.copy(), params_post, fisher.sample_count)
        return PenaltyState(accumulated=merged, batches_consumed=1)
    acc = state.accumulated
    if acc.diagonal.size != fisher.diagonal.size:
        raise PenaltyError("fisher layout does not match the accumulated state")
    if cfg.accumulation == "sum":
        diagonal = acc.diagonal + fisher.diagonal
    else:
        b = state.batches_consumed
        diagonal = (acc.diagonal * b + fisher.diagonal) / (b + 1)
    merged = FisherEstimate(diagonal, params_post, acc.sample_count + fisher.sample_count)
    return PenaltyState(accumulated=merged, batches_consumed=state.batches_consumed + 1)


def _check_layout(state: PenaltyState, params: ParameterVector):
    if not state.accumulated.anchor.same_layout(params):
        raise PenaltyError("parameter layout does not match the penalty state")


def penalty_value(
    state: PenaltyState,
    params: ParameterVector,
    cfg: PenaltyConfig,
    spec: MlpSpec | None = None,
    x=None,
    labels=None,
) -> float:
    """Penalty for the current parameters given the accumulated state.

    Quadratic mode needs only the state; trace mode recomputes the live
    batch's Fisher diagonal at the current parameters and therefore requires
    ``spec``, ``x`` and ``labels``.
    """
    if cfg.lam == 0.0 or state.is_empty:
        return 0.0
    if cfg.mode == "quadratic":
        _check_layout(state, params)
        acc = state.accumulated
        shift = params.values - acc.anchor.values
        return float(0.5 * cfg.lam * np.sum(acc.diagonal * shift**2))
    if spec is None or x is None or labels is None:
        raise PenaltyError("trace mode needs the live batch (spec, x, labels)")
    return float(cfg.lam * np.sum(score_square_mean(spec, params, x, labels)))


def penalty_gradient(
    state: PenaltyState,
    params: ParameterVector,
    cfg: PenaltyConfig,
    spec: MlpSpec | None = None,
    x=None,
    labels=None,
    fd_step: float = 1e-4,
) -> np.ndarray:
    """Gradient of ``penalty_value`` with respect to the parameters.

    Quadratic mode is analytic. Trace mode differentiates the live-batch
    Fisher mass by central differences; experimental and O(|theta|) Fisher
    evaluations per call.
    """
    if cfg.lam == 0.0 or state.is_empty:
        return np.zeros_like(params.values)
    if cfg.mode == "quadratic":
        _check_layout(state, params)
        acc = state.accumulated
        return cfg.lam * acc.diagonal * (params.values - acc.anchor.values)
    if spec is None or x is None or labels is None:
        raise PenaltyError("trace mode needs the live batch (spec, x, labels)")
    grad = np.zeros_like(params.values)
    for i in range(params.size):
        up = params.values.copy()
        dn = params.values.copy()
        up[i] += fd_step
        dn[i] -= fd_step
        f_up = np.sum(score_square_mean(spec, params.with_values(up), x, labels))
        f_dn = np.sum(score_square_mean(spec, params.with_values(dn), x, labels))
        grad[i] = cfg.lam * (f_up - f_dn) / (2.0 * fd_step)
    return grad


def penalty_term(
    state: PenaltyState,
    cfg: PenaltyConfig,
    params: ParameterVector,
    spec: MlpSpec | None = None,
):
    """The penalty as a per-step term for ``numerics.train_visit``, or ``None``.

    ``None`` when the penalty is off (``lam = 0`` or an empty state), so the
    visit trains on plain cross-entropy. Otherwise a function
    ``term(values, x, labels) -> (value, gradient)`` for the live flat
    parameter values; the state cannot change within a visit, so the layout
    check and the constant factors are settled here once. The quadratic term
    rounds exactly like ``penalty_value`` and ``penalty_gradient``.
    """
    if cfg.lam == 0.0 or state.is_empty:
        return None
    _check_layout(state, params)
    acc = state.accumulated
    if cfg.mode == "quadratic":
        anchor, diagonal = acc.anchor.values, acc.diagonal
        half_lam, lam_diagonal = 0.5 * cfg.lam, cfg.lam * diagonal

        def quadratic(values, x, labels):
            shift = values - anchor
            # np.add.reduce: np.sum's rounding without its Python wrapper.
            return float(half_lam * np.add.reduce(diagonal * shift**2)), lam_diagonal * shift

        return quadratic

    def trace(values, x, labels):
        live = ParameterVector(values.copy(), params.layout)
        return (
            penalty_value(state, live, cfg, spec=spec, x=x, labels=labels),
            penalty_gradient(state, live, cfg, spec=spec, x=x, labels=labels),
        )

    return trace


def penalized_loss_and_grad(
    spec: MlpSpec,
    params: ParameterVector,
    x,
    labels,
    state: PenaltyState,
    cfg: PenaltyConfig,
) -> tuple[float, ParameterVector]:
    """Cross-entropy plus penalty, with the combined gradient.

    With ``lam = 0`` or an empty state the cross-entropy results are returned
    untouched, so penalised and plain training trajectories stay bit-identical.
    """
    ce_loss, ce_grad = loss_and_gradient(spec, params, x, labels)
    if cfg.lam == 0.0 or state.is_empty:
        return ce_loss, ce_grad
    pen = penalty_value(state, params, cfg, spec=spec, x=x, labels=labels)
    pgrad = penalty_gradient(state, params, cfg, spec=spec, x=x, labels=labels)
    return ce_loss + pen, ce_grad.with_values(ce_grad.values + pgrad)


def state_to_dict(state: PenaltyState) -> dict:
    """JSON-ready snapshot of a penalty state (versioned)."""
    if state.is_empty:
        return {"version": SNAPSHOT_VERSION, "batches_consumed": 0}
    acc = state.accumulated
    return {
        "version": SNAPSHOT_VERSION,
        "batches_consumed": state.batches_consumed,
        "sample_count": acc.sample_count,
        "diagonal": acc.diagonal.tolist(),
        "anchor": acc.anchor.values.tolist(),
        "layout": [
            {"name": s.name, "shape": list(s.shape), "start": s.start, "stop": s.stop}
            for s in acc.anchor.layout
        ],
    }


def state_from_dict(payload: dict) -> PenaltyState:
    version = payload.get("version")
    if version != SNAPSHOT_VERSION:
        raise PenaltyError(f"unsupported snapshot version {version!r}")
    if payload.get("batches_consumed", 0) == 0:
        return PenaltyState.empty()
    layout = tuple(
        LayerSlice(item["name"], tuple(item["shape"]), item["start"], item["stop"])
        for item in payload["layout"]
    )
    anchor = ParameterVector(np.asarray(payload["anchor"], dtype=np.float64), layout)
    estimate = FisherEstimate(
        np.asarray(payload["diagonal"], dtype=np.float64),
        anchor,
        int(payload["sample_count"]),
    )
    return PenaltyState(accumulated=estimate, batches_consumed=int(payload["batches_consumed"]))


def save_state(state: PenaltyState, path) -> None:
    """Write a snapshot atomically (temp file then rename)."""
    payload = json.dumps(state_to_dict(state), sort_keys=True, indent=2) + "\n"
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_state(path) -> PenaltyState:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_dict(json.load(fh))
