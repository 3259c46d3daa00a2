"""Fisher-weighted penalty state for sequential-batch training.

A consumed batch leaves behind its diagonal Fisher estimate, measured at the
parameters it finished at. The state sums the diagonals of every consumed
batch and anchors at the latest estimate's parameters (online EWC without
decay). Later batches pay a quadratic price for moving parameters away from
that anchor, weighted per coordinate by the accumulated Fisher mass:

    penalty(theta) = (lam / 2) * sum_i F_i * (theta_i - anchor_i)^2

``lam = 0`` switches the mechanism off entirely: losses and gradients are then
bit-identical to plain cross-entropy training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .information import FisherEstimate, InformationError
from .numerics import (
    MlpSpec,
    ParameterVector,
    canonical_json,
    check_version,
    json_field,
    json_object,
    layout_to_json,
    loss_and_gradient,
    params_from_json,
    read_json,
    write_atomic,
)

SNAPSHOT_VERSION = 1


class PenaltyError(ValueError):
    """Invalid penalty configuration or mismatched state."""


@dataclass(frozen=True)
class PenaltyConfig:
    """Strength of the batch-to-batch penalty.

    ``mode`` names the penalty form and ``accumulation`` how consumed batches
    combine, the only ones there are; report config hashes include both.
    """

    mode: ClassVar[str] = "quadratic"
    accumulation: ClassVar[str] = "sum"
    lam: float = 0.1

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0.0:
            raise PenaltyError(f"lam must be finite and >= 0, got {self.lam}")


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


def absorb_batch(state: PenaltyState, fisher: FisherEstimate) -> PenaltyState:
    """Fold one finished batch's Fisher estimate into the running state.

    The diagonals add up, so every consumed batch keeps contributing, and the
    anchor moves to ``fisher.anchor``, the parameters the estimate was
    measured at. The first absorbed estimate becomes the state as it is.
    """
    if state.is_empty:
        return PenaltyState(accumulated=fisher, batches_consumed=1)
    acc = state.accumulated
    if not acc.anchor.same_layout(fisher.anchor):
        raise PenaltyError("fisher layout does not match the accumulated state")
    merged = FisherEstimate(acc.diagonal + fisher.diagonal, fisher.anchor,
                            acc.sample_count + fisher.sample_count)
    return PenaltyState(accumulated=merged, batches_consumed=state.batches_consumed + 1)


def penalty_term(states, lams, members):
    """The penalties of a stack of members as one function, or ``None``.

    ``states``, ``lams`` and ``members`` hold one penalty state, strength and
    parameter vector per member. A member pays no penalty when its
    ``lam = 0`` or its state is empty, so it trains on plain cross-entropy;
    ``None`` when no member pays one. Otherwise a pair ``(rows, term)``, as
    ``numerics.train_visit`` takes it: ``rows`` indexes the penalised
    members (a slice when they are contiguous) and ``term(values) ->
    (value, gradient)`` evaluates every penalised member at once from their
    (Mp, P) parameter rows. The states cannot change within a visit, so the
    layout checks and the constant factors are settled here once.
    """
    penalised = [
        i for i, (state, lam) in enumerate(zip(states, lams))
        if lam != 0.0 and not state.is_empty
    ]
    if not penalised:
        return None
    for i in penalised:
        if not states[i].accumulated.anchor.same_layout(members[i]):
            raise PenaltyError("parameter layout does not match the penalty state")
    accumulated = [states[i].accumulated for i in penalised]
    lams = [lams[i] for i in penalised]
    anchor = np.stack([acc.anchor.values for acc in accumulated])
    diagonal = np.stack([acc.diagonal for acc in accumulated])
    half_lam = np.array([0.5 * lam for lam in lams])
    lam_diagonal = np.stack([lam * acc.diagonal for lam, acc in zip(lams, accumulated)])

    def quadratic(values):
        shift = values - anchor
        # np.add.reduce: np.sum's rounding without its Python wrapper.
        return half_lam * np.add.reduce(diagonal * shift**2, axis=-1), lam_diagonal * shift

    first, last = penalised[0], penalised[-1]
    contiguous = last - first + 1 == len(penalised)
    return (slice(first, last + 1) if contiguous else np.array(penalised)), quadratic


def _single_term(state: PenaltyState, params: ParameterVector, cfg: PenaltyConfig):
    """The penalty value and gradient of one member, or ``None`` when it is off."""
    term = penalty_term((state,), (cfg.lam,), (params,))
    if term is None:
        return None
    value, grad = term[1](params.values[None])
    return float(value[0]), grad[0]


def penalty_value(state: PenaltyState, params: ParameterVector, cfg: PenaltyConfig) -> float:
    """Penalty for the current parameters given the accumulated state."""
    term = _single_term(state, params, cfg)
    return 0.0 if term is None else term[0]


def penalty_gradient(
    state: PenaltyState, params: ParameterVector, cfg: PenaltyConfig
) -> np.ndarray:
    """Analytic gradient of ``penalty_value`` with respect to the parameters."""
    term = _single_term(state, params, cfg)
    return np.zeros_like(params.values) if term is None else term[1]


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
    term = _single_term(state, params, cfg)
    if term is None:
        return ce_loss, ce_grad
    pen, pgrad = term
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
        "layout": layout_to_json(acc.anchor.layout),
    }


def state_from_dict(payload: dict) -> PenaltyState:
    """Parse a snapshot; a missing key or a wrongly typed value is a PenaltyError."""
    json_object(payload, "snapshot", PenaltyError)
    check_version(payload, "version", SNAPSHOT_VERSION, "snapshot version", PenaltyError)
    batches = json_field(payload, "batches_consumed", int, "snapshot", PenaltyError)
    if batches == 0:
        return PenaltyState.empty()
    if batches < 0:
        raise PenaltyError("snapshot: 'batches_consumed' must be >= 0")
    anchor = params_from_json(payload, "anchor", "snapshot", PenaltyError)
    diagonal = json_field(payload, "diagonal", tuple[float, ...], "snapshot", PenaltyError)
    samples = json_field(payload, "sample_count", int, "snapshot", PenaltyError)
    try:
        estimate = FisherEstimate(np.asarray(diagonal, dtype=np.float64), anchor, samples)
    except InformationError as exc:
        raise PenaltyError(f"snapshot: {exc}") from None
    return PenaltyState(accumulated=estimate, batches_consumed=batches)


def save_state(state: PenaltyState, path) -> None:
    """Write a snapshot atomically (temp file then rename)."""
    write_atomic(path, canonical_json(state_to_dict(state)))


def load_state(path) -> PenaltyState:
    """Read a snapshot written by ``save_state``; a file that is not a valid
    snapshot raises PenaltyError."""
    return state_from_dict(read_json(path, PenaltyError))
