"""Fisher-weighted penalty for sequential-batch training.

A consumed batch leaves behind its diagonal Fisher estimate, measured at the
parameters it finished at. The penalty state is one ``FisherEstimate``: the
sum of the diagonals of every consumed batch, anchored at the latest
estimate's parameters (online EWC without decay), or ``None`` before the
first batch. Later batches pay a quadratic price for moving parameters away
from that anchor, weighted per coordinate by the accumulated Fisher mass:

    penalty(theta) = (lam / 2) * sum_i F_i * (theta_i - anchor_i)^2

``lam = 0`` switches the mechanism off entirely: losses and gradients are then
bit-identical to plain cross-entropy training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .information import FisherEstimate
from .numerics import MlpSpec, ParameterVector, loss_and_gradient


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


def absorb_batch(state: FisherEstimate | None, fisher: FisherEstimate) -> FisherEstimate:
    """Fold one finished batch's Fisher estimate into the penalty state.

    The diagonals add up, so every consumed batch keeps contributing, and the
    anchor moves to ``fisher.anchor``, the parameters the estimate was
    measured at. ``state`` is ``None`` before the first batch, whose estimate
    becomes the state as it is.
    """
    if state is None:
        return fisher
    if not state.anchor.same_layout(fisher.anchor):
        raise PenaltyError("fisher layout does not match the accumulated state")
    return FisherEstimate(state.diagonal + fisher.diagonal, fisher.anchor,
                          state.sample_count + fisher.sample_count)


def penalty_term(states, lams, members):
    """The penalties of a stack of members as one function, or ``None``.

    ``states``, ``lams`` and ``members`` hold one penalty state (a
    ``FisherEstimate`` or ``None``), strength and parameter vector per
    member. A member pays no penalty when its ``lam = 0`` or its state is
    ``None``, so it trains on plain cross-entropy;
    ``None`` when no member pays one. Otherwise a pair ``(rows, term)``, as
    ``numerics.train_visit`` takes it: ``rows`` indexes the penalised
    members (a slice when they are contiguous) and ``term(values) ->
    (value, gradient)`` evaluates every penalised member at once from their
    (Mp, P) parameter rows. The states cannot change within a visit, so the
    layout checks and the constant factors are settled here once.
    """
    penalised = [
        i for i, (state, lam) in enumerate(zip(states, lams))
        if lam != 0.0 and state is not None
    ]
    if not penalised:
        return None
    for i in penalised:
        if not states[i].anchor.same_layout(members[i]):
            raise PenaltyError("parameter layout does not match the penalty state")
    accumulated = [states[i] for i in penalised]
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


def _single_term(state: FisherEstimate | None, params: ParameterVector, cfg: PenaltyConfig):
    """The penalty value and gradient of one member, or ``None`` when it is off."""
    term = penalty_term((state,), (cfg.lam,), (params,))
    if term is None:
        return None
    value, grad = term[1](params.values[None])
    return float(value[0]), grad[0]


def penalty_value(
    state: FisherEstimate | None, params: ParameterVector, cfg: PenaltyConfig
) -> float:
    """Penalty for the current parameters given the accumulated state."""
    term = _single_term(state, params, cfg)
    return 0.0 if term is None else term[0]


def penalty_gradient(
    state: FisherEstimate | None, params: ParameterVector, cfg: PenaltyConfig
) -> np.ndarray:
    """Analytic gradient of ``penalty_value`` with respect to the parameters."""
    term = _single_term(state, params, cfg)
    return np.zeros_like(params.values) if term is None else term[1]


def penalized_loss_and_grad(
    spec: MlpSpec,
    params: ParameterVector,
    x,
    labels,
    state: FisherEstimate | None,
    cfg: PenaltyConfig,
) -> tuple[float, ParameterVector]:
    """Cross-entropy plus penalty, with the combined gradient.

    With ``lam = 0`` or no state the cross-entropy results are returned
    untouched, so penalised and plain training trajectories stay bit-identical.
    """
    ce_loss, ce_grad = loss_and_gradient(spec, params, x, labels)
    term = _single_term(state, params, cfg)
    if term is None:
        return ce_loss, ce_grad
    pen, pgrad = term
    return ce_loss + pen, ce_grad.with_values(ce_grad.values + pgrad)
