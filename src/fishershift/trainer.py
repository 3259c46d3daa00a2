"""Sequential-batch training over a causal fragmentation plan.

One run walks the plan's batches in order, epoch by epoch. Under the
``c3`` mode each finished batch deposits its Fisher diagonal into the penalty
state, so later batches train against an anchored quadratic penalty. The two
cross-validation baselines share the same loop: ``cv_sequential`` warm-starts
parameters with the penalty forced off, ``cv_independent`` re-initialises the
model from the seed before every batch.

Within a run everything is strictly sequential; information only ever flows
from earlier batches to later ones. Each visit's minibatch steps run in one
fused kernel (``numerics.train_visit``) on buffers private to the visit; the
parameters it hands back are a fresh ``ParameterVector`` that the Fisher
estimate, the penalty anchor, evaluation and the trace all share, and that
nothing writes to afterwards.

The baselines do not depend on the penalty strength, so a lambda sweep
(``bench``) trains them once per (split, repetition) and shares them across
its lambda rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, FragmentationPlan, batch_moments
from .information import empirical_fisher_diagonal, gaussian_kl
from .numerics import (
    LayerSlice,
    MlpSpec,
    OptimizerConfig,
    OptimizerState,
    ParameterVector,
    forward,
    init_optimizer_state,
    init_params,
    train_visit,
)
from .penalty import (
    PenaltyConfig,
    PenaltyState,
    absorb_batch,
    penalized_loss_and_grad,  # noqa: F401  (a trainer binding perfbench's tracer test reads)
    penalty_term,
)

BASELINE_MODES = ("c3", "cv_sequential", "cv_independent")

TRACE_SCHEMA_VERSION = 1


class TrainerError(ValueError):
    """Invalid training configuration or inconsistent inputs."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run needs besides the data and the model spec."""

    epochs: int = 10
    minibatch_size: int = 32
    optimizer: OptimizerConfig = OptimizerConfig()
    penalty: PenaltyConfig = PenaltyConfig()
    seed: int = 0
    baseline_mode: str = "c3"
    reset_state_each_epoch: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise TrainerError("epochs must be >= 1")
        if self.minibatch_size < 1:
            raise TrainerError("minibatch_size must be >= 1")
        if self.baseline_mode not in BASELINE_MODES:
            raise TrainerError(f"unknown baseline mode {self.baseline_mode!r}")


@dataclass(frozen=True)
class BatchRecord:
    """State of the run right after one batch visit."""

    epoch: int
    batch_index: int
    validation_accuracy: float
    mean_loss: float
    kl_to_earlier: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 <= self.validation_accuracy <= 1.0:
            raise TrainerError("validation accuracy must lie in [0, 1]")
        if any(k < 0.0 for k in self.kl_to_earlier):
            raise TrainerError("KL diagnostics must be nonnegative")


@dataclass(frozen=True)
class RunTrace:
    """Complete record of one run: per-visit records plus the final model.

    ``final_penalty_state`` and ``final_optimizer_state`` ride along for
    in-process resumption and inspection; the JSON form carries only the
    records and the final parameters (the penalty state has its own snapshot
    format).
    """

    records: tuple[BatchRecord, ...]
    final_params: ParameterVector
    final_penalty_state: PenaltyState | None = None
    final_optimizer_state: OptimizerState | None = None

    def per_batch_accuracies(self) -> tuple[float, ...]:
        """Last recorded accuracy for each batch index, in batch order."""
        latest: dict[int, float] = {}
        for r in self.records:
            latest[r.batch_index] = r.validation_accuracy
        return tuple(latest[i] for i in sorted(latest))

    def final_accuracy(self) -> float:
        return self.records[-1].validation_accuracy

    def to_json_dict(self) -> dict:
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "records": [
                {
                    "epoch": r.epoch,
                    "batch_index": r.batch_index,
                    "validation_accuracy": r.validation_accuracy,
                    "mean_loss": r.mean_loss,
                    "kl_to_earlier": list(r.kl_to_earlier),
                }
                for r in self.records
            ],
            "final_params": {
                "values": self.final_params.values.tolist(),
                "layout": [
                    {"name": s.name, "shape": list(s.shape), "start": s.start, "stop": s.stop}
                    for s in self.final_params.layout
                ],
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, payload: dict) -> "RunTrace":
        if payload.get("schema_version") != TRACE_SCHEMA_VERSION:
            raise TrainerError(f"unsupported trace schema {payload.get('schema_version')!r}")
        records = tuple(
            BatchRecord(
                epoch=r["epoch"],
                batch_index=r["batch_index"],
                validation_accuracy=r["validation_accuracy"],
                mean_loss=r["mean_loss"],
                kl_to_earlier=tuple(r["kl_to_earlier"]),
            )
            for r in payload["records"]
        )
        layout = tuple(
            LayerSlice(item["name"], tuple(item["shape"]), item["start"], item["stop"])
            for item in payload["final_params"]["layout"]
        )
        params = ParameterVector(
            np.asarray(payload["final_params"]["values"], dtype=np.float64), layout
        )
        return cls(records=records, final_params=params)


def evaluate(spec: MlpSpec, params: ParameterVector, dataset: Dataset) -> float:
    """Fraction of argmax-correct predictions; ties resolve to the lowest class."""
    if dataset.n < 1:
        raise TrainerError("cannot evaluate on an empty dataset")
    logits = forward(spec, params, dataset.features)
    predictions = np.argmax(logits, axis=1)
    return float(np.mean(predictions == dataset.labels))


def kl_diagnostic_matrix(dataset: Dataset, plan: FragmentationPlan) -> np.ndarray:
    """Full pairwise batch-distribution KL matrix, for offline analysis.

    Entry (i, j) is the moment-matched Gaussian KL from batch i to batch j;
    training itself only ever consumes the backward-looking half (j < i).
    """
    k = plan.batch_count
    moments = [batch_moments(dataset, plan, i) for i in range(k)]
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i != j:
                out[i, j] = gaussian_kl(moments[i], moments[j])
    return out


def shift_correction(
    dataset: Dataset,
    validation: Dataset,
    plan: FragmentationPlan,
    spec: MlpSpec,
    cfg: TrainConfig,
    initial_params: ParameterVector | None = None,
    initial_penalty_state: PenaltyState | None = None,
    initial_optimizer_state: OptimizerState | None = None,
    batch_hook=None,
) -> RunTrace:
    """Consume the plan's batches in causal order and return the full trace.

    Per batch visit: record the distribution KL against every earlier batch,
    minimise the penalised loss over the batch, then (in ``c3`` mode) absorb
    the batch's Fisher diagonal into the penalty state anchored at the
    parameters the batch finished with. Validation accuracy is measured after
    every visit, and ``batch_hook(epoch, batch_index, params)`` is called
    after it. The ``initial_*`` arguments resume a run from a batch
    boundary; ``cv_independent`` re-initialises before every batch, so it
    rejects them.

    ``cv_independent`` visits batch-major (every epoch of batch 0, then of
    batch 1, ...); the other modes visit epoch-major.
    """
    independent = cfg.baseline_mode == "cv_independent"
    resume = (initial_params, initial_penalty_state, initial_optimizer_state)
    if independent and any(value is not None for value in resume):
        raise TrainerError(
            "cv_independent re-initialises the model before every batch; "
            "it cannot resume from initial_* state"
        )
    penalize = cfg.baseline_mode == "c3"
    pcfg = cfg.penalty if penalize else replace(cfg.penalty, lam=0.0)

    params = initial_params if initial_params is not None else init_params(spec, cfg.seed)
    opt_state = (
        initial_optimizer_state
        if initial_optimizer_state is not None
        else init_optimizer_state(cfg.optimizer, params.size)
    )
    state = initial_penalty_state if initial_penalty_state is not None else PenaltyState.empty()

    k = plan.batch_count
    moments = [batch_moments(dataset, plan, i) for i in range(k)]
    kl_back = [
        tuple(gaussian_kl(moments[i], moments[j]) for j in range(i)) for i in range(k)
    ]

    epochs = range(1, cfg.epochs + 1)
    if independent:
        visits = [(epoch, i) for i in range(k) for epoch in epochs]
    else:
        visits = [(epoch, i) for epoch in epochs for i in range(k)]

    records = []
    for epoch, i in visits:
        if independent and epoch == 1:
            params = init_params(spec, cfg.seed)
            opt_state = init_optimizer_state(cfg.optimizer, params.size)
        if cfg.reset_state_each_epoch and epoch > 1 and i == 0:
            state = PenaltyState.empty()
        x, y = dataset.rows(plan.batch_indices(i))
        params, opt_state, mean_loss = train_visit(
            spec, params, opt_state, x, y, cfg.minibatch_size,
            penalty_term(state, pcfg, params, spec),
        )
        if penalize:
            fisher = empirical_fisher_diagonal(spec, params, x, y)
            state = absorb_batch(state, fisher, params, pcfg)
        records.append(
            BatchRecord(
                epoch=epoch,
                batch_index=i,
                validation_accuracy=evaluate(spec, params, validation),
                mean_loss=mean_loss,
                kl_to_earlier=kl_back[i],
            )
        )
        if batch_hook is not None:
            batch_hook(epoch, i, params)
    return RunTrace(
        records=tuple(records),
        final_params=params,
        final_penalty_state=state,
        final_optimizer_state=opt_state,
    )


def cv_baseline(dataset, validation, plan, spec, cfg: TrainConfig) -> RunTrace:
    """Run one of the two cross-validation baselines named by the config."""
    if cfg.baseline_mode == "c3":
        raise TrainerError("cv_baseline needs baseline_mode cv_sequential or cv_independent")
    return shift_correction(dataset, validation, plan, spec, cfg)
