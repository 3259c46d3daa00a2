"""Sequential-batch training over a causal fragmentation plan.

One run walks the plan's batches in order, epoch by epoch. Under the
``c3`` mode each finished batch deposits its Fisher diagonal into the penalty
state, so later batches train against an anchored quadratic penalty. The
state accumulates over every visit of every epoch and is never reset. The two
cross-validation baselines share the same loop: ``cv_sequential`` warm-starts
parameters with the penalty forced off, ``cv_independent`` re-initialises the
model from the seed before every batch.

Within a run everything is strictly sequential; information only ever flows
from earlier batches to later ones. The one training loop steps a stack of
members: runs that differ only in mode (``c3`` or ``cv_sequential``) and
penalty strength share the initialisation, the optimizer and the minibatch
order, so ``train_members`` trains them in lockstep, each visit's minibatch
steps for all of them in one ``numerics.train_visit`` call, and evaluates
them in one stacked forward pass. Each member's trace is bit-identical to
its own ``shift_correction`` run, which is the one-member case.
``train_visit`` works on buffers private to the visit; the parameters it
hands back are fresh ``ParameterVector``s that the Fisher estimate, the
penalty anchor, evaluation and the trace all share, and that nothing writes
to afterwards.

A lambda sweep (``bench``) trains ``cv_independent`` alone and
``cv_sequential`` with every ``c3`` lambda as one stack, once per (split,
repetition), and shares the baselines across its lambda rows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import ClassVar

import numpy as np

from .data import Dataset, FragmentationPlan, batch_moments
from .information import empirical_fisher_diagonal, gaussian_kl
from .numerics import (
    MlpSpec,
    OptimizerConfig,
    OptimizerState,
    ParameterVector,
    canonical_json,
    check_version,
    fields_from_json,
    forward_stack,
    init_optimizer_state,
    init_params,
    json_field,
    json_object,
    layout_to_json,
    params_from_json,
    train_visit,
)
from .penalty import (
    PenaltyConfig,
    PenaltyState,
    absorb_batch,
    penalized_loss_and_grad,  # noqa: F401  (a trainer binding perfbench's tracer test reads)
    penalty_term,
)

# The penalised run and the two cross-validation baselines.
RUN_MODES = ("c3", "cv_sequential", "cv_independent")

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
    # The penalty state is never reset between epochs. A constant only
    # because perfbench's tracer (``training_key``) still reads it.
    reset_state_each_epoch: ClassVar[bool] = False

    def __post_init__(self):
        if self.epochs < 1:
            raise TrainerError("epochs must be >= 1")
        if self.minibatch_size < 1:
            raise TrainerError("minibatch_size must be >= 1")
        if self.baseline_mode not in RUN_MODES:
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
        if self.epoch < 1 or len(self.kl_to_earlier) != self.batch_index:
            raise TrainerError("a record needs epoch >= 1 and one KL per earlier batch")
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
                {**asdict(r), "kl_to_earlier": list(r.kl_to_earlier)} for r in self.records
            ],
            "final_params": {
                "values": self.final_params.values.tolist(),
                "layout": layout_to_json(self.final_params.layout),
            },
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, payload: dict) -> "RunTrace":
        """Parse a trace; a missing key or a wrongly typed value is a TrainerError."""
        where = "trace payload"
        json_object(payload, where, TrainerError)
        check_version(payload, "schema_version", TRACE_SCHEMA_VERSION, "trace schema",
                      TrainerError)
        records = []
        for i, item in enumerate(json_field(payload, "records", list, where, TrainerError)):
            fields = fields_from_json(BatchRecord, item, f"trace record {i}", TrainerError)
            fields["kl_to_earlier"] = tuple(fields["kl_to_earlier"])
            records.append(BatchRecord(**fields))
        if not records:
            raise TrainerError(f"{where}: 'records' must not be empty")
        final = json_field(payload, "final_params", dict, where, TrainerError)
        params = params_from_json(final, "values", "trace final_params", TrainerError)
        return cls(records=tuple(records), final_params=params)


def _evaluate_stack(spec: MlpSpec, members, dataset: Dataset) -> list[float]:
    """Each member's fraction of argmax-correct predictions, from one stacked
    forward pass; ties resolve to the lowest class."""
    if dataset.n < 1:
        raise TrainerError("cannot evaluate on an empty dataset")
    predictions = np.argmax(forward_stack(spec, members, dataset.features), axis=-1)
    return np.mean(predictions == dataset.labels, axis=-1).tolist()


def evaluate(spec: MlpSpec, params: ParameterVector, dataset: Dataset) -> float:
    """Fraction of argmax-correct predictions; ties resolve to the lowest class."""
    return _evaluate_stack(spec, (params,), dataset)[0]


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
    batch 1, ...); the other modes visit epoch-major. This is the one-member
    case of ``train_members``.
    """
    resume = (initial_params, initial_penalty_state, initial_optimizer_state)
    if cfg.baseline_mode == "cv_independent" and any(value is not None for value in resume):
        raise TrainerError(
            "cv_independent re-initialises the model before every batch; "
            "it cannot resume from initial_* state"
        )
    params = initial_params if initial_params is not None else init_params(spec, cfg.seed)
    opt_state = (
        initial_optimizer_state
        if initial_optimizer_state is not None
        else init_optimizer_state(cfg.optimizer, params.size)
    )
    state = initial_penalty_state if initial_penalty_state is not None else PenaltyState.empty()
    hook = None if batch_hook is None else (lambda epoch, i, members: batch_hook(epoch, i, members[0]))
    (trace,) = _train(dataset, validation, plan, spec, (cfg,), params, opt_state, state, hook)
    return trace


def train_members(
    dataset: Dataset,
    validation: Dataset,
    plan: FragmentationPlan,
    spec: MlpSpec,
    cfgs,
) -> tuple[RunTrace, ...]:
    """Train several runs in lockstep, as one stack; one trace per config.

    The configs may differ only in ``baseline_mode`` (``c3`` or
    ``cv_sequential``) and ``penalty.lam``, so the runs share the seeded
    initialisation, the optimizer and the minibatch order, and every step of
    every member goes through one ``numerics.train_visit`` call. Each trace
    is bit-identical to the member's own ``shift_correction`` run.
    ``cv_independent`` re-initialises before every batch and visits
    batch-major, so it trains alone.
    """
    cfgs = tuple(cfgs)
    if not cfgs:
        raise TrainerError("train_members needs at least one config")
    first = cfgs[0]
    if len(cfgs) > 1 and any(cfg.baseline_mode == "cv_independent" for cfg in cfgs):
        raise TrainerError("cv_independent trains alone, not in a stack")
    for cfg in cfgs:
        shared = replace(cfg, baseline_mode=first.baseline_mode,
                         penalty=replace(cfg.penalty, lam=first.penalty.lam))
        if shared != first:
            raise TrainerError("stacked configs may differ only in baseline_mode and penalty.lam")
    params = init_params(spec, first.seed)
    opt_state = init_optimizer_state(first.optimizer, params.size)
    return _train(dataset, validation, plan, spec, cfgs, params, opt_state,
                  PenaltyState.empty(), None)


def _train(dataset, validation, plan, spec, cfgs, params, opt_state, state, batch_hook):
    """The one training loop: the members of ``cfgs``, which agree on all but
    mode and lambda, start from ``params``, ``opt_state`` and ``state`` and
    step together. ``batch_hook(epoch, batch_index, members)`` gets every
    member's parameters after each visit."""
    first = cfgs[0]
    independent = first.baseline_mode == "cv_independent"
    penalise = [m for m, cfg in enumerate(cfgs) if cfg.baseline_mode == "c3"]
    pcfgs = [
        cfg.penalty if cfg.baseline_mode == "c3" else replace(cfg.penalty, lam=0.0)
        for cfg in cfgs
    ]
    members = (params,) * len(cfgs)
    opt_states = (opt_state,) * len(cfgs)
    states = [state] * len(cfgs)

    k = plan.batch_count
    moments = [batch_moments(dataset, plan, i) for i in range(k)]
    kl_back = [
        tuple(gaussian_kl(moments[i], moments[j]) for j in range(i)) for i in range(k)
    ]

    epochs = range(1, first.epochs + 1)
    if independent:
        visits = [(epoch, i) for i in range(k) for epoch in epochs]
    else:
        visits = [(epoch, i) for epoch in epochs for i in range(k)]

    records = [[] for _ in cfgs]
    for epoch, i in visits:
        if independent and epoch == 1:
            members = (init_params(spec, first.seed),)
            opt_states = (init_optimizer_state(first.optimizer, members[0].size),)
        x, y = dataset.rows(plan.batch_indices(i))
        members, opt_states, mean_losses = train_visit(
            spec, members, opt_states, x, y, first.minibatch_size,
            penalty_term(states, pcfgs, members),
        )
        # One Fisher pass per penalised member: on a whole batch, stacked
        # passes save no time, so only the minibatch steps run stacked.
        for m in penalise:
            fisher = empirical_fisher_diagonal(spec, members[m], x, y)
            states[m] = absorb_batch(states[m], fisher, members[m], pcfgs[m])
        accuracies = _evaluate_stack(spec, members, validation)
        for member_records, accuracy, mean_loss in zip(records, accuracies, mean_losses):
            member_records.append(
                BatchRecord(
                    epoch=epoch,
                    batch_index=i,
                    validation_accuracy=accuracy,
                    mean_loss=mean_loss,
                    kl_to_earlier=kl_back[i],
                )
            )
        if batch_hook is not None:
            batch_hook(epoch, i, members)
    return tuple(
        RunTrace(
            records=tuple(member_records),
            final_params=final,
            final_penalty_state=member_state,
            final_optimizer_state=member_opt,
        )
        for member_records, final, member_state, member_opt
        in zip(records, members, states, opt_states)
    )
