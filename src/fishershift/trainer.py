"""Sequential-batch training over a causal fragmentation plan.

One run walks the plan's batches in order, epoch by epoch. Under the
``c3`` mode each finished batch deposits its Fisher diagonal into the penalty
state, so later batches train against an anchored quadratic penalty. The
state accumulates over every visit of every epoch and is never reset. The two
cross-validation baselines share the same loop: ``cv_sequential`` warm-starts
parameters with the penalty forced off, ``cv_independent`` trains every
batch from the seeded initialisation.

Within a run everything is strictly sequential; information only ever flows
from earlier batches to later ones. The one training loop steps a stack of
members, each with its own data, validation set, plan, config and sequence
of batch visits; visit v of every member trains on that member's v-th batch,
a read-only view of the run's rows, which come in batch order. A run is one
member, or for ``cv_independent`` one member per batch.
``shift_correction`` trains one run, ``train_members`` any runs as one stack.
Each visit, the members whose batch sizes, minibatch sizes, optimizer
configs and step counts agree step through one ``numerics.train_visit``
call that gets one batch per member, and the members of each validation set
are evaluated in one stacked forward pass. Each member's trace is
bit-identical to a run of it alone.
``train_visit`` works on buffers private to the visit; the parameters it
hands back are fresh ``ParameterVector``s that the Fisher estimate, the
penalty anchor, evaluation and the trace all share, and that nothing writes
to afterwards. So a visit's evaluation may run on a second thread while the
next visit trains: for validation sets of at least ``_THREAD_EVAL_SIZE``
input values, on a host where a second CPU is usable. Records, hook calls,
errors and bytes are those of the inline evaluation.

A lambda sweep (``bench``) trains ``cv_independent`` once per (split,
repetition), and ``cv_sequential`` with every ``c3`` lambda of every
repetition of a split as one stack, and shares the baselines across its
lambda rows.
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import asdict, dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .data import Dataset, FragmentationPlan, batch_moments
from .information import FisherEstimate, empirical_fisher_diagonal, gaussian_kl
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

    ``final_penalty_state`` (the accumulated ``FisherEstimate``, ``None``
    when the run absorbed no batch) and ``final_optimizer_state`` ride along
    for in-process resumption (``shift_correction(resume=)``) and
    inspection. The JSON form carries only the records and the final
    parameters, so a trace read back from JSON cannot be resumed.
    """

    records: tuple[BatchRecord, ...]
    final_params: ParameterVector
    final_penalty_state: FisherEstimate | None = None
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


class Run(NamedTuple):
    """One training run of a stack: its data, validation set, plan and config."""

    dataset: Dataset
    validation: Dataset
    plan: FragmentationPlan
    cfg: TrainConfig


@dataclass(eq=False)
class _Member:
    """One member of the training loop's stack: the batch visits it makes,
    in order, and its live state."""

    run: Run
    visits: tuple[tuple[int, int], ...]  # (epoch, batch index)
    params: ParameterVector
    opt_state: OptimizerState
    state: FisherEstimate | None
    records: list = field(default_factory=list)
    loss: float = 0.0  # the mean step loss of the latest visit
    history: list | None = None  # (epoch, batch index, params) per visit, if kept
    lam: float = field(init=False)

    def __post_init__(self):
        # Only c3 pays the penalty; the baselines train with lambda 0.
        cfg = self.run.cfg
        self.lam = cfg.penalty.lam if cfg.baseline_mode == "c3" else 0.0

    def batch(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views of the rows and labels of the batch of visit ``v``."""
        return self.run.dataset.rows(self.run.plan.batch(self.visits[v][1]))


def _visits(cfg: TrainConfig, plan: FragmentationPlan) -> list[tuple[tuple[int, int], ...]]:
    """The (epoch, batch index) visits of each member of one run: one
    epoch-major member, or for ``cv_independent`` one member per batch."""
    epochs = range(1, cfg.epochs + 1)
    batches = range(plan.batch_count)
    if cfg.baseline_mode == "cv_independent":
        return [tuple((epoch, i) for epoch in epochs) for i in batches]
    return [tuple((epoch, i) for epoch in epochs for i in batches)]


def _members(spec, run: Run, resume: RunTrace | None = None,
             keep_history=False) -> list[_Member]:
    """The members that train ``run``, from the final state of ``resume``
    or else the seeded initialisation."""
    if resume is None:
        params = init_params(spec, run.cfg.seed)
        opt_state = init_optimizer_state(run.cfg.optimizer, params.size)
        state = None
    else:
        params, opt_state, state = (resume.final_params, resume.final_optimizer_state,
                                    resume.final_penalty_state)
    return [_Member(run, visits, params, opt_state, state, history=[] if keep_history else None)
            for visits in _visits(run.cfg, run.plan)]


def _trace(members) -> RunTrace:
    """The trace of one run trained as ``members``: their records, in member
    order, and the last member's final state."""
    last = members[-1]
    return RunTrace(
        records=tuple(record for member in members for record in member.records),
        final_params=last.params,
        final_penalty_state=last.state,
        final_optimizer_state=last.opt_state,
    )


def shift_correction(
    dataset: Dataset,
    validation: Dataset,
    plan: FragmentationPlan,
    spec: MlpSpec,
    cfg: TrainConfig,
    resume: RunTrace | None = None,
    batch_hook=None,
) -> RunTrace:
    """Consume the plan's batches in causal order and return the full trace.

    Per batch visit: record the distribution KL against every earlier batch,
    minimise the penalised loss over the batch, then (in ``c3`` mode) absorb
    the batch's Fisher diagonal, measured at the parameters the batch
    finished with, into the penalty state. Validation accuracy is measured
    after every visit. ``batch_hook(epoch, batch_index, params)`` is called
    once per visit, in record order, when training is done. ``resume``, the
    in-process trace of an earlier run, continues that run from a batch
    boundary: training starts from its final parameters, optimizer state and
    penalty state, so the two traces together equal one continuous run;
    ``cfg.optimizer`` must be the config the trace's optimizer state holds.

    ``c3`` and ``cv_sequential`` visit epoch-major. ``cv_independent`` trains
    every batch from the seeded initialisation: batch i is a member of its
    own that makes every epoch's visit of batch i, and the K members step as
    one stack. Its records come batch-major (every epoch of batch 0, then of
    batch 1, ...), and its final state is batch K-1's. It starts from the
    seed by definition, so it rejects ``resume``.
    """
    if resume is not None:
        if cfg.baseline_mode == "cv_independent":
            raise TrainerError("cv_independent trains every batch from the seed; "
                               "it cannot resume a run")
        if resume.final_optimizer_state is None:
            raise TrainerError("resume needs a trace with its final states; "
                               "a trace read from JSON has none")
        if resume.final_optimizer_state.config != cfg.optimizer:
            raise TrainerError(
                f"resume: the trace's optimizer {resume.final_optimizer_state.config} "
                f"differs from cfg.optimizer {cfg.optimizer}")
    members = _members(spec, Run(dataset, validation, plan, cfg), resume,
                       keep_history=batch_hook is not None)
    _train(spec, members)
    if batch_hook is not None:
        for member in members:
            for epoch, i, member_params in member.history:
                batch_hook(epoch, i, member_params)
    return _trace(members)


def train_members(runs, spec: MlpSpec) -> tuple[RunTrace, ...]:
    """Train several runs in lockstep, as one stack; one trace per run.

    Each run (a ``Run``) brings its own data, validation set, plan and
    config, and any runs may share a stack: their modes, penalties,
    optimizers, epochs, minibatch sizes and seeds are free. Every run trains
    from its own seeded initialisation, and each trace is bit-identical to
    the run's own ``shift_correction``.
    """
    runs = tuple(runs)
    if not runs:
        raise TrainerError("train_members needs at least one run")
    stacks = [_members(spec, run) for run in runs]
    _train(spec, [member for stack in stacks for member in stack])
    return tuple(_trace(stack) for stack in stacks)


def _step(spec, members, v: int) -> None:
    """Visit ``v`` of ``members``, whose batches have equal sizes and whose
    minibatch size, optimizer config and step count agree: one
    ``train_visit`` call on one batch per member, then each ``c3`` member
    absorbs its own batch's Fisher diagonal."""
    x, y = zip(*(member.batch(v) for member in members))
    params = [member.params for member in members]
    params, opt_states, losses = train_visit(
        spec, params, [member.opt_state for member in members], x, y,
        members[0].run.cfg.minibatch_size,
        penalty_term([member.state for member in members],
                     [member.lam for member in members], params),
    )
    for member, member_params, opt_state, loss, bx, by in zip(
        members, params, opt_states, losses, x, y
    ):
        member.params, member.opt_state, member.loss = member_params, opt_state, loss
        # One Fisher pass per penalised member: on a whole batch, stacked
        # passes save no time.
        if member.run.cfg.baseline_mode == "c3":
            fisher = empirical_fisher_diagonal(spec, member_params, bx, by)
            member.state = absorb_batch(member.state, fisher)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# A visit's validation passes run on a second thread, while the next visit
# trains, when the validation sets hold at least this many input values (rows
# x features, summed over the distinct sets) and a second CPU is usable.
# Each hand-off costs the training thread 0.1-0.2 ms a visit, so below it the
# overlap saves less than that: with numpy 2.4.6 on a 2-vCPU Xeon host (one
# BLAS thread, 16 hidden units, 128- and 480-row batches, 10-784 features),
# the two paths tied near 300k values and the thread won in every shape from
# 384k on.
_THREAD_EVAL_SIZE = 400_000


def _accuracies(spec, groups) -> list[list[float]]:
    """One stacked validation pass per group of ``_record``'s ``groups``."""
    return [_evaluate_stack(spec, [params for _, params, _ in group], group[0][0].run.validation)
            for group in groups]


def _record(groups, accuracies, v: int, kl_back) -> None:
    """Append visit ``v``'s records (and history) to the members of
    ``groups``, lists of (member, params, loss) after the visit, one per
    validation set."""
    for group, group_accuracies in zip(groups, accuracies):
        for (member, params, loss), accuracy in zip(group, group_accuracies):
            epoch, i = member.visits[v]
            run = member.run
            member.records.append(
                BatchRecord(
                    epoch=epoch,
                    batch_index=i,
                    validation_accuracy=accuracy,
                    mean_loss=loss,
                    kl_to_earlier=kl_back[id(run.dataset), id(run.plan)][i],
                )
            )
            if member.history is not None:
                member.history.append((epoch, i, params))


def _collect(pending, kl_back) -> None:
    """Record the visit whose passes ``pending``, a (groups, v, future)
    triple, left on the evaluation thread."""
    groups, v, future = pending
    _record(groups, future.result(), v, kl_back)


def _train(spec, members) -> None:
    """The one training loop, over a stack of ``_Member``s.

    Every member carries its own run (data, validation set, plan, config)
    and visit sequence. Visit v of each member trains on its v-th batch: the
    members whose batches have equal sizes and whose minibatch size,
    optimizer config and step count agree step through one ``train_visit``
    call. Every member is then evaluated, one stacked forward pass per
    validation set. Members with fewer visits drop out when done. A member
    that keeps a ``history`` gets its parameters after each visit.

    When the validation sets are large (``_THREAD_EVAL_SIZE``) and a second
    CPU is usable, visit v's passes run on a one-worker thread while visit
    v+1 trains; numpy releases the interpreter lock inside the products.
    The thread evaluates the parameters visit v handed back, which nothing
    writes to, and calls only ``forward_stack``, which perfbench's span
    tracer does not wrap: the tracer keeps one span stack. Records, history
    and errors come in the serial order: visit v's evaluation is collected
    before visit v+1's training error is raised, and the thread is joined
    before this returns or raises.
    """
    kl_back = {}
    validations = {}
    for member in members:
        run = member.run
        validations[id(run.validation)] = run.validation
        key = id(run.dataset), id(run.plan)
        if key not in kl_back:
            moments = [batch_moments(run.dataset, run.plan, i)
                       for i in range(run.plan.batch_count)]
            kl_back[key] = [tuple(gaussian_kl(moments[i], moments[j]) for j in range(i))
                            for i in range(len(moments))]

    pool = None
    if (sum(d.n for d in validations.values()) * spec.input_dim >= _THREAD_EVAL_SIZE
            and _usable_cpus() >= 2):
        # Imported here, so a run that evaluates inline never loads it.
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=1)
    pending = None  # the previous visit's (groups, v, future) on the pool
    try:
        for v in range(max(len(member.visits) for member in members)):
            active = [member for member in members if v < len(member.visits)]
            steps = {}
            for member in active:
                size = member.run.plan.sizes[member.visits[v][1]]
                opt = member.opt_state
                key = size, member.run.cfg.minibatch_size, opt.config, opt.step_count
                steps.setdefault(key, []).append(member)
            try:
                for group in steps.values():
                    _step(spec, group, v)
            finally:
                # Visit v-1's records, and its error before visit v's, as serially.
                if pending is not None:
                    _collect(pending, kl_back)
                    pending = None
            groups = {}
            for member in active:
                groups.setdefault(id(member.run.validation), []).append(
                    (member, member.params, member.loss))
            groups = list(groups.values())
            if pool is None:
                _record(groups, _accuracies(spec, groups), v, kl_back)
            else:
                # In a copy of this thread's context, where numpy 2 keeps its
                # error state; a new thread would start from the defaults.
                pending = groups, v, pool.submit(
                    contextvars.copy_context().run, _accuracies, spec, groups)
        if pending is not None:
            _collect(pending, kl_back)
    finally:
        if pool is not None:
            pool.shutdown()
