"""Sequential-batch training with an accumulated Fisher-information penalty.

The library trains a small classifier over an ordered sequence of data
batches. Every consumed batch leaves behind a diagonal Fisher-information
summary anchored at the parameters it finished with; later batches pay a
quadratic penalty for pulling parameters away from that anchor. Setting the
penalty strength to zero recovers plain cross-entropy training exactly.

Modules:
  numerics     dense MLP forward/backward passes and optimizers
  information  Fisher information, KL divergence, the variance lower bound
  penalty      the accumulated penalty state and penalised loss
  data         ingestion, causal fragmentation, synthetic drift recipes
  trainer      the sequential training loop and baselines
  bench        split-grid experiment harness and report emission
  cli          command-line entry points (train, sweep, synth, report)
"""

from .bench import (
    BATCHWISE_GRID,
    ExperimentReport,
    LAMBDA_GRID,
    ProtocolSpec,
    ReportRow,
    derive_seed,
    drift_benchmark_config,
    drift_benchmark_recipe,
    emit_report,
    emit_series_csv,
    lambda_sweep,
    tabular_spec,
    verify_report,
)
from .data import (
    DataError,
    Dataset,
    FragmentationPlan,
    ShiftRecipe,
    batch_moments,
    fragment,
    load_csv,
    load_idx,
    synth_shift,
    train_validation_split,
    write_csv,
)
from .information import (
    Bernoulli,
    CrlbCheck,
    FisherEstimate,
    GaussianMean,
    GaussianMoments,
    InformationError,
    crlb_verify,
    discrete_kl,
    empirical_fisher_diagonal,
    empirical_fisher_full,
    empirical_fisher_scalar,
    gaussian_kl,
    gaussian_kl_quadrature,
    hessian_diagonal_fd_oracle,
    kl_second_order,
    negative_hessian_diagonal,
)
from .numerics import (
    MlpSpec,
    NumericsError,
    OptimizerConfig,
    OptimizerState,
    ParameterVector,
    cross_entropy_loss,
    forward,
    init_optimizer_state,
    init_params,
    loss_and_gradient,
    optimizer_step,
    parameter_layout,
    zero_params,
)
from .penalty import (
    PenaltyConfig,
    PenaltyError,
    absorb_batch,
    penalized_loss_and_grad,
    penalty_gradient,
    penalty_value,
)
from .trainer import (
    BatchRecord,
    Run,
    RunTrace,
    TrainConfig,
    TrainerError,
    evaluate,
    shift_correction,
    train_members,
)

__version__ = "0.1.0"
