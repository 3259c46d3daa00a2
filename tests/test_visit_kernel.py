"""The stacked batch-visit kernel against the step-by-step composition of each member."""

import numpy as np
import pytest

from fishershift.information import empirical_fisher_diagonal
from fishershift.numerics import (
    MlpSpec,
    NumericsError,
    OptimizerConfig,
    init_optimizer_state,
    init_params,
    optimizer_step,
    train_visit,
)
from fishershift.penalty import (
    PenaltyConfig,
    PenaltyState,
    absorb_batch,
    penalized_loss_and_grad,
    penalty_term,
)

TABULAR = MlpSpec(input_dim=4, hidden_layers=((4, "relu"),), output_classes=2)
DEEP = MlpSpec(input_dim=4, hidden_layers=((5, "relu"), (3, "identity")), output_classes=3)
NO_BIAS = MlpSpec(input_dim=4, hidden_layers=((4, "relu"),), output_classes=2, bias=False)


def batch(spec, n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, spec.input_dim)), rng.integers(0, spec.output_classes, size=n)


def consumed_state(spec, accumulation):
    """A penalty state that has absorbed two batches at two different anchors."""
    cfg = PenaltyConfig(lam=0.3, accumulation=accumulation)
    state = PenaltyState.empty()
    for seed in (11, 12):
        anchor = init_params(spec, seed)
        x, y = batch(spec, 40, seed)
        state = absorb_batch(state, empirical_fisher_diagonal(spec, anchor, x, y), anchor, cfg)
    return state, cfg


def reference_visit(spec, params, opt_state, x, y, minibatch_size, state, cfg):
    """``penalized_loss_and_grad`` then ``optimizer_step`` over each minibatch."""
    losses = []
    for start in range(0, x.shape[0], minibatch_size):
        sl = slice(start, start + minibatch_size)
        loss, grad = penalized_loss_and_grad(spec, params, x[sl], y[sl], state, cfg)
        params, opt_state = optimizer_step(opt_state, params, grad)
        losses.append(loss)
    return params, opt_state, float(np.mean(losses))


def member_penalties(spec, penalty, members):
    """One (state, config) per member: M=1 is the parametrised penalty alone;
    M=3 adds a lambda-0 member and an empty-state member; M=4 adds a second
    penalised member after them, so the penalised rows are not contiguous."""
    if penalty == "empty":
        state, cfg = PenaltyState.empty(), PenaltyConfig(lam=0.3)
    else:
        state, cfg = consumed_state(spec, penalty)
    zero = PenaltyConfig(lam=0.0, accumulation=cfg.accumulation)
    stronger = PenaltyConfig(lam=0.7, accumulation=cfg.accumulation)
    sets = {
        1: [(state, cfg)],
        3: [(state, zero), (state, cfg), (PenaltyState.empty(), cfg)],
        4: [(state, cfg), (state, zero), (PenaltyState.empty(), cfg), (state, stronger)],
    }
    return sets[members]


@pytest.mark.parametrize("spec", [TABULAR, DEEP, NO_BIAS], ids=["tabular", "deep", "no_bias"])
@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("penalty", ["empty", "sum", "mean"])
@pytest.mark.parametrize("rows", [96, 77], ids=["even", "ragged"])
@pytest.mark.parametrize("members", [1, 3, 4], ids=["M1", "M3", "M4"])
def test_kernel_matches_step_composition_bitwise(spec, kind, penalty, rows, members):
    penalties = member_penalties(spec, penalty, members)
    x, y = batch(spec, rows, seed=5)
    opt_cfg = OptimizerConfig(kind=kind, learning_rate=0.05)
    # Start mid-run, each member from its own seed and under its own penalty,
    # so parameters, Adam moments and the step count are non-trivial.
    starts = []
    for seed, (state, cfg) in enumerate(penalties, start=3):
        params = init_params(spec, seed)
        opt_state = init_optimizer_state(opt_cfg, params.size)
        starts.append(reference_visit(spec, params, opt_state, x, y, 32, state, cfg)[:2])
    params = tuple(p for p, _ in starts)
    opt_states = tuple(o for _, o in starts)
    before = [(p.values.copy(), o.m.copy(), o.v.copy()) for p, o in starts]

    states = [state for state, _ in penalties]
    cfgs = [cfg for _, cfg in penalties]
    term = penalty_term(states, cfgs, params)
    assert (term is None) == (penalty == "empty")
    got_p, got_opt, got_loss = train_visit(spec, params, opt_states, x, y, 32, term)

    assert len(got_p) == len(got_opt) == len(got_loss) == members
    for i, (state, cfg) in enumerate(penalties):
        want_p, want_opt, want_loss = reference_visit(
            spec, params[i], opt_states[i], x, y, 32, state, cfg
        )
        assert np.array_equal(got_p[i].values, want_p.values)
        assert np.array_equal(got_opt[i].m, want_opt.m)
        assert np.array_equal(got_opt[i].v, want_opt.v)
        assert got_opt[i].step_count == want_opt.step_count
        assert got_loss[i] == want_loss
        assert got_p[i].layout == params[i].layout
        # The caller's parameters and optimizer states are never written.
        assert np.array_equal(params[i].values, before[i][0])
        assert np.array_equal(opt_states[i].m, before[i][1])
        assert np.array_equal(opt_states[i].v, before[i][2])


def test_members_must_share_the_optimizer_step():
    x, y = batch(TABULAR, 64, seed=1)
    params = init_params(TABULAR, 0)
    fresh = init_optimizer_state(OptimizerConfig(), params.size)
    _, (stepped,), _ = train_visit(TABULAR, (params,), (fresh,), x, y, 32)
    with pytest.raises(NumericsError, match="step count"):
        train_visit(TABULAR, (params, params), (fresh, stepped), x, y, 32)
    other = init_optimizer_state(OptimizerConfig(learning_rate=0.5), params.size)
    with pytest.raises(NumericsError, match="one config"):
        train_visit(TABULAR, (params, params), (fresh, other), x, y, 32)


def test_nan_feature_raises():
    x, y = batch(TABULAR, 64, seed=1)
    x[40, 2] = np.nan
    params = init_params(TABULAR, 0)
    opt_state = init_optimizer_state(OptimizerConfig(), params.size)
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match="non-finite"):
        train_visit(TABULAR, (params,), (opt_state,), x, y, 32)


def test_batch_shape_and_labels_checked_once_per_visit():
    x, y = batch(TABULAR, 64, seed=1)
    params = init_params(TABULAR, 0)
    opt_state = init_optimizer_state(OptimizerConfig(), params.size)
    with pytest.raises(NumericsError, match="features"):
        train_visit(TABULAR, (params,), (opt_state,), x[:, :3], y, 32)
    y = y.copy()
    y[63] = 2  # only the last minibatch holds the bad label
    with pytest.raises(NumericsError, match="label out of range"):
        train_visit(TABULAR, (params,), (opt_state,), x, y, 32)


def test_layout_mismatch_rejected():
    x, y = batch(TABULAR, 32, seed=1)
    params = init_params(NO_BIAS, 0)
    opt_state = init_optimizer_state(OptimizerConfig(), params.size)
    with pytest.raises(NumericsError, match="layout"):
        train_visit(TABULAR, (params,), (opt_state,), x, y, 32)
