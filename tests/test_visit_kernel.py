"""The stacked batch-visit kernel against the step-by-step composition of each member."""

import numpy as np
import pytest

from fishershift.information import empirical_fisher_diagonal
from fishershift.numerics import (
    MlpSpec,
    NumericsError,
    OptimizerConfig,
    forward,
    forward_stack,
    init_optimizer_state,
    init_params,
    optimizer_step,
    train_visit,
)
from fishershift.penalty import (
    PenaltyConfig,
    absorb_batch,
    penalized_loss_and_grad,
    penalty_term,
)

TABULAR = MlpSpec(input_dim=4, hidden_layers=((4, "relu"),), output_classes=2)
DEEP = MlpSpec(input_dim=4, hidden_layers=((5, "relu"), (3, "identity")), output_classes=3)
NO_BIAS = MlpSpec(input_dim=4, hidden_layers=((4, "relu"),), output_classes=2, bias=False)
# A width-1 hidden layer, whose bias rows numpy sums pairwise, and 10 classes,
# which the class reductions sum as ufuncs.
NARROW = MlpSpec(input_dim=4, hidden_layers=((1, "relu"),), output_classes=10)


def batch(spec, n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, spec.input_dim)), rng.integers(0, spec.output_classes, size=n)


def consumed_state(spec, batches):
    """A penalty state that has absorbed ``batches`` batches, each at its own
    anchor: none is ``None``, one keeps the first estimate itself, two sums
    two diagonals."""
    state = None
    for seed in (11, 12)[:batches]:
        x, y = batch(spec, 40, seed)
        state = absorb_batch(state, empirical_fisher_diagonal(spec, init_params(spec, seed), x, y))
    return state


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
    M=3 adds a lambda-0 member and a member with no state; M=4 adds a second
    penalised member after them, so the penalised rows are not contiguous."""
    state = consumed_state(spec, {"empty": 0, "one": 1, "sum": 2}[penalty])
    cfg, zero, stronger = (PenaltyConfig(lam=lam) for lam in (0.3, 0.0, 0.7))
    sets = {
        1: [(state, cfg)],
        3: [(state, zero), (state, cfg), (None, cfg)],
        4: [(state, cfg), (state, zero), (None, cfg), (state, stronger)],
    }
    return sets[members]


@pytest.mark.parametrize(
    "spec", [TABULAR, DEEP, NO_BIAS, NARROW], ids=["tabular", "deep", "no_bias", "narrow"]
)
@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("penalty", ["empty", "one", "sum"])
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
    lams = [cfg.lam for _, cfg in penalties]
    term = penalty_term(states, lams, params)
    assert (term is None) == (penalty == "empty")
    # Every member passes the same array.
    got_p, got_opt, got_loss = train_visit(
        spec, params, opt_states, [x] * members, [y] * members, 32, term
    )

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
    _, (stepped,), _ = train_visit(TABULAR, (params,), (fresh,), [x], [y], 32)
    with pytest.raises(NumericsError, match="step count"):
        train_visit(TABULAR, (params, params), (fresh, stepped), [x] * 2, [y] * 2, 32)
    other = init_optimizer_state(OptimizerConfig(learning_rate=0.5), params.size)
    with pytest.raises(NumericsError, match="one config"):
        train_visit(TABULAR, (params, params), (fresh, other), [x] * 2, [y] * 2, 32)
    with pytest.raises(NumericsError, match="one config"):
        train_visit(TABULAR, (params,), (), [x], [y], 32)


def test_nan_feature_raises():
    x, y = batch(TABULAR, 64, seed=1)
    x[40, 2] = np.nan
    params = init_params(TABULAR, 0)
    opt_state = init_optimizer_state(OptimizerConfig(), params.size)
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match="non-finite"):
        train_visit(TABULAR, (params,), (opt_state,), [x], [y], 32)


def test_batch_shape_and_labels_checked_once_per_visit():
    x, y = batch(TABULAR, 64, seed=1)
    params = init_params(TABULAR, 0)
    opt_state = init_optimizer_state(OptimizerConfig(), params.size)
    with pytest.raises(NumericsError, match="features"):
        train_visit(TABULAR, (params,), (opt_state,), [x[:, :3]], [y], 32)
    y = y.copy()
    y[63] = 2  # only the last minibatch holds the bad label
    with pytest.raises(NumericsError, match="label out of range"):
        train_visit(TABULAR, (params,), (opt_state,), [x], [y], 32)


def test_layout_mismatch_rejected():
    x, y = batch(TABULAR, 32, seed=1)
    params = init_params(NO_BIAS, 0)
    opt_state = init_optimizer_state(OptimizerConfig(), params.size)
    with pytest.raises(NumericsError, match="layout"):
        train_visit(TABULAR, (params,), (opt_state,), [x], [y], 32)


def member_batches(spec, rows, blocks):
    """``blocks`` batches of ``rows`` rows, each drawn from its own seed."""
    return [batch(spec, rows, seed=20 + d) for d in range(blocks)]


@pytest.mark.parametrize(
    "spec", [TABULAR, DEEP, NO_BIAS, NARROW], ids=["tabular", "deep", "no_bias", "narrow"]
)
@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("penalty", ["empty", "one", "sum"])
@pytest.mark.parametrize("rows", [96, 77], ids=["even", "ragged"])
@pytest.mark.parametrize(
    "order",
    [(0,), (0, 1, 2), (0, 1, 2, 3), (0, 0, 1, 1), (0, 1, 0, 1)],
    ids=["M1", "M3", "M4", "M4-pairs", "M4-repeated"],
)
@pytest.mark.parametrize("form", ["contiguous", "strided"])
def test_per_member_inputs_match_each_members_own_visit(spec, kind, penalty, rows, order, form):
    # ``order`` names each member's batch. M4-pairs passes two batches, each
    # as the same array for two neighbouring members; M4-repeated for two
    # members that are not neighbours, as the trainer may. A strided batch
    # is every other row of a longer array, a view that is not contiguous.
    members = len(order)
    penalties = member_penalties(spec, penalty, members)
    batches = member_batches(spec, rows, max(order) + 1)
    if form == "strided":
        batches = [(np.repeat(x, 2, axis=0)[::2], np.repeat(y, 2)[::2]) for x, y in batches]
        assert not batches[0][0].flags.c_contiguous
    own = [batches[d] for d in order]
    opt_cfg = OptimizerConfig(kind=kind, learning_rate=0.05)
    starts = []
    for seed, ((state, cfg), (x, y)) in enumerate(zip(penalties, own), start=3):
        params = init_params(spec, seed)
        opt_state = init_optimizer_state(opt_cfg, params.size)
        starts.append(reference_visit(spec, params, opt_state, x, y, 32, state, cfg)[:2])
    params = tuple(p for p, _ in starts)
    opt_states = tuple(o for _, o in starts)

    xs, ys = [x for x, _ in own], [y for _, y in own]
    term = penalty_term([s for s, _ in penalties], [c.lam for _, c in penalties], params)
    got_p, got_opt, got_loss = train_visit(spec, params, opt_states, xs, ys, 32, term)

    for i, ((state, cfg), (x, y)) in enumerate(zip(penalties, own)):
        want_p, want_opt, want_loss = reference_visit(
            spec, params[i], opt_states[i], x, y, 32, state, cfg
        )
        assert np.array_equal(got_p[i].values, want_p.values)
        assert np.array_equal(got_opt[i].m, want_opt.m)
        assert np.array_equal(got_opt[i].v, want_opt.v)
        assert got_opt[i].step_count == want_opt.step_count
        assert got_loss[i] == want_loss


@pytest.mark.parametrize("spec", [TABULAR, DEEP, NO_BIAS], ids=["tabular", "deep", "no_bias"])
@pytest.mark.parametrize("members", [1, 3], ids=["M1", "M3"])
def test_forward_stack_shares_one_batch(spec, members):
    params = tuple(init_params(spec, seed) for seed in range(members))
    x, _ = batch(spec, 33, seed=20)
    logits = forward_stack(spec, params, x)
    assert logits.shape == (members, 33, spec.output_classes)
    for j, member in enumerate(params):
        assert np.array_equal(logits[j], forward(spec, member, x))


def rejected_visits():
    """By name: members, one visit's inputs and labels of a form the kernel
    rejects, and the one-line message it raises; ``x2`` has 60 rows, ``x`` 64."""
    (x, y), (x2, y2) = member_batches(TABULAR, 64, 2)
    x2, y2 = x2[:60], y2[:60]
    batches = "expected one input batch per member, as a list of {}".format
    vectors = "expected one label vector per member, as a list of {}".format
    two_d = "input must be 2-D (rows, features)"
    return {
        "bare_batch_M1": (1, x, [y], batches(1)),
        "bare_batch_M2": (2, x, [y, y], batches(2)),
        "stacked_batches": (2, np.stack([x, x]), [y, y], batches(2)),
        "one_batch_for_M2": (2, [x], [y, y], batches(2)),
        "three_batches_for_M2": (2, [x, x, x], [y, y], batches(2)),
        "no_batch": (1, [], [y], batches(1)),
        "1d_block": (1, [x[0]], [y[:1]], two_d),
        "3d_block": (1, [x[None]], [y], two_d),
        "unequal_rows": (2, [x, x2], [y, y2], "every member's batch must have the same rows"),
        "bare_labels": (1, [x], y, vectors(1)),
        "one_label_vector_for_M2": (2, [x, x], [y], vectors(2)),
        "stacked_labels": (2, [x, x], np.stack([y, y]), vectors(2)),
        "short_labels": (2, [x, x], [y, y[:63]], "expected 64 labels for each input block"),
        "2d_labels": (1, [x], [y[:, None]], "expected 64 labels for each input block"),
    }


REJECTED_VISITS = rejected_visits()


@pytest.mark.parametrize("case", list(REJECTED_VISITS))
def test_train_visit_takes_only_one_batch_per_member(case):
    members, xs, ys, message = REJECTED_VISITS[case]
    params = init_params(TABULAR, 0)
    opt_state = init_optimizer_state(OptimizerConfig(), params.size)
    with pytest.raises(NumericsError) as exc:
        train_visit(TABULAR, (params,) * members, (opt_state,) * members, xs, ys, 32)
    assert str(exc.value) == message


@pytest.mark.parametrize("members", [1, 2], ids=["M1", "M2"])
@pytest.mark.parametrize("blocks", [1, 2])
def test_forward_stack_rejects_a_list_of_batches(members, blocks):
    params = tuple(init_params(TABULAR, seed) for seed in range(members))
    xs = [x for x, _ in member_batches(TABULAR, 33, blocks)]
    with pytest.raises(NumericsError, match="^input must be 2-D \\(rows, features\\)$"):
        forward_stack(TABULAR, params, xs)


def test_empty_batch_and_minibatch_size_checked():
    params = init_params(TABULAR, 0)
    opt_state = init_optimizer_state(OptimizerConfig(), params.size)
    x, y = batch(TABULAR, 64, seed=1)
    with pytest.raises(NumericsError, match="at least one row"):
        train_visit(TABULAR, (params,), (opt_state,), [x[:0]], [y[:0]], 32)
    with pytest.raises(NumericsError, match="minibatch_size must be >= 1"):
        train_visit(TABULAR, (params,), (opt_state,), [x], [y], 0)
