import numpy as np
import pytest

from fishershift.information import FisherEstimate
from fishershift.numerics import MlpSpec, init_params, loss_and_gradient, zero_params
from fishershift.penalty import (
    PenaltyConfig,
    PenaltyError,
    absorb_batch,
    penalized_loss_and_grad,
    penalty_gradient,
    penalty_term,
    penalty_value,
)
from oracles import central_difference_gradient, max_relative_error

SPEC = MlpSpec(input_dim=2, hidden_layers=((3, "relu"),), output_classes=2)


def estimate_for(values, params, n=10):
    return FisherEstimate(np.asarray(values, dtype=np.float64), params, n)


def full_vector(params, value):
    return np.full(params.size, float(value))


class TestAbsorb:
    def test_first_absorption_keeps_the_estimate(self):
        params = init_params(SPEC, 0)
        fisher = estimate_for(full_vector(params, 2.0), params, n=7)
        assert absorb_batch(None, fisher) is fisher

    def test_sum_accumulation_adds(self):
        params = init_params(SPEC, 0)
        state = absorb_batch(None, estimate_for(full_vector(params, 1.0), params))
        state = absorb_batch(state, estimate_for(full_vector(params, 3.0), params))
        assert np.allclose(state.diagonal, 4.0)
        assert state.sample_count == 20

    def test_later_absorbs_leave_every_estimate_unwritten(self):
        # The state holds the first estimate itself, so summing must make a
        # new diagonal rather than add into the caller's array.
        params = init_params(SPEC, 0)
        first = estimate_for(full_vector(params, 1.0), params, n=5)
        second = estimate_for(full_vector(params, 3.0), params, n=6)
        state = absorb_batch(absorb_batch(None, first), second)
        assert np.all(first.diagonal == 1.0) and first.sample_count == 5
        assert np.all(second.diagonal == 3.0) and second.sample_count == 6
        assert state.sample_count == 11

    def test_anchor_tracks_latest_batch_end(self):
        p0 = init_params(SPEC, 0)
        p1 = init_params(SPEC, 1)
        state = absorb_batch(None, estimate_for(full_vector(p0, 1.0), p0))
        state = absorb_batch(state, estimate_for(full_vector(p1, 1.0), p1))
        assert state.anchor is p1

    def test_layout_mismatch_rejected(self):
        params = init_params(SPEC, 0)
        other = init_params(MlpSpec(input_dim=3), 0)
        state = absorb_batch(None, estimate_for(full_vector(params, 1.0), params))
        with pytest.raises(PenaltyError, match="layout"):
            absorb_batch(state, estimate_for(full_vector(other, 1.0), other))


class TestPenaltyValue:
    def one_param_state(self, fisher_value, anchor_value):
        spec = MlpSpec(input_dim=1, hidden_layers=(), output_classes=2, bias=False)
        anchor = zero_params(spec).with_values(np.array([anchor_value, 0.0]))
        fisher = estimate_for(np.array([fisher_value, 0.0]), anchor)
        state = absorb_batch(None, fisher)
        return spec, anchor, state

    def test_lambda_zero_vanishes(self):
        spec, anchor, state = self.one_param_state(2.0, 0.0)
        params = anchor.with_values(np.array([5.0, 5.0]))
        assert penalty_value(state, params, PenaltyConfig(lam=0.0)) == 0.0

    def test_empty_state_contributes_nothing(self):
        params = init_params(SPEC, 0)
        assert penalty_value(None, params, PenaltyConfig(lam=0.5)) == 0.0

    def test_empty_state_has_zero_gradient(self):
        params = init_params(SPEC, 0)
        grad = penalty_gradient(None, params, PenaltyConfig(lam=0.5))
        assert grad.shape == params.values.shape and not grad.any()

    def test_hand_evaluated_quadratic(self):
        # lam/2 * F * shift^2 = 0.05 * 2 * 0.25
        spec, anchor, state = self.one_param_state(2.0, 0.0)
        params = anchor.with_values(np.array([0.5, 0.0]))
        value = penalty_value(state, params, PenaltyConfig(lam=0.1))
        assert value == pytest.approx(0.025, abs=1e-15)

    def test_zero_at_anchor(self):
        spec, anchor, state = self.one_param_state(3.0, 1.5)
        assert penalty_value(state, anchor, PenaltyConfig(lam=0.7)) == 0.0

    def test_linear_and_increasing_in_lambda(self):
        spec, anchor, state = self.one_param_state(2.0, 0.0)
        params = anchor.with_values(np.array([1.0, 0.0]))
        values = [penalty_value(state, params, PenaltyConfig(lam=l)) for l in (0.1, 0.2, 0.4)]
        assert values[0] < values[1] < values[2]
        assert values[1] == pytest.approx(2 * values[0], rel=1e-12)
        assert values[2] == pytest.approx(4 * values[0], rel=1e-12)

    def test_anchor_is_unique_minimizer_with_positive_fisher(self):
        params = init_params(SPEC, 3)
        fisher = estimate_for(full_vector(params, 0.8), params)
        state = absorb_batch(None, fisher)
        cfg = PenaltyConfig(lam=0.3)
        assert penalty_value(state, params, cfg) == 0.0
        rng = np.random.default_rng(0)
        for _ in range(25):
            other = params.with_values(params.values + rng.normal(scale=0.1, size=params.size))
            assert penalty_value(state, other, cfg) > 0.0

    def test_nonnegative_always(self):
        rng = np.random.default_rng(1)
        params = init_params(SPEC, 4)
        fisher = estimate_for(rng.uniform(0.0, 2.0, size=params.size), params)
        state = absorb_batch(None, fisher)
        for _ in range(50):
            theta = params.with_values(rng.normal(scale=2.0, size=params.size))
            assert penalty_value(state, theta, PenaltyConfig(lam=rng.uniform(0, 1))) >= 0.0


class TestPenalizedLossAndGrad:
    def seeded_case(self, seed):
        params = init_params(SPEC, seed)
        rng = np.random.default_rng(seed + 50)
        x = rng.normal(size=(12, 2))
        labels = rng.integers(0, 2, size=12)
        anchor = params.with_values(params.values + rng.normal(scale=0.3, size=params.size))
        fisher = estimate_for(rng.uniform(0.1, 2.0, size=params.size), anchor)
        state = absorb_batch(None, fisher)
        return params, x, labels, state

    def test_lambda_zero_reduces_to_plain_cross_entropy_bitwise(self):
        params, x, labels, state = self.seeded_case(0)
        cfg = PenaltyConfig(lam=0.0)
        loss_p, grad_p = penalized_loss_and_grad(SPEC, params, x, labels, state, cfg)
        loss_c, grad_c = loss_and_gradient(SPEC, params, x, labels)
        assert loss_p == loss_c
        assert np.array_equal(grad_p.values, grad_c.values)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_empty_state_reduces_to_plain_cross_entropy_bitwise(self, lam):
        # No batch consumed yet: no penalty, whatever lambda is.
        params, x, labels, _ = self.seeded_case(2)
        loss_p, grad_p = penalized_loss_and_grad(SPEC, params, x, labels, None,
                                                 PenaltyConfig(lam=lam))
        loss_c, grad_c = loss_and_gradient(SPEC, params, x, labels)
        assert loss_p == loss_c
        assert np.array_equal(grad_p.values, grad_c.values)

    def test_at_anchor_gradient_equals_pure_ce(self):
        params, x, labels, state = self.seeded_case(1)
        anchor = state.anchor
        cfg = PenaltyConfig(lam=0.5)
        _, grad_p = penalized_loss_and_grad(SPEC, anchor, x, labels, state, cfg)
        _, grad_c = loss_and_gradient(SPEC, anchor, x, labels)
        assert np.allclose(grad_p.values, grad_c.values, atol=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_quadratic_penalty_gradient_matches_finite_differences(self, seed):
        params, x, labels, state = self.seeded_case(seed)
        cfg = PenaltyConfig(lam=0.25)

        def pen_at(theta):
            return penalty_value(state, params.with_values(theta), cfg)

        # Quadratic penalty: central differences are truncation-free, so a
        # generous step keeps the comparison down at roundoff level.
        fd = central_difference_gradient(pen_at, params.values, step=1e-4)
        analytic = penalty_gradient(state, params, cfg)
        assert max_relative_error(analytic, fd, floor=1e-8) < 1e-6


class TestPenaltyTerm:
    """``penalty_term`` over a stack of members: which members pay, how their
    rows are indexed, and that each pays what it would pay alone."""

    # One letter per member: "p" has a state and lam 0.3, "n" has no state
    # and lam 0.3, "z" has a state and lam 0.
    @pytest.mark.parametrize(
        "members, rows",
        [("ppp", slice(0, 3)), ("npp", slice(1, 3)), ("pnp", [0, 2]), ("pzp", [0, 2]),
         ("nz", None)],
    )
    def test_penalised_rows_and_values(self, members, rows):
        rng = np.random.default_rng(len(members))
        params = [init_params(SPEC, seed) for seed in range(len(members))]
        states = [
            None if kind == "n" else estimate_for(
                rng.uniform(0.1, 2.0, size=p.size),
                p.with_values(p.values + rng.normal(scale=0.3, size=p.size)))
            for kind, p in zip(members, params)
        ]
        lams = [0.0 if kind == "z" else 0.3 for kind in members]
        term = penalty_term(states, lams, params)
        if rows is None:
            assert term is None
            return
        got_rows, quadratic = term
        if isinstance(rows, slice):
            assert got_rows == rows
        else:
            assert isinstance(got_rows, np.ndarray) and got_rows.tolist() == rows
        paying = [i for i, kind in enumerate(members) if kind == "p"]
        values, grads = quadratic(np.stack([params[i].values for i in paying]))
        for value, grad, i in zip(values, grads, paying):
            cfg = PenaltyConfig(lam=lams[i])
            assert value == penalty_value(states[i], params[i], cfg)
            assert np.array_equal(grad, penalty_gradient(states[i], params[i], cfg))

    def test_layout_mismatch_rejected(self):
        params = init_params(SPEC, 0)
        other = init_params(MlpSpec(input_dim=3), 0)
        state = estimate_for(full_vector(params, 1.0), params)
        with pytest.raises(PenaltyError, match="layout"):
            penalty_term((state,), (0.3,), (other,))


class TestConfigValidation:
    def test_negative_lambda_rejected(self):
        with pytest.raises(PenaltyError, match="lam"):
            PenaltyConfig(lam=-0.1)

    def test_lambda_is_the_only_setting(self):
        # Consumed batches always add up; the rule is fixed, not a field.
        assert PenaltyConfig().accumulation == "sum"
        with pytest.raises(TypeError, match="accumulation"):
            PenaltyConfig(accumulation="mean")
