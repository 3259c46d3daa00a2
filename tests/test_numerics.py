import numpy as np
import pytest

from fishershift.numerics import (
    MlpSpec,
    NumericsError,
    OptimizerConfig,
    ParameterVector,
    backward,
    cross_entropy_loss,
    forward,
    init_optimizer_state,
    init_params,
    loss_and_gradient,
    optimizer_step,
    parameter_layout,
    zero_params,
)
from oracles import (
    central_difference_gradient,
    max_relative_error,
    python_cross_entropy,
    python_mlp_forward,
)


def random_batch(spec, seed, n=8):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, spec.input_dim))
    labels = rng.integers(0, spec.output_classes, size=n)
    return x, labels


class TestForward:
    def test_zero_params_give_zero_logits_and_uniform_probs(self):
        spec = MlpSpec(input_dim=3, hidden_layers=((4, "relu"),), output_classes=5)
        params = zero_params(spec)
        x = np.random.default_rng(0).normal(size=(6, 3))
        logits = forward(spec, params, x)
        assert np.all(logits == 0.0)
        _, prob = cross_entropy_loss(logits, np.zeros(6, dtype=int))
        assert np.allclose(prob, 0.2, atol=1e-15)

    def test_identity_linear_layer(self):
        spec = MlpSpec(input_dim=2, hidden_layers=(), output_classes=2, bias=False)
        params = zero_params(spec).with_values(np.array([1.0, 0.0, 0.0, 1.0]))
        logits = forward(spec, params, np.array([[1.0, 2.0]]))
        assert np.array_equal(logits, np.array([[1.0, 2.0]]))

    def test_two_layer_forward_matches_hand_evaluation(self):
        # Independent oracle: scalar-arithmetic evaluation of the same weights.
        spec = MlpSpec(input_dim=2, hidden_layers=((4, "relu"),), output_classes=2)
        params = init_params(spec, seed=123)
        w1 = params.view("layer0.weight").tolist()
        b1 = params.view("layer0.bias").tolist()
        w2 = params.view("layer1.weight").tolist()
        b2 = params.view("layer1.bias").tolist()
        x = np.array([[0.3, -1.2], [2.0, 0.5], [-0.7, -0.1]])
        expected = np.array([python_mlp_forward(row, w1, b1, w2, b2) for row in x.tolist()])
        logits = forward(spec, params, x)
        assert np.allclose(logits, expected, atol=1e-12)

    def test_dimension_mismatch_raises(self):
        spec = MlpSpec(input_dim=3)
        with pytest.raises(NumericsError, match="features"):
            forward(spec, zero_params(spec), np.zeros((2, 4)))

    def test_non_finite_input_raises(self):
        spec = MlpSpec(input_dim=2)
        x = np.array([[1.0, np.inf]])
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match="non-finite"):
            forward(spec, zero_params(spec), x)


class TestCrossEntropy:
    def test_uniform_prediction_loss_is_log_c(self):
        logits = np.zeros((4, 10))
        loss, prob = cross_entropy_loss(logits, np.array([0, 3, 7, 9]))
        assert loss == pytest.approx(np.log(10.0), abs=1e-12)
        assert np.allclose(prob.sum(axis=1), 1.0, atol=1e-12)

    def test_saturated_logits_drive_loss_to_zero(self):
        labels = np.array([0, 1])
        losses = []
        for margin in (5.0, 20.0, 80.0):
            logits = np.array([[margin, 0.0], [0.0, margin]])
            losses.append(cross_entropy_loss(logits, labels)[0])
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-12

    def test_matches_log_sum_exp_oracle(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(scale=3.0, size=(16, 6))
        labels = rng.integers(0, 6, size=16)
        expected = python_cross_entropy(logits.tolist(), labels.tolist())
        loss, _ = cross_entropy_loss(logits, labels)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(NumericsError, match="label out of range"):
            cross_entropy_loss(np.zeros((2, 3)), np.array([0, 3]))

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            logits = rng.normal(scale=5.0, size=(5, 4))
            labels = rng.integers(0, 4, size=5)
            assert cross_entropy_loss(logits, labels)[0] >= 0.0


class TestBackward:
    def test_zero_gradient_at_symmetric_stationary_point(self):
        # Zero inputs through a bias-free hidden layer leave logits all equal;
        # with balanced labels the mean output delta cancels exactly.
        spec = MlpSpec(input_dim=2, hidden_layers=((3, "relu"),), output_classes=2, bias=False)
        params = init_params(spec, seed=5)
        x = np.zeros((4, 2))
        labels = np.array([0, 1, 0, 1])
        grad = backward(spec, params, x, labels)
        assert np.allclose(grad.values, 0.0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        spec = MlpSpec(
            input_dim=int(rng.integers(2, 5)),
            hidden_layers=((int(rng.integers(2, 6)), "relu"),),
            output_classes=int(rng.integers(2, 5)),
        )
        params = init_params(spec, seed=seed + 1000)
        x, labels = random_batch(spec, seed + 2000, n=6)

        def loss_at(theta):
            p = params.with_values(theta)
            return loss_and_gradient(spec, p, x, labels)[0]

        fd = central_difference_gradient(loss_at, params.values, step=1e-5)
        analytic = backward(spec, params, x, labels).values
        assert max_relative_error(analytic, fd, floor=1e-8) < 1e-4

    def test_duplicating_rows_leaves_mean_loss_and_gradient_unchanged(self):
        spec = MlpSpec(input_dim=3, hidden_layers=((4, "relu"),), output_classes=3)
        params = init_params(spec, seed=9)
        x, labels = random_batch(spec, 42, n=5)
        x2 = np.vstack([x, x])
        labels2 = np.concatenate([labels, labels])
        loss1, grad1 = loss_and_gradient(spec, params, x, labels)
        loss2, grad2 = loss_and_gradient(spec, params, x2, labels2)
        assert loss2 == pytest.approx(loss1, abs=1e-12)
        assert np.allclose(grad1.values, grad2.values, atol=1e-12)


class TestOptimizers:
    def layout_for(self, n):
        spec = MlpSpec(input_dim=n, hidden_layers=(), output_classes=2, bias=False)
        return parameter_layout(spec)

    def test_sgd_definition(self):
        cfg = OptimizerConfig(kind="sgd", learning_rate=0.1)
        spec = MlpSpec(input_dim=1, hidden_layers=(), output_classes=2, bias=False)
        params = zero_params(spec).with_values(np.array([1.0, 1.0]))
        grad = params.with_values(np.array([2.0, 2.0]))
        state = init_optimizer_state(cfg, 2)
        new_params, new_state = optimizer_step(state, params, grad)
        assert np.allclose(new_params.values, [0.8, 0.8], atol=1e-15)
        assert new_state.step_count == 1

    def test_adam_first_step_approximates_signed_learning_rate(self):
        # Hand-evaluated recurrence at t=1: m_hat = g, v_hat = g^2, so the
        # update is lr * g / (|g| + eps).
        cfg = OptimizerConfig(kind="adam", learning_rate=1e-3)
        spec = MlpSpec(input_dim=1, hidden_layers=(), output_classes=2, bias=False)
        params = zero_params(spec)
        g = np.array([0.5, -2.0])
        state = init_optimizer_state(cfg, 2)
        new_params, _ = optimizer_step(state, params, params.with_values(g))
        expected = -cfg.learning_rate * g / (np.abs(g) + cfg.eps)
        assert np.allclose(new_params.values, expected, atol=1e-15)
        assert np.allclose(new_params.values, -cfg.learning_rate * np.sign(g), rtol=1e-6)

    def test_zero_gradient_is_fixed_point(self):
        spec = MlpSpec(input_dim=2, hidden_layers=(), output_classes=2, bias=False)
        params = zero_params(spec).with_values(np.array([1.0, -1.0, 2.0, 0.5]))
        zero_grad = params.with_values(np.zeros(4))
        for kind in ("sgd", "adam"):
            state = init_optimizer_state(OptimizerConfig(kind=kind), 4)
            new_params, _ = optimizer_step(state, params, zero_grad)
            assert np.array_equal(new_params.values, params.values)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_in_place_update_matches_out_of_place_formula_bitwise(self, kind):
        cfg = OptimizerConfig(kind=kind, learning_rate=0.05)
        spec = MlpSpec(input_dim=3, hidden_layers=((4, "relu"),), output_classes=2)
        rng = np.random.default_rng(9)
        params = init_params(spec, 1)
        state = init_optimizer_state(cfg, params.size)
        values, m, v = params.values, np.zeros(params.size), np.zeros(params.size)
        for t in range(1, 6):
            g = rng.normal(size=params.size)
            params, state = optimizer_step(state, params, params.with_values(g))
            if kind == "sgd":
                values = values - cfg.learning_rate * g
            else:
                m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
                v = cfg.beta2 * v + (1.0 - cfg.beta2) * g**2
                m_hat = m / (1.0 - cfg.beta1**t)
                v_hat = v / (1.0 - cfg.beta2**t)
                values = values - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
                assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
            assert np.array_equal(params.values, values)
            assert state.step_count == t

    def test_non_finite_gradient_rejected(self):
        spec = MlpSpec(input_dim=1, hidden_layers=(), output_classes=2, bias=False)
        params = zero_params(spec)
        state = init_optimizer_state(OptimizerConfig(), 2)
        with pytest.raises(NumericsError, match="non-finite"):
            optimizer_step(state, params, params.with_values(np.array([np.nan, 0.0])))


class TestDeterminism:
    def test_same_seed_same_everything(self):
        spec = MlpSpec(input_dim=4, hidden_layers=((5, "relu"), (3, "identity")), output_classes=3)
        a = init_params(spec, seed=77)
        b = init_params(spec, seed=77)
        assert np.array_equal(a.values, b.values)
        x, labels = random_batch(spec, 3, n=7)
        la, ga = loss_and_gradient(spec, a, x, labels)
        lb, gb = loss_and_gradient(spec, b, x, labels)
        assert la == lb
        assert np.array_equal(ga.values, gb.values)


class TestLayout:
    def test_layout_sizes(self):
        spec = MlpSpec(input_dim=2, hidden_layers=((4, "relu"),), output_classes=2)
        layout = parameter_layout(spec)
        names = [s.name for s in layout]
        assert names == ["layer0.weight", "layer0.bias", "layer1.weight", "layer1.bias"]
        assert layout[-1].stop == 2 * 4 + 4 + 4 * 2 + 2

    def test_vector_length_must_match_layout(self):
        spec = MlpSpec(input_dim=2, hidden_layers=(), output_classes=2)
        with pytest.raises(NumericsError, match="layout expects"):
            ParameterVector(np.zeros(3), parameter_layout(spec))
