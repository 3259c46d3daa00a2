import numpy as np
import pytest

from fishershift.information import (
    Bernoulli,
    GaussianMean,
    GaussianMoments,
    InformationError,
    crlb_verify,
    discrete_kl,
    empirical_fisher_diagonal,
    empirical_fisher_scalar,
    gaussian_kl,
    kl_second_order,
)
from fishershift.numerics import MlpSpec, cross_entropy_loss, forward, init_params
from oracles import (
    empirical_fisher_full,
    gaussian_kl_quadrature,
    hessian_diagonal_fd_oracle,
    negative_hessian_diagonal,
    zero_params,
)


def sample_model_labels(spec, params, x, rng):
    """Draw labels from the classifier's own conditional so it is well specified."""
    logits = forward(spec, params, x)
    _, prob = cross_entropy_loss(logits, np.zeros(x.shape[0], dtype=int))
    cum = np.cumsum(prob, axis=1)
    u = rng.random((x.shape[0], 1))
    return (u > cum).sum(axis=1)


class TestGaussianKl:
    def test_identical_distributions_give_zero(self):
        p = GaussianMoments(0.0, 1.0)
        assert gaussian_kl(p, p) == 0.0

    def test_unit_mean_shift(self):
        # Frozen from the quadrature oracle over [-12, 12].
        p = GaussianMoments(0.0, 1.0)
        q = GaussianMoments(1.0, 1.0)
        assert gaussian_kl(p, q) == pytest.approx(0.5, abs=1e-12)
        assert gaussian_kl_quadrature(p, q) == pytest.approx(0.5, abs=1e-8)

    def test_variance_doubling(self):
        p = GaussianMoments(0.0, 1.0)
        q = GaussianMoments(0.0, 2.0)
        expected = 0.0965735902799727  # oracle value; equals (ln 2 - 1/2) / 2
        assert gaussian_kl(p, q) == pytest.approx(expected, abs=1e-12)
        assert gaussian_kl_quadrature(p, q) == pytest.approx(expected, abs=1e-8)

    def test_nonnegative_over_random_moment_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = GaussianMoments(rng.normal(size=3), rng.uniform(0.1, 5.0, size=3))
            q = GaussianMoments(rng.normal(size=3), rng.uniform(0.1, 5.0, size=3))
            assert gaussian_kl(p, q) >= 0.0

    def test_asymmetry_witness(self):
        p = GaussianMoments(0.0, 1.0)
        q = GaussianMoments(0.0, 2.0)
        assert gaussian_kl(p, q) != gaussian_kl(q, p)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(InformationError, match="positive"):
            GaussianMoments(0.0, 0.0)
        with pytest.raises(InformationError, match="positive"):
            GaussianMoments(np.zeros(2), np.array([1.0, -1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(InformationError, match="dimensions"):
            gaussian_kl(GaussianMoments(np.zeros(2), np.ones(2)), GaussianMoments(0.0, 1.0))


class TestQuadratureOracle:
    def test_matches_closed_form_on_gaussian_pair(self):
        p = GaussianMoments(0.5, 0.8)
        q = GaussianMoments(-0.3, 1.7)
        assert gaussian_kl_quadrature(p, q) == pytest.approx(gaussian_kl(p, q), abs=1e-6)

    def test_bernoulli_discrete_sum(self):
        # Exact two-term value for p=0.5 against q=0.6.
        assert discrete_kl([0.5, 0.5], [0.6, 0.4]) == pytest.approx(0.0204109973, abs=1e-9)


class TestAnalyticFisher:
    def test_bernoulli_half(self):
        assert Bernoulli().fisher(0.5) == pytest.approx(4.0, abs=1e-15)

    def test_gaussian_mean_known_variance(self):
        assert GaussianMean(4.0).fisher(1.3) == pytest.approx(0.25, abs=1e-15)

    def test_bernoulli_symmetry(self):
        fam = Bernoulli()
        for p in (0.1, 0.3, 0.45):
            assert fam.fisher(p) == pytest.approx(fam.fisher(1.0 - p))

    def test_boundary_parameter_rejected(self):
        with pytest.raises(InformationError):
            Bernoulli().fisher(1.0)
        with pytest.raises(InformationError):
            GaussianMean(0.0)


class TestEmpiricalFisher:
    def test_logistic_unit_at_origin(self):
        # One-weight-per-class logistic encoding: at zero weights with unit
        # inputs and balanced labels the squared score is exactly p(1-p)x^2.
        spec = MlpSpec(input_dim=1, hidden_layers=(), output_classes=2, bias=False)
        params = zero_params(spec)
        x = np.ones((4, 1))
        labels = np.array([0, 1, 0, 1])
        est = empirical_fisher_diagonal(spec, params, x, labels)
        assert np.allclose(est.diagonal, 0.25, atol=1e-15)
        assert est.sample_count == 4
        assert est.anchor is params

    def test_zero_inputs_bias_free_model_give_zero_fisher(self):
        spec = MlpSpec(input_dim=3, hidden_layers=((4, "relu"),), output_classes=2, bias=False)
        params = init_params(spec, seed=1)
        est = empirical_fisher_diagonal(spec, params, np.zeros((5, 3)), np.array([0, 1, 0, 1, 0]))
        assert np.allclose(est.diagonal, 0.0, atol=1e-15)

    def test_matches_fd_hessian_on_seeded_smooth_mlp(self):
        # Smooth (identity-activation) network keeps the second differences
        # clean; relu kinks are incompatible with an h^-2 difference quotient.
        spec = MlpSpec(input_dim=2, hidden_layers=((4, "identity"),), output_classes=2)
        params = init_params(spec, seed=2)
        rng = np.random.default_rng(102)
        x = rng.normal(size=(100_000, 2))
        labels = sample_model_labels(spec, params, x, rng)
        fisher = empirical_fisher_diagonal(spec, params, x, labels).diagonal
        hess = hessian_diagonal_fd_oracle(spec, params, x, labels)
        assert np.max(np.abs(fisher - hess) / np.abs(hess)) < 0.05

    def test_empty_batch_rejected(self):
        spec = MlpSpec(input_dim=2)
        with pytest.raises(InformationError, match="empty"):
            empirical_fisher_diagonal(spec, init_params(spec, 0), np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_diagonal_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            spec = MlpSpec(input_dim=3, hidden_layers=((4, "relu"),), output_classes=3)
            params = init_params(spec, seed=seed)
            x = rng.normal(size=(20, 3))
            labels = rng.integers(0, 3, size=20)
            est = empirical_fisher_diagonal(spec, params, x, labels)
            assert np.all(est.diagonal >= 0.0)

    def test_full_matrix_diagonal_matches_fast_path(self):
        spec = MlpSpec(input_dim=2, hidden_layers=((3, "relu"),), output_classes=2)
        params = init_params(spec, seed=8)
        rng = np.random.default_rng(80)
        x = rng.normal(size=(25, 2))
        labels = rng.integers(0, 2, size=25)
        full = empirical_fisher_full(spec, params, x, labels)
        diag = empirical_fisher_diagonal(spec, params, x, labels).diagonal
        assert np.allclose(np.diag(full), diag, atol=1e-12)
        assert np.allclose(full, full.T, atol=1e-15)
        eigenvalues = np.linalg.eigvalsh(full)
        assert eigenvalues.min() >= -1e-12  # outer products: positive semidefinite

    def test_full_matrix_guarded_by_parameter_limit(self):
        spec = MlpSpec(input_dim=10, hidden_layers=((10, "relu"),), output_classes=5)
        params = init_params(spec, seed=0)
        with pytest.raises(InformationError, match="limited"):
            empirical_fisher_full(spec, params, np.zeros((2, 10)), np.zeros(2, dtype=int))


class TestHessianOracle:
    def test_quadratic_log_likelihood_has_unit_curvature(self):
        fn = lambda theta: -0.5 * float(theta[0] ** 2)
        out = negative_hessian_diagonal(fn, np.array([0.7]))
        assert out[0] == pytest.approx(1.0, abs=1e-6)

    def test_bernoulli_large_sample_curvature(self):
        fam = Bernoulli()
        sample = fam.simulate(np.random.default_rng(3), 0.5, 100_000)
        fd = negative_hessian_diagonal(lambda t: fam.log_likelihood(t[0], sample), np.array([0.5]))
        assert fd[0] == pytest.approx(4.0, rel=0.02)

    def test_score_hessian_identity_on_scalar_toys(self):
        rng = np.random.default_rng(4)
        bern = Bernoulli()
        xs = bern.simulate(rng, 0.4, 20_000)
        emp = empirical_fisher_scalar(bern, 0.4, xs)
        fd = negative_hessian_diagonal(lambda t: bern.log_likelihood(t[0], xs), np.array([0.4]))[0]
        assert emp == pytest.approx(fd, rel=0.05)

        gauss = GaussianMean(2.5)
        ys = gauss.simulate(rng, -1.0, 20_000)
        emp = empirical_fisher_scalar(gauss, -1.0, ys)
        fd = negative_hessian_diagonal(lambda t: gauss.log_likelihood(t[0], ys), np.array([-1.0]))[0]
        assert emp == pytest.approx(fd, rel=0.05)


class TestCrlb:
    def test_gaussian_mean_efficient_estimator(self):
        check = crlb_verify(GaussianMean(1.0), 0.0, n=100, replications=10_000, seed=2)
        assert check.bound == pytest.approx(0.01, abs=1e-15)
        assert check.estimator_variance == pytest.approx(check.bound, rel=0.05)
        assert check.satisfied

    def test_bernoulli_efficient_estimator(self):
        check = crlb_verify(Bernoulli(), 0.5, n=50, replications=10_000, seed=3)
        assert check.bound == pytest.approx(0.005, abs=1e-15)
        assert check.estimator_variance == pytest.approx(check.bound, rel=0.05)
        assert check.satisfied

    def test_replication_floor_enforced(self):
        with pytest.raises(InformationError, match="replications"):
            crlb_verify(Bernoulli(), 0.5, n=10, replications=10, seed=0)

    def test_seed_order_independence(self):
        a = crlb_verify(Bernoulli(), 0.3, n=40, replications=2_000, seed=9)
        b = crlb_verify(Bernoulli(), 0.3, n=40, replications=2_000, seed=9)
        assert a == b


class TestKlSecondOrder:
    def test_zero_displacement(self):
        assert kl_second_order(0.3, 0.3, 5.0) == 0.0

    def test_gaussian_mean_shift_is_exact(self):
        # Equal-variance mean shift: the expansion coincides with the true KL.
        delta = 0.1
        approx = kl_second_order(delta, 0.0, 1.0)
        exact = gaussian_kl(GaussianMoments(0.0, 1.0), GaussianMoments(delta, 1.0))
        assert approx == pytest.approx(0.005, abs=1e-15)
        assert approx == pytest.approx(exact, abs=1e-12)

    def test_bernoulli_error_shrinks_cubically_or_better(self):
        errors = []
        for delta in (0.1, 0.05, 0.025):
            exact = discrete_kl([0.5, 0.5], [0.5 + delta, 0.5 - delta])
            approx = kl_second_order(0.5 + delta, 0.5, 4.0)
            errors.append(abs(exact - approx))
        assert approx == pytest.approx(0.00125, abs=1e-15)
        assert errors[0] / errors[1] >= 6.0
        assert errors[1] / errors[2] >= 6.0

    def test_negative_fisher_rejected(self):
        with pytest.raises(InformationError, match="nonnegative"):
            kl_second_order(0.1, 0.0, -1.0)
