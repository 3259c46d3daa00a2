"""Information-theoretic quantities: Fisher information, KL divergence, CRLB.

Covers the closed-form Gaussian KL, a quadrature oracle for cross-checking it,
analytic and empirical Fisher information for scalar families and for MLP
classifiers, a finite-difference Hessian oracle, a Monte-Carlo check of the
Cramer-Rao lower bound, and the second-order expansion that ties KL divergence
to Fisher information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    MlpSpec,
    ParameterVector,
    cross_entropy_loss,
    forward,
    loss_and_gradient,
    score_square_mean,
)


class InformationError(ValueError):
    """Invalid distribution parameters or a failed numeric procedure."""


@dataclass(frozen=True)
class GaussianMoments:
    """Mean and strictly positive variance, scalar or per-dimension."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        variance = np.atleast_1d(np.asarray(self.variance, dtype=np.float64))
        if mean.shape != variance.shape:
            raise InformationError("mean and variance shapes differ")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(variance)):
            raise InformationError("moments must be finite")
        if np.any(variance <= 0.0):
            raise InformationError("variance entries must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)

    @property
    def dim(self) -> int:
        return self.mean.size


def gaussian_kl(p: GaussianMoments, q: GaussianMoments) -> float:
    """Closed-form KL(P || Q) between diagonal Gaussians, summed over dimensions."""
    if p.dim != q.dim:
        raise InformationError("moment dimensions differ")
    ratio = q.variance / p.variance
    term = np.log(ratio) + (p.variance + (p.mean - q.mean) ** 2) / q.variance - 1.0
    return float(0.5 * term.sum())


def _simpson_refine(
    integrand,
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_intervals: int = 1 << 17,
) -> float:
    """Composite Simpson with interval doubling until two estimates agree."""
    if not hi > lo:
        raise InformationError("empty integration support")

    def integral(n_intervals: int) -> float:
        xs = np.linspace(lo, hi, n_intervals + 1)
        f = np.asarray(integrand(xs), dtype=np.float64)
        h = (hi - lo) / n_intervals
        weights = np.ones(n_intervals + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        return float(h / 3.0 * (weights * f).sum())

    n = 256
    previous = integral(n)
    while n < max_intervals:
        n *= 2
        current = integral(n)
        if abs(current - previous) < tol:
            return current
        previous = current
    raise InformationError("quadrature did not converge")


def kl_quadrature_oracle(
    p_density,
    q_density,
    support: tuple[float, float],
    tol: float = 1e-10,
    max_intervals: int = 1 << 17,
) -> float:
    """Numeric integral of p*log(p/q) over ``support`` by composite Simpson.

    The interval count doubles until two successive estimates agree to ``tol``.
    Serves only as an independent cross-check of closed-form KL values.
    """

    def integrand(xs):
        p = np.asarray(p_density(xs), dtype=np.float64)
        q = np.asarray(q_density(xs), dtype=np.float64)
        if np.any(p <= 0.0) or np.any(q <= 0.0):
            raise InformationError("densities must be positive on the support")
        return p * np.log(p / q)

    return _simpson_refine(integrand, float(support[0]), float(support[1]), tol, max_intervals)


def gaussian_kl_quadrature(p: GaussianMoments, q: GaussianMoments, width: float = 12.0) -> float:
    """Quadrature KL for Gaussians on a symmetric support of ``width`` P-sigmas.

    The integrand is assembled from log densities: at the support edges a far
    or narrow Q underflows float64 even though it is mathematically positive.
    """
    if p.dim != q.dim:
        raise InformationError("moment dimensions differ")
    total = 0.0
    for mu_p, var_p, mu_q, var_q in zip(p.mean, p.variance, q.mean, q.variance):
        sd = float(np.sqrt(var_p))

        def integrand(xs, mp=mu_p, vp=var_p, mq=mu_q, vq=var_q):
            log_p = -((xs - mp) ** 2) / (2.0 * vp) - 0.5 * np.log(2.0 * np.pi * vp)
            log_q = -((xs - mq) ** 2) / (2.0 * vq) - 0.5 * np.log(2.0 * np.pi * vq)
            return np.exp(log_p) * (log_p - log_q)

        total += _simpson_refine(integrand, mu_p - width * sd, mu_p + width * sd)
    return total


def discrete_kl(p_probs, q_probs) -> float:
    """Exact KL between two finite distributions given as probability vectors."""
    p = np.asarray(p_probs, dtype=np.float64)
    q = np.asarray(q_probs, dtype=np.float64)
    if p.shape != q.shape:
        raise InformationError("distribution supports differ")
    if np.any(p <= 0.0) or np.any(q <= 0.0):
        raise InformationError("probabilities must be positive")
    if not np.isclose(p.sum(), 1.0, atol=1e-9) or not np.isclose(q.sum(), 1.0, atol=1e-9):
        raise InformationError("probabilities must sum to one")
    return float((p * np.log(p / q)).sum())


@dataclass(frozen=True)
class Bernoulli:
    """Coin-flip family; the unknown parameter is the success probability."""

    def check(self, p: float):
        if not 0.0 < p < 1.0:
            raise InformationError(f"bernoulli parameter must lie in (0, 1), got {p}")

    def fisher(self, p: float) -> float:
        self.check(p)
        return 1.0 / (p * (1.0 - p))

    def simulate(self, rng: np.random.Generator, p: float, n: int) -> np.ndarray:
        self.check(p)
        return (rng.random(n) < p).astype(np.float64)

    def estimate(self, sample: np.ndarray) -> float:
        return float(np.mean(sample))

    def score(self, p: float, sample: np.ndarray) -> np.ndarray:
        self.check(p)
        x = np.asarray(sample, dtype=np.float64)
        return x / p - (1.0 - x) / (1.0 - p)

    def log_likelihood(self, p: float, sample: np.ndarray) -> float:
        self.check(p)
        x = np.asarray(sample, dtype=np.float64)
        return float(np.mean(x * np.log(p) + (1.0 - x) * np.log(1.0 - p)))


@dataclass(frozen=True)
class GaussianMean:
    """Gaussian with known variance; the unknown parameter is the mean."""

    variance: float = 1.0

    def __post_init__(self):
        if not self.variance > 0.0:
            raise InformationError(f"variance must be positive, got {self.variance}")

    def check(self, mu: float):
        if not np.isfinite(mu):
            raise InformationError("mean must be finite")

    def fisher(self, mu: float) -> float:
        self.check(mu)
        return 1.0 / self.variance

    def simulate(self, rng: np.random.Generator, mu: float, n: int) -> np.ndarray:
        self.check(mu)
        return rng.normal(mu, np.sqrt(self.variance), size=n)

    def estimate(self, sample: np.ndarray) -> float:
        return float(np.mean(sample))

    def score(self, mu: float, sample: np.ndarray) -> np.ndarray:
        self.check(mu)
        return (np.asarray(sample, dtype=np.float64) - mu) / self.variance

    def log_likelihood(self, mu: float, sample: np.ndarray) -> float:
        self.check(mu)
        x = np.asarray(sample, dtype=np.float64)
        return float(
            np.mean(-((x - mu) ** 2) / (2.0 * self.variance))
            - 0.5 * np.log(2.0 * np.pi * self.variance)
        )


def empirical_fisher_scalar(family, param: float, sample) -> float:
    """Mean squared score over an observed sample (score-variance form)."""
    s = family.score(param, np.asarray(sample, dtype=np.float64))
    return float(np.mean(s**2))


@dataclass(frozen=True)
class FisherEstimate:
    """Diagonal Fisher information tied to the parameters it was measured at.

    ``diagonal`` holds one nonnegative entry per model parameter, ``anchor``
    the parameter vector the estimate is centred on, and ``sample_count`` the
    number of samples that produced it. Immutable to callers: nothing writes
    to ``diagonal`` or the anchor's values, so a penalty state may keep the
    estimate itself rather than a copy.
    """

    diagonal: np.ndarray
    anchor: ParameterVector
    sample_count: int

    def __post_init__(self):
        diagonal = np.asarray(self.diagonal, dtype=np.float64)
        if diagonal.ndim != 1 or diagonal.size != self.anchor.size:
            raise InformationError("fisher diagonal must align with the anchor layout")
        if np.any(diagonal < 0.0) or not np.all(np.isfinite(diagonal)):
            raise InformationError("fisher diagonal entries must be finite and >= 0")
        if self.sample_count < 1:
            raise InformationError("sample_count must be >= 1")
        object.__setattr__(self, "diagonal", diagonal)


def empirical_fisher_diagonal(
    spec: MlpSpec, params: ParameterVector, x, labels
) -> FisherEstimate:
    """Diagonal empirical Fisher of a classifier on an observed batch.

    Each entry is the batch mean of the squared per-sample gradient of
    log P(label | input) with respect to that parameter. Observed labels are
    used rather than labels drawn from the model, which coincides with the
    expected-curvature form when the model is well specified.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] == 0:
        raise InformationError("empty batch")
    diag = score_square_mean(spec, params, x, labels)
    return FisherEstimate(diag, params, int(x.shape[0]))


FULL_FISHER_PARAM_LIMIT = 50


def empirical_fisher_full(spec: MlpSpec, params: ParameterVector, x, labels) -> np.ndarray:
    """Full score-outer-product Fisher matrix, for oracle testing only.

    Quadratic in the parameter count, so restricted to tiny models; its
    diagonal must agree with ``empirical_fisher_diagonal`` exactly.
    """
    if params.size > FULL_FISHER_PARAM_LIMIT:
        raise InformationError(
            f"full Fisher limited to {FULL_FISHER_PARAM_LIMIT} parameters, got {params.size}"
        )
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise InformationError("empty batch")
    labels = np.asarray(labels)
    out = np.zeros((params.size, params.size))
    for i in range(n):
        # Per-sample score = gradient of log-likelihood = minus the one-row
        # loss gradient.
        _, grad = loss_and_gradient(spec, params, x[i : i + 1], labels[i : i + 1])
        score = -grad.values
        out += np.outer(score, score)
    return out / n


def negative_hessian_diagonal(fn, theta, step: float = 1e-4) -> np.ndarray:
    """-d^2 fn / d theta_i^2 by second-order central differences."""
    theta = np.asarray(theta, dtype=np.float64)
    centre = fn(theta)
    out = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += step
        dn[i] -= step
        out[i] = -(fn(up) - 2.0 * centre + fn(dn)) / step**2
    if not np.all(np.isfinite(out)):
        raise InformationError("non-finite finite-difference Hessian")
    return out


def hessian_diagonal_fd_oracle(
    spec: MlpSpec, params: ParameterVector, x, labels, step: float = 1e-4
) -> np.ndarray:
    """Negative Hessian diagonal of the mean log-likelihood of a classifier,
    the negated cross-entropy loss."""

    def ll(theta):
        loss, _ = cross_entropy_loss(forward(spec, params.with_values(theta), x), labels)
        return -loss

    return negative_hessian_diagonal(ll, params.values, step=step)


@dataclass(frozen=True)
class CrlbCheck:
    """Outcome of a Monte-Carlo Cramer-Rao lower bound verification."""

    estimator_variance: float
    fisher_info: float
    sample_count: int
    bound: float
    satisfied: bool
    tolerance: float


def crlb_verify(
    family,
    true_param: float,
    n: int,
    replications: int,
    seed: int,
    tolerance: float = 0.05,
) -> CrlbCheck:
    """Check that the unbiased estimator's variance respects 1/(n * I).

    Simulates ``replications`` datasets of size ``n``, each with its own
    generator derived as seed + replication index so the loop order never
    matters, and compares the empirical estimator variance to the bound.
    """
    if replications < 1000:
        raise InformationError("replications must be >= 1000 for a stable variance")
    if n < 1:
        raise InformationError("sample size must be >= 1")
    fisher = family.fisher(true_param)
    estimates = np.empty(replications)
    for r in range(replications):
        rng = np.random.default_rng(seed + r)
        estimates[r] = family.estimate(family.simulate(rng, true_param, n))
    est_var = float(np.var(estimates, ddof=1))
    bound = 1.0 / (n * fisher)
    return CrlbCheck(
        estimator_variance=est_var,
        fisher_info=fisher,
        sample_count=n,
        bound=bound,
        satisfied=est_var >= bound * (1.0 - tolerance),
        tolerance=tolerance,
    )


def kl_second_order(theta_hat: float, theta: float, fisher: float) -> float:
    """Second-order expansion of KL around ``theta``: half squared shift times Fisher."""
    if fisher < 0.0:
        raise InformationError("fisher information must be nonnegative")
    return 0.5 * (theta_hat - theta) ** 2 * fisher
