"""Information-theoretic quantities: Fisher information, KL divergence, CRLB.

Training runs the diagonal empirical Fisher of a classifier (a
``FisherEstimate``, which the penalty accumulates) and the closed-form KL
between Gaussian batch moments behind the trace diagnostics. The Cramer-Rao
checks run the rest: analytic and empirical Fisher information of scalar
families, a Monte-Carlo check of the bound, and the exact discrete KL with
the second-order expansion that ties it to Fisher information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import MlpSpec, ParameterVector, score_square_mean


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
