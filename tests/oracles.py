"""Independent reference computations used as test oracles.

Gradients and Hessian diagonals come from central finite differences, which
share one perturbation loop; forward passes and losses from plain-Python
scalar arithmetic; the Gaussian KL from a composite-Simpson quadrature.
Three oracles call production code, each for a part it does not check: the
full Fisher matrix calls ``loss_and_gradient`` once per row to check the
diagonal estimator's per-row reduction, the classifier Hessian oracle calls
``forward`` and ``cross_entropy_loss`` to check the Fisher diagonal against
curvature, and ``zero_params`` calls ``parameter_layout``.
"""

import math

import numpy as np

from fishershift.information import GaussianMoments, InformationError
from fishershift.numerics import (
    MlpSpec,
    ParameterVector,
    cross_entropy_loss,
    forward,
    loss_and_gradient,
    parameter_layout,
)


def _central_values(fn, theta, step):
    """fn at theta + step and at theta - step along each coordinate, in that
    order, as two arrays."""
    theta = np.asarray(theta, dtype=np.float64)
    f_up = np.zeros_like(theta)
    f_dn = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += step
        dn[i] -= step
        f_up[i] = fn(up)
        f_dn[i] = fn(dn)
    return f_up, f_dn


def central_difference_gradient(fn, theta, step=1e-5):
    """Gradient of a scalar function of a flat vector by central differences."""
    f_up, f_dn = _central_values(fn, theta, step)
    return (f_up - f_dn) / (2.0 * step)


FD_STEP = 1e-4


def negative_hessian_diagonal(fn, theta) -> np.ndarray:
    """-d^2 fn / d theta_i^2 by second-order central differences of step
    ``FD_STEP``."""
    centre = fn(np.asarray(theta, dtype=np.float64))
    f_up, f_dn = _central_values(fn, theta, FD_STEP)
    out = -(f_up - 2.0 * centre + f_dn) / FD_STEP**2
    if not np.all(np.isfinite(out)):
        raise InformationError("non-finite finite-difference Hessian")
    return out


def hessian_diagonal_fd_oracle(spec: MlpSpec, params: ParameterVector, x, labels) -> np.ndarray:
    """Negative Hessian diagonal of the mean log-likelihood of a classifier,
    the negated cross-entropy loss."""

    def ll(theta):
        loss, _ = cross_entropy_loss(forward(spec, params.with_values(theta), x), labels)
        return -loss

    return negative_hessian_diagonal(ll, params.values)


FULL_FISHER_PARAM_LIMIT = 50


def empirical_fisher_full(spec: MlpSpec, params: ParameterVector, x, labels) -> np.ndarray:
    """Full score-outer-product Fisher matrix.

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


# Quadrature: two successive Simpson estimates must agree to QUAD_TOL before
# the interval count reaches QUAD_MAX_INTERVALS; the support spans
# QUAD_WIDTH P-sigmas on either side of P's mean.
QUAD_TOL = 1e-10
QUAD_MAX_INTERVALS = 1 << 17
QUAD_WIDTH = 12.0


def _simpson_refine(integrand, lo: float, hi: float) -> float:
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
    while n < QUAD_MAX_INTERVALS:
        n *= 2
        current = integral(n)
        if abs(current - previous) < QUAD_TOL:
            return current
        previous = current
    raise InformationError("quadrature did not converge")


def gaussian_kl_quadrature(p: GaussianMoments, q: GaussianMoments) -> float:
    """Quadrature KL for Gaussians on a symmetric support of ``QUAD_WIDTH``
    P-sigmas, an independent cross-check of ``gaussian_kl``.

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

        total += _simpson_refine(integrand, mu_p - QUAD_WIDTH * sd, mu_p + QUAD_WIDTH * sd)
    return total


def zero_params(spec: MlpSpec) -> ParameterVector:
    """All-zero parameters in ``spec``'s layout."""
    layout = parameter_layout(spec)
    n = layout[-1].stop if layout else 0
    return ParameterVector(np.zeros(n), layout)


def max_relative_error(approx, exact, floor=1e-8):
    """Largest entrywise |approx - exact| / max(|exact|, floor)."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = np.maximum(np.abs(exact), floor)
    return float(np.max(np.abs(approx - exact) / denom))


def python_mlp_forward(x_row, w1, b1, w2, b2):
    """Scalar-arithmetic forward pass for one row through affine-relu-affine."""
    hidden = []
    for j in range(len(b1)):
        z = b1[j]
        for i in range(len(x_row)):
            z += x_row[i] * w1[i][j]
        hidden.append(z if z > 0.0 else 0.0)
    logits = []
    for k in range(len(b2)):
        z = b2[k]
        for j in range(len(hidden)):
            z += hidden[j] * w2[j][k]
        logits.append(z)
    return logits


def python_cross_entropy(logits_rows, labels):
    """Mean negative log softmax probability, computed row by row in math.*"""
    total = 0.0
    for logits, label in zip(logits_rows, labels):
        m = max(logits)
        log_z = m + math.log(sum(math.exp(v - m) for v in logits))
        total += log_z - logits[label]
    return total / len(labels)
