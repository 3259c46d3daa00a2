"""Closed-form KL, a Monte-Carlo cross-check, and the Fisher connection.

Walks the information-theory toolbox: the Gaussian KL formula against a
seeded Monte-Carlo estimate of E_P[log p - log q], a family's analytic
Fisher information (``fisher``) versus the mean squared score, and the
second-order expansion that approximates a small-shift KL by half the
squared shift times the Fisher information.
"""

import numpy as np

from fishershift import (
    Bernoulli,
    GaussianMean,
    GaussianMoments,
    discrete_kl,
    empirical_fisher_scalar,
    gaussian_kl,
    kl_second_order,
)


def log_density(xs, mean, variance):
    return -((xs - mean) ** 2) / (2.0 * variance) - 0.5 * np.log(2.0 * np.pi * variance)


print("== Gaussian KL: closed form vs Monte-Carlo E_P[log p - log q] ==")
rng = np.random.default_rng(0)
draws = 1_000_000
pairs = [
    ((0.0, 1.0), (1.0, 1.0)),
    ((0.0, 1.0), (0.0, 2.0)),
    ((0.5, 0.8), (-0.3, 1.7)),
]
for (mp, vp), (mq, vq) in pairs:
    p = GaussianMoments(mp, vp)
    q = GaussianMoments(mq, vq)
    closed = gaussian_kl(p, q)
    xs = rng.normal(mp, np.sqrt(vp), size=draws)
    estimate = float(np.mean(log_density(xs, mp, vp) - log_density(xs, mq, vq)))
    print(f"  P=N({mp}, {vp})  Q=N({mq}, {vq}):  closed {closed:.6f}   "
          f"Monte-Carlo {estimate:.6f}   diff {abs(closed - estimate):.1e}")
print(f"  ({draws:,} draws from P each: the error shrinks as one over the root of the draws)")

print()
print("== KL is asymmetric ==")
p = GaussianMoments(0.0, 1.0)
q = GaussianMoments(0.0, 2.0)
print(f"  KL(P||Q) = {gaussian_kl(p, q):.6f}   KL(Q||P) = {gaussian_kl(q, p):.6f}")

print()
print("== Fisher information: analytic vs mean squared score ==")
rng = np.random.default_rng(0)
bern = Bernoulli()
sample = bern.simulate(rng, 0.5, 100_000)
print(f"  Bernoulli(0.5): analytic {bern.fisher(0.5):.4f}   "
      f"empirical {empirical_fisher_scalar(bern, 0.5, sample):.4f}")
gauss = GaussianMean(4.0)
sample = gauss.simulate(rng, 1.0, 100_000)
print(f"  Gaussian mean (var 4): analytic {gauss.fisher(1.0):.4f}   "
      f"empirical {empirical_fisher_scalar(gauss, 1.0, sample):.4f}")

print()
print("== Second-order KL expansion: half shift^2 times Fisher ==")
fisher = bern.fisher(0.5)
for delta in (0.1, 0.05, 0.025):
    exact = discrete_kl([0.5, 0.5], [0.5 + delta, 0.5 - delta])
    approx = kl_second_order(0.5 + delta, 0.5, fisher)
    print(f"  shift {delta:>5}: exact {exact:.8f}   approx {approx:.8f}   "
          f"error {abs(exact - approx):.2e}")
print("  (halving the shift divides the error by ~16: the remainder is high order)")
