"""
SIMPLS components, plain and weighted
=====================================

Partial least squares extracts score directions that maximize covariance
with the response.  This demo fits a few components on synthetic data,
shows the nesting property (the first components of a larger fit are the
same vectors), and uses observation weights to reproduce a replicated
sample.
"""

import numpy as np

from rfpls import simpls_fit, weighted_simpls_fit

rng = np.random.default_rng(1)
n, p = 60, 12
X = rng.normal(size=(n, p))
beta = np.zeros(p)
beta[:3] = [2.0, -1.0, 0.5]
y = X @ beta + 0.3 * rng.normal(size=n)

fit2 = simpls_fit(X, y, 2)
fit4 = simpls_fit(X, y, 4)
print("requested 4 components, got", fit4.h)
print("scores are orthonormal:",
      bool(np.allclose(fit4.scores.T @ fit4.scores, np.eye(4), atol=1e-12)))
print("first two weight vectors of the 4-component fit equal the")
print("2-component fit exactly:",
      bool(np.array_equal(fit4.W[:, :2], fit2.W)))

for h in (1, 2, 3, 4):
    fit = simpls_fit(X, y, h)
    resid = y - (fit.gamma0 + fit.scores @ fit.gamma)  # in-sample fitted values
    print(f"  h={h}  residual SS = {float(resid @ resid):8.3f}")

# Weighted fits generalize the same machinery.  Integer weights behave like
# row replication: weight 2 on a row gives the same fit as including the
# row twice.
w = np.ones(n)
w[:5] = 2.0
weighted = weighted_simpls_fit(X, y, w, 3)
X_rep = np.vstack([X[:5], X])
y_rep = np.concatenate([y[:5], y])
replicated = simpls_fit(X_rep, y_rep, 3)
print("\nweight 2 equals row duplication, max |gamma difference| =",
      f"{np.abs(weighted.gamma - replicated.gamma).max():.2e}")

# Zero weight removes a row: predictions match the leave-out fit.
w = np.ones(n)
w[10] = 0.0
dropped = weighted_simpls_fit(X, y, w, 3)
keep = np.delete(np.arange(n), 10)
leave_out = simpls_fit(X[keep], y[keep], 3)
print("zero weight equals deletion, max |coef path difference| =",
      f"{np.abs(dropped.W @ dropped.gamma - leave_out.W @ leave_out.gamma).max():.2e}")

# Rank exhaustion: a rank-2 predictor matrix supports only 2 components,
# and the fit says so instead of fabricating directions.
X_low = rng.normal(size=(n, 2)) @ rng.normal(size=(2, p))
low = simpls_fit(X_low, X_low @ beta, 5)
print("\nrank-2 design: requested 5 components, extracted", low.h,
      "(rank_exhausted =", str(low.rank_exhausted) + ")")
