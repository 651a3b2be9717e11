"""Partial robust M-regression: SIMPLS made resistant by iterative reweighting.

Each observation carries a case weight built from two Hampel factors,
one for its response residual and one for its leverage in score space.
Starting weights use the response distances from the median and the row
distances from the spatial median of the data; each pass then refits a
case-weighted SIMPLS, rescores all observations on the original scale,
and rebuilds the weights from the new residuals and score leverages.
Iteration stops when the response loadings stabilize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BreakdownError, DegenerateScaleError
from .robust import _median, _row_norms, _settled, hampel_weight, l1_median, mad_scale
from .simpls import PLSFit, _weighted_simpls, weighted_simpls_fit

_WEIGHT_FLOOR = 1e-6
# Relative change in the response loadings below which reweighting stops,
# and the cap on the passes.
_PRM_TOL = 1e-2
_PRM_MAX_ITER = 100


@dataclass(frozen=True)
class RobustPLSFit(PLSFit):
    """The weighted SIMPLS fit of the reweighting loop's final pass.

    ``weights`` holds case weights in [1e-6, 1] rebuilt from this fit's
    own residuals and score distances, so they are one step after the
    weights that produced ``W``.  ``iterations`` counts the passes and
    ``converged`` says whether the loadings settled before the cap.
    """

    weights: np.ndarray
    iterations: int
    converged: bool


def _hampel_factor(values: np.ndarray, scale: float) -> np.ndarray:
    """Hampel weight of ``values / scale``; when the scale collapses to 0,
    the limit weights: 1 on exactly-central values, 0 elsewhere."""
    if scale == 0.0:
        return (values == 0.0).astype(float)
    return hampel_weight(values / scale)


def _median_distances(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Row distances from the spatial median of ``points``, and their median."""
    dist = _row_norms(points - l1_median(points))
    return dist, _median(dist)


def initial_weights(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Starting case weights from response and leverage outlyingness.

    The residual factor downweights responses far from the median in MAD
    units; the leverage factor downweights rows far from the spatial
    median of ``X`` relative to the median such distance.  The product
    is floored at 1e-6 so no observation disappears before the first
    fit.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n = X.shape[0]
    if y.size != n:
        raise ValueError(f"X has {n} rows but y has {y.size}")
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")

    scale_y = mad_scale(y)
    if scale_y == 0.0:
        raise DegenerateScaleError("response MAD is zero; residual weights undefined")
    w_resid = hampel_weight(np.abs(y - _median(y)) / scale_y)

    dist, scale_d = _median_distances(X)
    if scale_d == 0.0:
        raise DegenerateScaleError("leverage distances have zero median; "
                                   "leverage weights undefined")
    w_lev = hampel_weight(dist / scale_d)
    return np.clip(w_resid * w_lev, _WEIGHT_FLOOR, 1.0)


def prm_fit(X: np.ndarray, y: np.ndarray, h: int,
            start_weights: np.ndarray | None = None) -> RobustPLSFit:
    """Robust SIMPLS of ``y`` on rows of ``X`` by iterative reweighting.

    Parameters
    ----------
    X : ndarray of shape (n, p)
    y : ndarray of shape (n,)
    h : int
        Requested number of components.
    start_weights : ndarray of shape (n,), optional
        Case weights of the first pass, as returned by
        ``initial_weights(X, y)``; computed when absent.
        Fits that share ``X`` and ``y`` but not ``h`` can share them.

    Notes
    -----
    The loop stops once the response loadings move by less than 1% of
    their norm; at its cap of 100 passes it returns ``converged=False``
    rather than raising.

    Residuals use the fitted intercept, i.e. ``y - (gamma0 + scores @
    gamma)``; leverage distances are measured from the spatial median of
    the corrected scores and standardized by their median.  Every pass,
    the last included, ends by rebuilding the weights from the fit it
    made, so the returned ``weights`` are those the next pass would use,
    not those behind the returned ``W``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n = X.shape[0]
    if h < 1:
        raise ValueError(f"h must be at least 1, got {h}")
    if n < h + 2:
        raise ValueError(f"need at least h + 2 = {h + 2} observations, got {n}")

    if start_weights is None:
        weights = initial_weights(X, y)
    else:
        weights = np.asarray(start_weights, dtype=float).ravel()
        if weights.size != n:
            raise ValueError(f"X has {n} rows but start_weights has {weights.size}")
    gamma_prev: np.ndarray | None = None
    fit = None
    converged = False
    for iterations in range(1, _PRM_MAX_ITER + 1):
        # Pass 1 checks X, y and the start weights; later weights lie in
        # [1e-6, 1] by construction, so later passes skip the checks.
        if fit is None:
            fit = weighted_simpls_fit(X, y, weights, h)
        else:
            fit = _weighted_simpls(X, y, weights, h)
        resid = y - (fit.gamma0 + fit.scores @ fit.gamma)
        w_resid = _hampel_factor(np.abs(resid), mad_scale(resid))
        raw = w_resid * _hampel_factor(*_median_distances(fit.scores))
        if (raw > 0).sum() < 2:
            raise BreakdownError("fewer than 2 observations kept positive weight")
        weights = np.clip(raw, _WEIGHT_FLOOR, 1.0)
        if (gamma_prev is not None and gamma_prev.size == fit.gamma.size
                and _settled(fit.gamma, gamma_prev, _PRM_TOL)):
            converged = True
            break
        gamma_prev = fit.gamma
    return RobustPLSFit(**vars(fit), weights=weights, iterations=iterations,
                        converged=converged)
