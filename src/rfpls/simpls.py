"""SIMPLS partial least squares for a scalar response, plus a weighted variant.

The core algorithm extracts components directly from the cross-covariance
vector ``s = X_c' y_c`` and deflates ``s`` against an orthonormal loading
basis, so the data matrix itself is never modified.  Scores are kept at
unit Euclidean norm, which makes the response loadings ``gamma`` simple
inner products and keeps later per-component truncation trivial: the
first ``h' < h`` columns of a fit are exactly the ``h'``-component fit.

The weighted variant performs case-weighted centering, scales rows by
the square roots of the weights before extraction, and afterwards
returns scores corrected back to the original observation scale, so a
row's score equals the projection of its centered data onto the weight
vectors regardless of its case weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_RANK_TOL = 1e-12


@dataclass(frozen=True)
class PLSFit:
    """Result of a (possibly weighted) SIMPLS fit.

    Attributes
    ----------
    W : ndarray of shape (p, h)
        Weight vectors; scores are ``(X - x_center) @ W``.
    scores : ndarray of shape (n, h)
        Per-observation scores on the original observation scale.
    gamma0 : float
        Intercept on the score scale (the weighted response mean).
    gamma : ndarray of shape (h,)
        Response loadings; predictions are ``gamma0 + scores @ gamma``.
    x_center : ndarray of shape (p,)
        Weighted centering of ``X`` used for new data.
    h : int
        Number of components actually extracted.
    rank_exhausted : bool
        True when extraction stopped before the requested count.
    """

    W: np.ndarray
    scores: np.ndarray
    gamma0: float
    gamma: np.ndarray
    x_center: np.ndarray
    h: int
    rank_exhausted: bool


def _simpls_core(xc: np.ndarray, yc: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Extract up to ``h`` SIMPLS weight vectors and unit-norm scores.

    ``xc`` and ``yc`` must already be centered (and, for the weighted
    variant, row-scaled).  Returns ``(W, T)`` with possibly fewer than
    ``h`` columns when the cross-covariance is exhausted.
    """
    n, p = xc.shape
    # 1-D norms are ``np.linalg.norm``'s own formula for a contiguous real
    # vector, ``sqrt(v.dot(v))``, without its dispatch; inputs are finite.
    s = xc.T @ yc
    s_ref = math.sqrt(s.dot(s))
    w_cols: list[np.ndarray] = []
    t_cols: list[np.ndarray] = []
    v_basis: list[np.ndarray] = []
    t_ref = 0.0
    for _ in range(h):
        if math.sqrt(s.dot(s)) <= _RANK_TOL * max(s_ref, 1e-300):
            break
        r = s.copy()
        t = xc @ r
        tn = math.sqrt(t.dot(t))
        if tn <= _RANK_TOL * max(t_ref, 1e-300):
            break
        t_ref = max(t_ref, tn)
        r /= tn
        t /= tn
        w_cols.append(r)
        t_cols.append(t)
        p_load = xc.T @ t
        v = p_load.copy()
        for u in v_basis:
            v -= u * (u @ p_load)
        vn = math.sqrt(v.dot(v))
        if vn <= _RANK_TOL * max(math.sqrt(p_load.dot(p_load)), 1e-300):
            break
        v /= vn
        v_basis.append(v)
        s = s - v * (v @ s)
    if not w_cols:
        return np.zeros((p, 0)), np.zeros((n, 0))
    return np.column_stack(w_cols), np.column_stack(t_cols)


def weighted_simpls_fit(X: np.ndarray, y: np.ndarray, weights: np.ndarray,
                        h: int) -> PLSFit:
    """Case-weighted SIMPLS of a scalar response on rows of ``X``.

    Parameters
    ----------
    X : ndarray of shape (n, p)
    y : ndarray of shape (n,)
    weights : ndarray of shape (n,)
        Nonnegative case weights; at least two must be positive.
    h : int
        Requested number of components (at least 1).  Extraction stops
        early, with ``rank_exhausted`` set, when the weighted
        cross-covariance runs out of directions.

    Notes
    -----
    Rows are centered at the weighted means and scaled by ``sqrt(w_i)``
    before extraction.  Reported scores are corrected back: for
    ``w_i > 0`` the scaled score row is divided by ``sqrt(w_i)``, and a
    zero-weight row is scored by projecting its centered data onto
    ``W``.  Both give ``(X_i - x_center) @ W``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if X.ndim != 2:
        raise ValueError(f"X must be two-dimensional, got shape {X.shape}")
    n, p = X.shape
    if y.size != n or w.size != n:
        raise ValueError(f"X has {n} rows but y has {y.size} and weights has {w.size}")
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    if h < 1:
        raise ValueError(f"h must be at least 1, got {h}")
    if not (np.isfinite(X).all() and np.isfinite(y).all() and np.isfinite(w).all()):
        raise ValueError("X, y and weights must be finite")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    if (w > 0).sum() < 2:
        raise ValueError("fewer than 2 observations have positive weight")
    return _weighted_simpls(X, y, w, h)


def _weighted_simpls(X: np.ndarray, y: np.ndarray, w: np.ndarray, h: int) -> PLSFit:
    """``weighted_simpls_fit`` without its checks.

    Requires what that function checks: a finite float ``X`` of shape
    ``(n, p)``, finite float ``y`` and ``w`` of shape ``(n,)``, ``w >= 0``
    with at least two positive entries, and ``h >= 1``.
    """
    n, p = X.shape
    wsum = float(w.sum())
    x_center = (w @ X) / wsum
    y_center = float(w @ y) / wsum
    sq = np.sqrt(w)
    xc = sq[:, None] * (X - x_center)
    yc = sq * (y - y_center)

    W, T = _simpls_core(xc, yc, min(h, n - 1, p))
    gamma = T.T @ yc

    pos = w > 0
    if pos.all():
        scores = T / sq[:, None]
    else:
        scores = np.empty((n, T.shape[1]))
        scores[pos] = T[pos] / sq[pos, None]
        scores[~pos] = (X[~pos] - x_center) @ W
    return PLSFit(W=W, scores=scores, gamma0=y_center, gamma=gamma,
                  x_center=x_center, h=T.shape[1], rank_exhausted=T.shape[1] < h)


def simpls_fit(X: np.ndarray, y: np.ndarray, h: int) -> PLSFit:
    """SIMPLS of a scalar response on rows of ``X``.

    Equivalent to the weighted variant with unit weights; written as
    exactly that call so the two stay in lock-step (scaling by a unit
    weight is exact in floating point).
    """
    X = np.asarray(X, dtype=float)
    return weighted_simpls_fit(X, y, np.ones(X.shape[0] if X.ndim == 2 else 0), h)

