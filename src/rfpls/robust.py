"""Robust primitives: Tukey bisquare, Hampel pieces, scale, spatial median,
M-estimation on component scores, and efficiency-based tuning.

Function arguments named ``u``, ``x`` or ``e`` accept scalars or arrays;
scalars come back as floats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SpatialMedianCapWarning


# Cutoffs c1 < c2 < c3 of the three-part Hampel function: roughly the 0.95,
# 0.975 and 0.999 standard normal quantiles.
_HAMPEL = (1.65, 1.96, 3.09)
# Weiszfeld iteration of ``l1_median``: relative step tolerance and cap.
_L1_TOL = 1e-8
_L1_MAX_ITER = 500
# IRLS of ``m_estimate``: relative coefficient-move tolerance and cap.
_M_TOL = 1e-8
_M_MAX_ITER = 100
# Candidate bisquare cutoffs of ``select_tuning``.
_TUNING_GRID = np.linspace(1.0, 10.0, 91)


def _as_array(u) -> tuple[np.ndarray, bool]:
    arr = np.asarray(u, dtype=float)
    return arr, arr.ndim == 0


def _maybe_scalar(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


# Private kernels of the robust loop.  Each computes exactly what the numpy
# call it replaces computes, in the same order, without that call's
# dispatch and NaN handling; so each requires finite input.
# ``np.median`` averages the middle order statistics with ``np.mean``,
# whose sum starts from +0.0: the ``+ 0.0`` below turns a -0.0 into +0.0
# as that sum does, and changes no other value.

def _median(a: np.ndarray) -> float:
    """``np.median`` of a finite, nonempty 1-D array, bit for bit."""
    k = a.size // 2
    if a.size % 2:
        return np.partition(a, k).item(k) + 0.0
    part = np.partition(a, (k - 1, k))
    return (part.item(k - 1) + part.item(k) + 0.0) / 2.0


def _column_medians(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=0)`` of a finite 2-D array with rows, bit for bit."""
    k = a.shape[0] // 2
    if a.shape[0] % 2:
        return np.partition(a, k, axis=0)[k] + 0.0
    part = np.partition(a, (k - 1, k), axis=0)
    return (part[k - 1] + part[k] + 0.0) / 2.0


def _row_norms(d: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(d, axis=1)`` of a finite real 2-D array: its own formula."""
    return np.sqrt(np.add.reduce(d * d, axis=1))


def tukey_rho(u, c: float):
    """Bisquare loss: 1 - [1 - (u/c)^2]^3 for |u| <= c, else 1."""
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    arr, scalar = _as_array(u)
    z = np.clip(np.abs(arr) / c, 0.0, 1.0)
    return _maybe_scalar(1.0 - (1.0 - z * z) ** 3, scalar)


def tukey_kappa(u, c):
    """Bisquare sub-gradient (up to 6/c^2): u [1 - (u/c)^2]^2 for |u| <= c, else 0.

    ``c`` may be an array of cutoffs broadcastable against ``u``.
    """
    cut = np.asarray(c, dtype=float)
    if not (cut > 0).all():
        raise ValueError(f"c must be positive, got {c}")
    arr, scalar = _as_array(u)
    z = arr / cut
    inside = np.abs(arr) <= cut
    out = np.where(inside, arr * (1.0 - z * z) ** 2, 0.0)
    return _maybe_scalar(out, scalar and cut.ndim == 0)


def _bisquare(e: np.ndarray, c: float) -> np.ndarray:
    """IRLS weight kappa(e)/e of a float array: [1 - (e/c)^2]^2 for |e| <= c,
    else 0; 1 at e = 0.  Needs ``c > 0``, which is not checked."""
    z = e / c
    return np.where(np.abs(e) <= c, (1.0 - z * z) ** 2, 0.0)


def hampel_f(x):
    """Three-part redescending Hampel function (odd in ``x``)."""
    arr, scalar = _as_array(x)
    ax = np.abs(arr)
    c1, c2, c3 = _HAMPEL
    mag = np.select(
        [ax <= c1, ax <= c2, ax <= c3],
        [ax, c1, c1 * (c3 - ax) / (c3 - c2)],
        default=0.0,
    )
    return _maybe_scalar(np.sign(arr) * mag, scalar)


def hampel_weight(x):
    """Downweighting factor f(x)/x with the limit value 1 at x = 0.

    Even in ``x``, equal to 1 on [0, c1], decays to 0 at c3 and stays 0
    beyond.
    """
    arr, scalar = _as_array(x)
    ax = np.abs(arr)
    c1, c2, c3 = _HAMPEL
    # c1 / c1 is exactly 1, and clamping to [c2, c3] keeps the descending
    # piece off zero and makes it exactly 0 beyond c3; fmax maps NaN to 1.
    d = np.minimum(np.maximum(ax, c2), c3)
    out = np.where(ax > c2, c1 * (c3 - d) / ((c3 - c2) * d), c1 / np.fmax(ax, c1))
    return _maybe_scalar(out, scalar)


def _scaled_weight(weight, u: np.ndarray, scale: float, *args) -> np.ndarray:
    """``weight(u / scale, *args)``, or at a zero scale its limit: 1 on exactly-zero
    ``u``, 0 elsewhere.  The rule of PRM's residual and leverage factors and the M-step."""
    if scale == 0.0:
        return (u == 0.0).astype(float)
    return weight(u / scale, *args)


def mad_scale(e: np.ndarray) -> float:
    """Raw median absolute deviation about the median (no consistency factor)."""
    arr = np.asarray(e, dtype=float).ravel()
    if arr.size < 2:
        raise ValueError(f"need at least 2 values, got {arr.size}")
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite")
    return _median(np.abs(arr - _median(arr)))


def l1_median(points: np.ndarray) -> np.ndarray:
    """Spatial (L1) median of rows by damped Weiszfeld iteration.

    Coincident points are handled by the standard correction: when the
    iterate sits on a data point, the pull of the remaining points is
    balanced against that point's multiplicity, so the iteration cannot
    stall at a non-optimal vertex.  Stopping at the iteration cap issues a
    ``SpatialMedianCapWarning``, a ``RuntimeWarning``.  Clouds of 2 to 7
    columns, such as the robust loop's scores, pass on a coordinate-major
    copy, which adds in numpy's order for row-major points; numpy sums a
    wider row norm, or a single column, pairwise, in another order.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 1:
        raise ValueError("need at least one point")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    center = _column_medians(pts)
    spread = float(_row_norms(pts - center).max())
    if spread == 0.0:
        return center
    eps = 1e-12 * spread
    # ``cols`` has one contiguous row per coordinate.  Its row sum and its
    # accumulated sums add in sequence, as numpy adds a row norm of up to 7
    # terms and a sum over rows; ``+ 0.0`` gives the +0.0 that numpy's sum
    # starts from.  ``rows`` is the C-ordered copy that ``pts[free]`` makes
    # when every point is free, so its weighted sum adds in that order too.
    cols = np.ascontiguousarray(pts.T) if 2 <= pts.shape[1] <= 7 else None
    rows = np.ascontiguousarray(pts)
    m = center
    for _ in range(_L1_MAX_ITER):
        if cols is None:
            dist = _row_norms(pts - m)
        else:
            d = cols - m[:, None]
            d *= d
            dist = np.sqrt(np.add.reduce(d, axis=0))
        if dist.min() >= eps:  # no point coincides with the iterate
            inv = np.divide(1.0, dist, out=dist)
            if cols is None:
                m_new = (rows * inv[:, None]).sum(axis=0) / inv.sum()
            else:
                np.multiply(cols, inv, out=d)
                m_new = (np.add.accumulate(d, axis=1, out=d)[:, -1] + 0.0) / np.add.reduce(inv)
        else:
            diff = pts - m
            on_point = dist < eps
            free = ~on_point
            if not free.any():
                return m
            inv = 1.0 / dist[free]
            tpoint = (pts[free] * inv[:, None]).sum(axis=0) / inv.sum()
            resultant = (diff[free] * inv[:, None]).sum(axis=0)
            rnorm = math.sqrt(resultant.dot(resultant))
            multiplicity = float(on_point.sum())
            if rnorm <= multiplicity:
                return m
            frac = multiplicity / rnorm
            m_new = (1.0 - frac) * tpoint + frac * m
        move = m_new - m
        step = math.sqrt(move.dot(move))
        m = m_new
        if step < _L1_TOL * spread:
            break
    else:
        warnings.warn(f"l1_median stopped at its iteration cap ({_L1_MAX_ITER}); last step "
                      f"{step / spread:.3g} of the spread", SpatialMedianCapWarning,
                      stacklevel=2)
    return m


def _least_squares_start(scores, y) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The checked least-squares start of ``select_tuning`` and ``m_estimate``:
    the design ``[1, scores]``, ``y`` as floats, the coefficients and the rank."""
    Z = np.atleast_2d(np.asarray(scores, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n, h = Z.shape
    if y.size != n:
        raise ValueError(f"scores has {n} rows but y has {y.size}")
    if n < h + 2:
        raise ValueError(f"need at least h + 2 = {h + 2} observations, got {n}")
    if not (np.isfinite(Z).all() and np.isfinite(y).all()):
        raise ValueError("scores and y must be finite")
    design = np.column_stack([np.ones(n), Z])
    theta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    return design, y, theta, int(rank)


def _settled(new: np.ndarray, old: np.ndarray, tol: float) -> bool:
    """Whether ``new`` lies within ``tol`` times the norm of ``old`` from it:
    the stopping test of ``m_estimate`` and of PRM's reweighting loop."""
    delta = new - old
    return math.sqrt(delta.dot(delta)) <= tol * max(math.sqrt(old.dot(old)), 1e-300)


@dataclass(frozen=True)
class MEstimate:
    """Result of iteratively reweighted M-estimation on scores.

    ``delta`` are the slope coefficients, ``intercept`` the fitted
    constant, ``scale`` the final residual MAD, and ``weights`` the last
    IRLS weights (all 1 for a clean fit, 0 for rejected observations).
    """

    delta: np.ndarray
    intercept: float
    scale: float
    iterations: int
    converged: bool
    weights: np.ndarray


def m_estimate(scores: np.ndarray, y: np.ndarray, c: float) -> MEstimate:
    """Tukey bisquare M-regression of ``y`` on ``scores`` with intercept.

    Starts from least squares, then alternates residual-MAD rescaling
    with weighted least squares until the coefficient vector moves by
    less than 1e-8 in relative terms, for at most 100 iterations.  A
    zero residual MAD (more than half the residuals equal) stops it as
    converged, with weights 1 on exactly-zero residuals and 0 elsewhere.
    Fewer than ``h + 2`` positive weights raise ``NumericalError``.
    """
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    design, y, theta, rank = _least_squares_start(scores, y)
    h = design.shape[1] - 1
    if rank < h + 1:
        raise NumericalError(f"score design is rank deficient ({rank} < {h + 1})")

    for iterations in range(1, _M_MAX_ITER + 1):
        resid = y - design @ theta
        scale = mad_scale(resid)
        weights = _scaled_weight(_bisquare, resid, scale, c)
        if (weights > 0).sum() < h + 2:
            raise NumericalError(f"only {int((weights > 0).sum())} observations kept "
                                 f"positive weight; need at least {h + 2}")
        if scale == 0.0:
            converged = True
            break
        sw = np.sqrt(weights)
        theta_new, _, rank, _ = np.linalg.lstsq(sw[:, None] * design, sw * y, rcond=None)
        if rank < h + 1 or not np.isfinite(theta_new).all():
            raise NumericalError("weighted score design collapsed to rank "
                                 f"{rank} < {h + 1}")
        theta, converged = theta_new, _settled(theta_new, theta, _M_TOL)
        if converged:
            break
    return MEstimate(delta=theta[1:], intercept=float(theta[0]), scale=float(scale),
                     iterations=iterations, converged=converged, weights=weights)


def _efficiency_factors(e: np.ndarray, cands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Efficiency factor of every cutoff in ``cands`` and whether it is defined.

    Scores all cutoffs in one ``(k, n)`` broadcast; a cutoff rejecting
    every residual has a zero denominator and is marked undefined.
    """
    cuts = cands[:, None]
    kap = tukey_kappa(e, cuts)
    denom = e.size * (kap * kap).sum(axis=1)
    z = e / cuts
    slopes = np.where(np.abs(e) <= cuts, (1.0 - z * z) * (1.0 - 5.0 * z * z), 0.0)
    defined = denom != 0.0
    tau = np.full(cands.size, -np.inf)
    sums = slopes[defined].sum(axis=1)
    tau[defined] = sums * sums / denom[defined]
    return tau, defined


def efficiency_factor(e: np.ndarray, c: float) -> float:
    """Empirical efficiency of the bisquare at cutoff ``c``.

    Computed as ``[sum dkappa/de]^2 / (n sum kappa^2)`` with the exact
    derivative dkappa/de = [1 - (e/c)^2][1 - 5(e/c)^2] for |e| <= c, else 0;
    residuals ``e`` are expected on the standardized scale.  Raises when
    every residual falls beyond ``c`` (zero denominator).
    """
    arr = np.asarray(e, dtype=float).ravel()
    if arr.size < 2:
        raise ValueError(f"need at least 2 residuals, got {arr.size}")
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    tau, defined = _efficiency_factors(arr, np.array([float(c)]))
    if not defined[0]:
        raise NumericalError(f"all residuals fall beyond c = {c}; efficiency factor undefined")
    return float(tau[0])


def select_tuning(scores: np.ndarray, y: np.ndarray) -> float:
    """Pick the bisquare cutoff maximizing the empirical efficiency factor.

    Residuals come from a least-squares fit of ``y`` on the scores (with
    intercept) and are standardized by their MAD; the candidate cutoffs
    are 1.0, 1.1, ..., 10.0, each scored with the exact bisquare derivative
    (see ``efficiency_factor``).  Candidates rejecting every residual are
    skipped.  Ties go to the later candidate, which on an increasing grid
    is the largest cutoff.
    """
    design, y, theta, _ = _least_squares_start(scores, y)
    resid = y - design @ theta
    scale = mad_scale(resid)
    if scale == 0.0:
        raise NumericalError("residual MAD is zero; cutoff selection undefined")
    tau, defined = _efficiency_factors(resid / scale, _TUNING_GRID)
    if not defined.any():
        raise NumericalError("every candidate cutoff rejects all residuals")
    best = np.flatnonzero(defined & (tau == tau[defined].max()))[-1]
    return float(_TUNING_GRID[best])
