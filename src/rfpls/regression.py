"""Scalar-on-function regression front end.

Three estimators share one fitted-model shape: classical partial least
squares on the geometry-corrected design, its robust counterpart
(reweighted PLS followed by bisquare M-regression on the robust
scores), and a principal-component baseline.  All three reduce to
coefficient functions through the same map: a direction ``theta`` in
the corrected space pulls back to basis coefficients via the inverse
square root of the Gram matrix, and the training intercept absorbs the
centering so prediction needs only the raw coefficient rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import (BasisSystem, MultiFunctionalDesign, _block_slices, _geometry,
                    _smooth_stack, evaluate_basis)
from .errors import NumericalError
from .robust import m_estimate, select_tuning
from .robust_pls import prm_fit
from .simpls import simpls_fit


@dataclass(frozen=True)
class RobustReport:
    """Diagnostics from the robust path: weights, cutoff, loop counters."""

    weights: np.ndarray
    c: float
    prm_iterations: int
    prm_converged: bool
    m_iterations: int
    m_converged: bool
    scale: float


@dataclass(frozen=True)
class FittedSofr:
    """A fitted scalar-on-function regression.

    Attributes
    ----------
    method : str
        One of ``'fpls'``, ``'rfpls'``, ``'fpc'``.
    systems : tuple of BasisSystem
        Basis of each predictor, needed to evaluate coefficients and to
        smooth new curves.
    beta_coefs : ndarray of shape (p,)
        Stacked basis coefficients of the coefficient functions.
    intercept : float
        Constant term; predictions are ``intercept + D_new @ Psi @
        beta_coefs``.
    h : int
        Number of components (or principal components) used.
    robust_report : RobustReport or None
        Present only for the robust method.

    ``Psi``, the block-diagonal Gram matrix of the stacked basis, is a
    read-only property derived from ``systems``.
    """

    method: str
    systems: tuple[BasisSystem, ...]
    beta_coefs: np.ndarray
    intercept: float
    h: int
    robust_report: RobustReport | None = None

    @property
    def Psi(self) -> np.ndarray:
        return _geometry(self.systems).Psi


def _finish(design: MultiFunctionalDesign, method: str, W: np.ndarray, x_center: np.ndarray,
            offset: float, slopes: np.ndarray, report: RobustReport | None = None) -> FittedSofr:
    """Pull the fit ``offset + ((A - x_center) @ W) @ slopes`` back to basis
    coefficients, with the centering absorbed into the intercept."""
    theta = W @ slopes
    intercept = offset - float(x_center @ theta)
    return FittedSofr(method=method, systems=design.systems,
                      beta_coefs=design.Psi_inv_half.T @ theta, intercept=intercept,
                      h=W.shape[1], robust_report=report)


def fit_fpls(design: MultiFunctionalDesign, y: np.ndarray, h: int) -> FittedSofr:
    """Functional partial least squares with ``h`` components.

    Runs SIMPLS of ``y`` on the corrected design ``A``; the returned
    ``h`` may be smaller than requested when the design runs out of
    directions, and raises ``NumericalError`` when it has none.
    """
    pfit = simpls_fit(design.A, y, h)
    if pfit.h == 0:
        raise NumericalError(f"extracted no component of the {h} asked for")
    return _finish(design, "fpls", pfit.W, pfit.x_center, pfit.gamma0, pfit.gamma)


def fit_rfpls(design: MultiFunctionalDesign, y: np.ndarray, h: int,
              start_weights: np.ndarray | None = None) -> FittedSofr:
    """Robust functional partial least squares with ``h`` components.

    Reweighted SIMPLS extracts outlier-resistant scores; the response is
    then M-regressed on those scores with a bisquare whose cutoff ``c``
    is tuned on the score residuals.  ``start_weights`` are passed to
    ``prm_fit``.  Raises ``NumericalError`` when no component is extracted.
    """
    rfit = prm_fit(design.A, y, h, start_weights=start_weights)
    if rfit.h == 0:
        raise NumericalError(f"extracted no component of the {h} asked for")
    cutoff = select_tuning(rfit.scores, y)
    mest = m_estimate(rfit.scores, y, cutoff)
    report = RobustReport(weights=rfit.weights, c=cutoff, prm_iterations=rfit.iterations,
                          prm_converged=rfit.converged, m_iterations=mest.iterations,
                          m_converged=mest.converged, scale=mest.scale)
    return _finish(design, "rfpls", rfit.W, rfit.x_center, mest.intercept, mest.delta, report)


def fit_fpc(design: MultiFunctionalDesign, y: np.ndarray, h: int) -> FittedSofr:
    """Principal-component baseline: least squares on leading eigenscores.

    Eigenvectors of the sample covariance of the centered corrected
    design define the component directions (signs fixed so each
    vector's largest-magnitude entry is positive).  Like ``fit_fpls``, it
    keeps ``min(h, rank)`` of them and raises ``NumericalError`` at rank 0.
    """
    y = np.asarray(y, dtype=float).ravel()
    if h < 1:
        raise ValueError(f"h must be at least 1, got {h}")
    A = design.A
    n = A.shape[0]
    if y.size != n:
        raise ValueError(f"design has {n} rows but y has {y.size}")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite")
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    x_center = A.mean(axis=0)
    Ac = A - x_center
    cov = (Ac.T @ Ac) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    rank = int((evals > max(float(evals[0]), 0.0) * 1e-10).sum())
    if rank == 0:
        raise NumericalError(f"extracted no component of the {h} asked for")
    V = evecs[:, :min(h, rank)].copy()
    flip = V[np.abs(V).argmax(axis=0), np.arange(V.shape[1])] < 0
    V[:, flip] *= -1.0
    scores = Ac @ V
    dm = np.column_stack([np.ones(n), scores])
    coef, *_ = np.linalg.lstsq(dm, y, rcond=None)
    return _finish(design, "fpc", V, x_center, float(coef[0]), coef[1:])


_FITTERS = {"fpls": fit_fpls, "rfpls": fit_rfpls, "fpc": fit_fpc}


def coefficient_functions(fit: FittedSofr,
                          grids: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Evaluate each predictor's coefficient function on its grid."""
    if len(grids) != len(fit.systems):
        raise ValueError(f"model has {len(fit.systems)} predictors but "
                         f"{len(grids)} grids were given")
    out = []
    for system, grid, block in zip(fit.systems, grids, _block_slices(fit.systems)):
        out.append(evaluate_basis(system, np.asarray(grid, dtype=float))
                   @ fit.beta_coefs[block])
    return out


def predict_from_design(fit: FittedSofr, D_new: np.ndarray) -> np.ndarray:
    """Predict from coefficient rows already in the model's basis."""
    D_new = np.atleast_2d(np.asarray(D_new, dtype=float))
    p = fit.beta_coefs.size
    if D_new.shape[1] != p:
        raise ValueError(f"coefficient rows have {D_new.shape[1]} columns, expected {p}")
    return fit.intercept + D_new @ (fit.Psi @ fit.beta_coefs)


def predict(fit: FittedSofr, curves: Sequence[np.ndarray],
            grids: Sequence[np.ndarray]) -> np.ndarray:
    """Smooth new curves in the model's bases and predict responses."""
    return predict_from_design(fit, _smooth_stack(curves, grids, fit.systems))

