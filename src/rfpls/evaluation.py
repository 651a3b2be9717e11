"""Trimmed accuracy metrics, coefficient error, and cross-validated
component selection.

Trimming discards the ``ceil(alpha * n)`` largest squared prediction
errors so a handful of wild observations cannot dominate a score; every
consumer of a trimmed quantity in this package goes through the single
keep-rule below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import MultiFunctionalDesign
from .errors import NumericalError
from .regression import _FITTERS, predict_from_design
from .robust_pls import initial_weights


@dataclass(frozen=True)
class CVReport:
    """Cross-validation trace: one pooled trimmed score per candidate.

    ``skipped`` lists ``(h, fold)`` cells dropped because the training
    part was too small or the fit broke down numerically.
    """

    grid: tuple[int, ...]
    scores: np.ndarray
    chosen_h: int
    folds: int
    alpha: float
    skipped: tuple[tuple[int, int], ...]


def _kept(sq_errors: np.ndarray, alpha: float) -> np.ndarray:
    """Indices surviving the trim: all but the ceil(alpha n) largest errors."""
    n = sq_errors.size
    drop = math.ceil(alpha * n)
    keep = n - drop
    if keep <= 0:
        raise ValueError(f"trimming alpha = {alpha} removes all {n} observations")
    order = np.argsort(sq_errors, kind="stable")
    return order[:keep]


def _check_pair(y: np.ndarray, y_hat: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=float).ravel()
    y_hat = np.asarray(y_hat, dtype=float).ravel()
    if y.size != y_hat.size:
        raise ValueError(f"y has {y.size} entries but y_hat has {y_hat.size}")
    if y.size == 0:
        raise ValueError("need at least one observation")
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if not (np.isfinite(y).all() and np.isfinite(y_hat).all()):
        raise ValueError("y and y_hat must be finite")
    return y, y_hat


def trimmed_mspe(y: np.ndarray, y_hat: np.ndarray, alpha: float = 0.1) -> float:
    """Mean squared prediction error over the kept observations."""
    y, y_hat = _check_pair(y, y_hat, alpha)
    sq = (y - y_hat) ** 2
    return float(sq[_kept(sq, alpha)].mean())


def trimmed_r2(y: np.ndarray, y_hat: np.ndarray, alpha: float = 0.1) -> float:
    """One minus the mean per-observation error ratio over the kept set.

    Each kept observation contributes ``(Y_i - Yhat_i)^2 / (Y_i -
    Ybar)^2`` with ``Ybar`` the mean response of the kept set;
    observations with ``Y_i`` exactly equal to ``Ybar`` are excluded
    from the average.
    """
    y, y_hat = _check_pair(y, y_hat, alpha)
    sq = (y - y_hat) ** 2
    kept = _kept(sq, alpha)
    y_bar = float(y[kept].mean())
    denom = (y[kept] - y_bar) ** 2
    valid = denom > 0.0
    if not valid.any():
        raise ValueError("every kept response equals the trimmed mean; "
                         "error ratios undefined")
    ratios = sq[kept][valid] / denom[valid]
    return float(1.0 - ratios.mean())


def risee(beta_true: np.ndarray, beta_hat: np.ndarray) -> float:
    """Relative integrated squared error on a uniform grid (left rule).

    With equal spacing the quadrature weights cancel between numerator
    and denominator, leaving sums over all but the last grid point.
    """
    bt = np.asarray(beta_true, dtype=float).ravel()
    bh = np.asarray(beta_hat, dtype=float).ravel()
    if bt.size != bh.size:
        raise ValueError(f"beta_true has {bt.size} points but beta_hat has {bh.size}")
    if bt.size < 2:
        raise ValueError("need at least 2 grid points")
    num = float(((bt - bh)[:-1] ** 2).sum())
    den = float((bt[:-1] ** 2).sum())
    if den == 0.0:
        raise ValueError("beta_true is zero on the grid; relative error undefined")
    return num / den


def select_num_components(design: MultiFunctionalDesign, y: np.ndarray,
                          max_components: int, folds: int = 5,
                          alpha: float = 0.1, method: str = "fpls",
                          seed: int = 0) -> CVReport:
    """Choose the component count by fold-wise trimmed prediction error.

    Observations are permuted with the given seed and split into
    ``folds`` nearly equal parts.  For each candidate ``h`` the pooled
    score sums kept squared errors across folds and divides by the kept
    count; the smallest score wins, ties going to the smaller ``h``.
    Cells whose training part has too few rows for ``h`` components, or
    whose fit breaks down, are skipped and recorded; a fit short of ``h``
    directions is scored as it is.  For ``'rfpls'`` the PRM start weights
    depend on the fold only, so each fold computes them once, at its
    first fitted cell, and shares them across ``h``.
    """
    if method not in _FITTERS:
        raise ValueError(f"method must be one of {sorted(_FITTERS)}, got {method!r}")
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    y = np.asarray(y, dtype=float).ravel()
    n = design.n
    if y.size != n:
        raise ValueError(f"design has {n} rows but y has {y.size}")
    if max_components < 1:
        raise ValueError(f"max_components must be at least 1, got {max_components}")
    if folds < 2 or folds > n:
        raise ValueError(f"folds must be between 2 and n = {n}, got {folds}")
    fitter = _FITTERS[method]
    rng = np.random.default_rng(seed)
    parts = np.array_split(rng.permutation(n), folds)

    grid = tuple(range(1, max_components + 1))
    totals = np.zeros(len(grid))
    counts = np.zeros(len(grid), dtype=int)
    skipped: list[tuple[int, int]] = []
    for fold, test_idx in enumerate(parts):
        train_idx = np.concatenate([p for j, p in enumerate(parts) if j != fold])
        sub = design.take(train_idx)
        y_train = y[train_idx]
        start = None
        for gi, h in enumerate(grid):
            if train_idx.size <= h + 1:
                skipped.append((h, fold))
                continue
            try:
                if method == "rfpls":
                    if start is None:
                        start = initial_weights(sub.A, y_train)
                    fit = fitter(sub, y_train, h, start_weights=start)
                else:
                    fit = fitter(sub, y_train, h)
            except NumericalError:
                skipped.append((h, fold))
                continue
            pred = predict_from_design(fit, design.D[test_idx])
            sq = (y[test_idx] - pred) ** 2
            kept = _kept(sq, alpha)
            totals[gi] += float(sq[kept].sum())
            counts[gi] += kept.size
    skipped.sort()
    scores = np.full(len(grid), np.inf)
    scored = counts > 0
    scores[scored] = totals[scored] / counts[scored]
    if not np.isfinite(scores).any():
        raise NumericalError("cross-validation failed in every fold for every "
                             "candidate component count")
    chosen = grid[int(np.argmin(scores))]
    return CVReport(grid=grid, scores=scores, chosen_h=chosen, folds=folds,
                    alpha=alpha, skipped=tuple(skipped))
