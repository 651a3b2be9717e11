"""Trimmed error metrics, coefficient error, and CV selection."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from rfpls import evaluation
from rfpls.basis import build_bspline_system, build_design, evaluate_basis
from rfpls.errors import NumericalError
from rfpls.evaluation import risee, select_num_components, trimmed_mspe, trimmed_r2
from rfpls.regression import fit_fpls, fit_rfpls, predict_from_design
from rfpls.simulation import generate_clean


class TestTrimmedMspe:
    def test_hand_computed(self):
        """One of five squared errors is dropped at alpha = 0.2."""
        y = [1.0, 2.0, 3.0, 4.0, 10.0]
        y_hat = [1.1, 1.9, 3.2, 3.8, 0.0]
        assert trimmed_mspe(y, y_hat, alpha=0.2) == pytest.approx(0.025)

    def test_no_trimming(self):
        y = [1.0, 2.0, 3.0, 4.0, 10.0]
        y_hat = [1.1, 1.9, 3.2, 3.8, 0.0]
        assert trimmed_mspe(y, y_hat, alpha=0.0) == pytest.approx(20.02)

    def test_trim_count_is_ceiling(self):
        """alpha = 0.1 on 11 points drops ceil(1.1) = 2 of them."""
        y = np.zeros(11)
        y_hat = np.concatenate([np.zeros(9), [10.0, 20.0]])
        assert trimmed_mspe(y, y_hat, alpha=0.1) == 0.0

    def test_trimming_everything_rejected(self):
        with pytest.raises(ValueError, match="removes all"):
            trimmed_mspe([1.0], [0.0], alpha=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            trimmed_mspe([1.0, 2.0], [1.0], alpha=0.1)
        with pytest.raises(ValueError):
            trimmed_mspe([], [], alpha=0.1)
        with pytest.raises(ValueError):
            trimmed_mspe([1.0], [1.0], alpha=1.0)
        with pytest.raises(ValueError):
            trimmed_mspe([np.nan], [1.0], alpha=0.0)


class TestTrimmedR2:
    def test_hand_computed(self):
        """Kept set {1,2,3,4}, trimmed mean 2.5, ratio mean 1/18."""
        y = [1.0, 2.0, 3.0, 4.0, 10.0]
        y_hat = [1.1, 1.9, 3.2, 3.8, 0.0]
        assert trimmed_r2(y, y_hat, alpha=0.2) == pytest.approx(1.0 - 1.0 / 18.0)

    def test_perfect_fit(self):
        y = np.arange(10.0)
        assert trimmed_r2(y, y, alpha=0.1) == 1.0

    def test_observation_at_trimmed_mean_is_excluded(self):
        """y = [1, 2, 3] with the middle prediction off: the middle point
        equals the kept mean, so only the other two ratios average."""
        r2 = trimmed_r2([1.0, 2.0, 3.0], [1.0, 2.0, 2.0], alpha=0.0)
        assert r2 == pytest.approx(0.5)

    def test_all_excluded_is_an_error(self):
        with pytest.raises(ValueError, match="trimmed mean"):
            trimmed_r2([2.0, 2.0], [1.0, 1.0], alpha=0.0)


class TestRisee:
    def test_hand_computed(self):
        """Last grid point never enters the left-rule sums."""
        assert risee([1.0, 2.0, 3.0], [2.0, 2.0, 5.0]) == pytest.approx(0.2)

    def test_perfect_recovery(self):
        b = np.sin(np.linspace(0.0, 1.0, 50))
        assert risee(b, b.copy()) == 0.0

    def test_matches_quadrature_for_smooth_curves(self):
        """For sin(2 pi t) perturbed by 0.1 cos(2 pi t) the exact relative
        integrated squared error is 0.01."""
        t = np.linspace(0.0, 1.0, 200)
        bt = np.sin(2.0 * np.pi * t)
        bh = bt + 0.1 * np.cos(2.0 * np.pi * t)
        assert risee(bt, bh) == pytest.approx(0.01, rel=1e-3)
        quad = simpson((bt - bh) ** 2, x=t) / simpson(bt ** 2, x=t)
        assert risee(bt, bh) == pytest.approx(quad, rel=1e-3)

    def test_zero_truth_rejected(self):
        """A truth vector that vanishes off the last point has no scale."""
        with pytest.raises(ValueError, match="zero"):
            risee([0.0, 0.0, 7.0], [1.0, 1.0, 7.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            risee([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            risee([1.0], [1.0])


def _spline_design(seed, n, num_basis, rank=None):
    rng = np.random.default_rng(seed)
    system = build_bspline_system((0.0, 1.0), num_basis, 4)
    grid = np.linspace(0.0, 1.0, 100)
    if rank is None:
        coefs = rng.normal(size=(n, num_basis))
    else:
        coefs = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, num_basis))
    curves = (evaluate_basis(system, grid) @ coefs.T).T
    return build_design([curves], [grid], [system]), rng


class TestSelectNumComponents:
    @pytest.mark.parametrize("method", ["fpls", "fpc"])
    def test_recovers_planted_rank(self, method):
        """Noiseless responses from a rank-3 design: every h >= 3 fits
        identically after exhaustion, and ties resolve downward to 3."""
        design, rng = _spline_design(20, n=40, num_basis=8, rank=3)
        y = design.A @ rng.normal(size=design.total_basis)
        report = select_num_components(design, y, max_components=6, folds=5,
                                       alpha=0.1, method=method, seed=3)
        assert report.chosen_h == 3
        assert report.scores[2] < 1e-16
        np.testing.assert_array_equal(report.scores[3:], report.scores[2])

    def test_matches_manual_fold_loop(self):
        """The pooled scores equal a from-scratch reimplementation of the
        permutation, splitting, fitting, and trimming."""
        design, rng = _spline_design(21, n=45, num_basis=6)
        y = design.A @ rng.normal(size=6) + 0.5 * rng.normal(size=45)
        folds, alpha, seed, hmax = 3, 0.1, 11, 4
        report = select_num_components(design, y, max_components=hmax,
                                       folds=folds, alpha=alpha,
                                       method="fpls", seed=seed)
        parts = np.array_split(np.random.default_rng(seed).permutation(45), folds)
        expected = []
        for h in range(1, hmax + 1):
            total, count = 0.0, 0
            for fold, test_idx in enumerate(parts):
                train = np.concatenate([p for j, p in enumerate(parts) if j != fold])
                fit = fit_fpls(design.take(train), y[train], h)
                sq = (y[test_idx] - predict_from_design(fit, design.D[test_idx])) ** 2
                keep = sq.size - math.ceil(alpha * sq.size)
                kept = np.argsort(sq, kind="stable")[:keep]
                total += float(sq[kept].sum())
                count += kept.size
            expected.append(total / count)
        np.testing.assert_array_equal(report.scores, expected)
        assert report.chosen_h == report.grid[int(np.argmin(expected))]
        assert report.skipped == ()

    def test_small_training_folds_are_skipped(self):
        """With 8 observations in 4 folds the training parts hold 6 rows,
        which cannot support more than 4 components."""
        design, rng = _spline_design(22, n=8, num_basis=5)
        y = rng.normal(size=8)
        report = select_num_components(design, y, max_components=6, folds=4,
                                       alpha=0.0, method="fpls", seed=0)
        assert np.isfinite(report.scores[:4]).all()
        assert np.isinf(report.scores[4:]).all()
        assert set(report.skipped) == {(h, f) for h in (5, 6) for f in range(4)}
        assert report.chosen_h <= 4

    def test_fpc_cells_past_the_design_rank_are_scored(self):
        """Three predictors in 4 B-splines each give a rank-12 design; fpc
        cells asking for more components fit the 12 there are, as fpls
        cells do, so they score as h = 12 and none is skipped."""
        data = generate_clean(60, 3)
        systems = [build_bspline_system((0.0, 1.0), 4) for _ in data.curves]
        design = build_design(data.curves, data.grids, systems)
        report = select_num_components(design, data.y, max_components=15,
                                       method="fpc", seed=0)
        assert report.skipped == ()
        assert np.isfinite(report.scores).all()
        np.testing.assert_array_equal(report.scores[12:], report.scores[11])
        assert report.chosen_h == 12

    def test_rfpls_shares_start_weights_within_a_fold(self, monkeypatch):
        """PRM start weights are computed once per fold, and the report
        equals one built from independent fit_rfpls calls per (h, fold)
        cell.  The grid runs past what 9 training rows support, so cells
        are skipped both by the size guard and by numerical breakdown."""
        design, rng = _spline_design(45, n=12, num_basis=6)
        y = design.A @ rng.normal(size=6) + rng.standard_t(2, size=12)
        folds, alpha, seed, hmax = 4, 0.1, 45, 9
        calls = []

        def counting(X, y_train):
            calls.append(X.shape[0])
            return real(X, y_train)

        real = evaluation.initial_weights
        monkeypatch.setattr(evaluation, "initial_weights", counting)
        report = select_num_components(design, y, max_components=hmax, folds=folds,
                                       alpha=alpha, method="rfpls", seed=seed)
        assert calls == [9] * folds

        parts = np.array_split(np.random.default_rng(seed).permutation(12), folds)
        expected, skipped = [], []
        for h in range(1, hmax + 1):
            total, count = 0.0, 0
            for fold, test_idx in enumerate(parts):
                train = np.concatenate([p for j, p in enumerate(parts) if j != fold])
                if train.size <= h + 1:
                    skipped.append((h, fold))
                    continue
                try:
                    fit = fit_rfpls(design.take(train), y[train], h)
                except NumericalError:
                    skipped.append((h, fold))
                    continue
                sq = (y[test_idx] - predict_from_design(fit, design.D[test_idx])) ** 2
                kept = np.argsort(sq, kind="stable")[:sq.size - math.ceil(alpha * sq.size)]
                total += float(sq[kept].sum())
                count += kept.size
            expected.append(total / count if count else np.inf)
        np.testing.assert_array_equal(report.scores, expected)
        assert report.chosen_h == report.grid[int(np.argmin(expected))]
        assert report.skipped == tuple(skipped)
        assert {(8, f) for f in range(folds)} <= set(skipped)
        assert any(h < 8 for h, _ in skipped)

    def test_works_for_all_methods(self):
        design, rng = _spline_design(23, n=50, num_basis=6)
        y = design.A @ rng.normal(size=6) + 0.3 * rng.normal(size=50)
        for method in ("fpls", "rfpls", "fpc"):
            report = select_num_components(design, y, max_components=3,
                                           folds=4, method=method, seed=1)
            assert 1 <= report.chosen_h <= 3

    def test_all_folds_failing_raises(self):
        """A constant response makes the robust fit degenerate everywhere."""
        design, _ = _spline_design(24, n=20, num_basis=5)
        y = np.full(20, 3.0)
        with pytest.raises(NumericalError):
            select_num_components(design, y, max_components=2, folds=4,
                                  method="rfpls", seed=0)

    @pytest.mark.parametrize("method", ["fpls", "rfpls"])
    def test_cells_without_components_are_skipped(self, method):
        """Curves scaled by 2^-332 leave no component in any fold: every
        cell is skipped as a breakdown, so no component count is chosen."""
        data = generate_clean(60, 3)
        systems = [build_bspline_system((0.0, 1.0), 8) for _ in data.curves]
        design = build_design([2.0 ** -332 * c for c in data.curves], data.grids, systems)
        with pytest.raises(NumericalError, match="every fold for every"):
            select_num_components(design, data.y, 3, method=method)

    def test_validation(self):
        design, rng = _spline_design(25, n=12, num_basis=5)
        y = rng.normal(size=12)
        with pytest.raises(ValueError, match="method"):
            select_num_components(design, y, 2, method="ridge")
        with pytest.raises(ValueError, match="rows"):
            select_num_components(design, y[:-1], 2)
        with pytest.raises(ValueError, match="max_components"):
            select_num_components(design, y, 0)
        with pytest.raises(ValueError, match="folds"):
            select_num_components(design, y, 2, folds=1)
        with pytest.raises(ValueError, match="folds"):
            select_num_components(design, y, 2, folds=13)

    @pytest.mark.parametrize("alpha", [-0.5, 1.0, math.nan])
    def test_trim_alpha_outside_unit_interval(self, alpha):
        """A negative alpha used to score without trimming, and NaN failed
        in ``math.ceil``; both now fail with the metrics' message."""
        design, rng = _spline_design(26, n=40, num_basis=5)
        y = rng.normal(size=40)
        with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\), got"):
            select_num_components(design, y, 2, alpha=alpha)
