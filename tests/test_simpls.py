"""Classical and weighted SIMPLS against independent references."""

import numpy as np
import pytest

from rfpls.simpls import simpls_fit, weighted_simpls_fit


def _regression_data(seed=0, n=30, p=7, noise=1.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = X @ rng.normal(size=p) + noise * rng.normal(size=n)
    return X, y


def _pls_predict(fit, X_new):
    """Responses of new rows: ``gamma0 + (X_new - x_center) @ W @ gamma``."""
    return fit.gamma0 + (X_new - fit.x_center) @ fit.W @ fit.gamma


def _nipals_scores(X, y, h):
    """PLS1 scores by the classical deflation algorithm (reference route)."""
    Xd = X - X.mean(axis=0)
    yc = y - y.mean()
    cols = []
    for _ in range(h):
        w = Xd.T @ yc
        w = w / np.linalg.norm(w)
        t = Xd @ w
        t = t / np.linalg.norm(t)
        p = Xd.T @ t
        Xd = Xd - np.outer(t, p)
        cols.append(t)
    return np.column_stack(cols)


class TestSimplsFit:
    def test_matches_nipals_oracle(self):
        """SIMPLS scores equal NIPALS scores for a univariate response."""
        X, y = _regression_data(seed=42)
        fit = simpls_fit(X, y, 4)
        ref = _nipals_scores(X, y, 4)
        sign = np.sign((ref * fit.scores).sum(axis=0))
        np.testing.assert_allclose(ref * sign, fit.scores, atol=1e-10)

    def test_full_components_reach_least_squares(self):
        """With h = p the fitted values match the normal-equations solution."""
        X, y = _regression_data(seed=1, n=40, p=5)
        fit = simpls_fit(X, y, 5)
        Xc = X - X.mean(axis=0)
        beta = np.linalg.solve(Xc.T @ Xc, Xc.T @ (y - y.mean()))
        want = y.mean() + Xc @ beta
        np.testing.assert_allclose(_pls_predict(fit, X), want, atol=1e-8)

    def test_scores_orthonormal(self):
        X, y = _regression_data(seed=2)
        fit = simpls_fit(X, y, 5)
        np.testing.assert_allclose(fit.scores.T @ fit.scores, np.eye(5), atol=1e-10)

    def test_component_nesting_is_exact(self):
        """The first columns of a larger fit equal the smaller fit."""
        X, y = _regression_data(seed=3)
        small = simpls_fit(X, y, 2)
        large = simpls_fit(X, y, 5)
        np.testing.assert_array_equal(large.W[:, :2], small.W)
        np.testing.assert_array_equal(large.scores[:, :2], small.scores)
        np.testing.assert_array_equal(large.gamma[:2], small.gamma)

    def test_translation_invariant_predictions(self):
        """Shifting all rows by a constant vector leaves predictions unchanged."""
        X, y = _regression_data(seed=4)
        shift = np.full(X.shape[1], 3.7)
        fit = simpls_fit(X, y, 3)
        fit2 = simpls_fit(X + shift, y, 3)
        Xnew = np.random.default_rng(5).normal(size=(6, X.shape[1]))
        np.testing.assert_allclose(_pls_predict(fit2, Xnew + shift),
                                   _pls_predict(fit, Xnew), atol=1e-8)

    def test_response_scale_equivariance(self):
        X, y = _regression_data(seed=6)
        fit = simpls_fit(X, y, 3)
        fit2 = simpls_fit(X, 2.5 * y, 3)
        np.testing.assert_allclose(fit2.gamma, 2.5 * fit.gamma, atol=1e-8)

    def test_training_predictions_use_score_path(self):
        X, y = _regression_data(seed=7)
        fit = simpls_fit(X, y, 3)
        np.testing.assert_allclose(_pls_predict(fit, X),
                                   fit.gamma0 + fit.scores @ fit.gamma, atol=1e-8)

    def test_rank_exhaustion_flags_and_truncates(self):
        """A rank-2 design yields 2 components and the least-squares fit."""
        rng = np.random.default_rng(8)
        X = rng.normal(size=(25, 2)) @ rng.normal(size=(2, 6))
        y = X @ rng.normal(size=6) + 0.01 * rng.normal(size=25)
        fit = simpls_fit(X, y, 4)
        assert fit.h == 2
        assert fit.rank_exhausted
        Xc = np.column_stack([np.ones(25), X])
        want = Xc @ np.linalg.lstsq(Xc, y, rcond=None)[0]
        np.testing.assert_allclose(_pls_predict(fit, X), want, atol=1e-6)

    def test_validation_errors(self):
        X, y = _regression_data()
        with pytest.raises(ValueError):
            simpls_fit(X, y, 0)
        with pytest.raises(ValueError):
            simpls_fit(X, y[:-1], 2)
        with pytest.raises(ValueError):
            simpls_fit(X[:1], y[:1], 1)
        bad = X.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            simpls_fit(bad, y, 2)


class TestWeightedSimpls:
    def test_unit_weights_identical_to_classical(self):
        """All-ones weights reproduce the classical fit bit for bit."""
        X, y = _regression_data(seed=10)
        fit = simpls_fit(X, y, 3)
        wfit = weighted_simpls_fit(X, y, np.ones(X.shape[0]), 3)
        np.testing.assert_array_equal(wfit.W, fit.W)
        np.testing.assert_array_equal(wfit.scores, fit.scores)
        np.testing.assert_array_equal(wfit.gamma, fit.gamma)
        assert wfit.gamma0 == fit.gamma0
        np.testing.assert_array_equal(wfit.x_center, fit.x_center)

    def test_integer_weights_equal_replication(self):
        """Weight k behaves exactly like k copies of the observation."""
        X, y = _regression_data(seed=11, n=20, p=5)
        rng = np.random.default_rng(12)
        w = rng.integers(1, 4, size=20).astype(float)
        wfit = weighted_simpls_fit(X, y, w, 3)
        rfit = simpls_fit(np.repeat(X, w.astype(int), axis=0),
                          np.repeat(y, w.astype(int)), 3)
        np.testing.assert_allclose(wfit.gamma, rfit.gamma, atol=1e-10)
        Xnew = rng.normal(size=(8, 5))
        np.testing.assert_allclose(_pls_predict(wfit, Xnew),
                                   _pls_predict(rfit, Xnew), atol=1e-10)

    def test_zero_weight_equals_leaving_out(self):
        """A zero-weight row does not influence the fit but is still scored."""
        X, y = _regression_data(seed=13, n=22, p=6)
        w = np.ones(22)
        w[7] = 0.0
        wfit = weighted_simpls_fit(X, y, w, 3)
        dropped = simpls_fit(np.delete(X, 7, axis=0), np.delete(y, 7), 3)
        np.testing.assert_allclose(wfit.W, dropped.W, atol=1e-10)
        np.testing.assert_allclose(wfit.gamma, dropped.gamma, atol=1e-10)
        np.testing.assert_allclose(wfit.x_center, dropped.x_center, atol=1e-12)
        np.testing.assert_array_equal(wfit.scores[7],
                                      (X[7] - wfit.x_center) @ wfit.W)

    def test_corrected_scores_are_projections(self):
        """Reported scores equal centered-data projections for every weight."""
        X, y = _regression_data(seed=14)
        rng = np.random.default_rng(15)
        w = rng.uniform(0.05, 1.0, size=X.shape[0])
        wfit = weighted_simpls_fit(X, y, w, 3)
        np.testing.assert_allclose(wfit.scores, (X - wfit.x_center) @ wfit.W,
                                   atol=1e-10)

    def test_weight_validation(self):
        X, y = _regression_data()
        n = X.shape[0]
        with pytest.raises(ValueError):
            weighted_simpls_fit(X, y, -np.ones(n), 2)
        with pytest.raises(ValueError):
            weighted_simpls_fit(X, y, np.zeros(n), 2)
        one_hot = np.zeros(n)
        one_hot[0] = 1.0
        with pytest.raises(ValueError):
            weighted_simpls_fit(X, y, one_hot, 2)
        with pytest.raises(ValueError):
            weighted_simpls_fit(X, y, np.ones(n - 1), 2)

