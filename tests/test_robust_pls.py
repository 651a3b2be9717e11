"""Iteratively reweighted SIMPLS: reductions, weights, and breakdowns."""

import numpy as np
import pytest

from rfpls import robust_pls
from rfpls.errors import BreakdownError, DegenerateScaleError
from rfpls.robust import hampel_weight, l1_median, mad_scale
from rfpls.robust_pls import initial_weights, prm_fit
from rfpls.simpls import simpls_fit


def _unit(v):
    return np.ones_like(np.asarray(v, dtype=float))


def _benign_circle(n=40):
    """Rows on a circle with a smooth response: nothing is outlying enough
    to dip below the flat piece of the weight function."""
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    X = np.column_stack([np.cos(theta), np.sin(theta)])
    y = 0.3 + np.cos(theta) + 0.05 * (-1.0) ** np.arange(n)
    return X, y


def _central_majority(shift):
    """Twelve of twenty rows at the origin with response 0, the other eight
    in pairs mirrored through it, their responses mirrored about
    ``shift / 2``.  Every sum of a unit-weight pass is a sum of small
    integers, so the pass is exact: the central rows share one residual
    (exactly 0 when ``shift`` is 0) and score exactly 0."""
    others = np.array([[1.0, 2.0], [3.0, -1.0], [-2.0, 1.0], [2.0, 3.0]])
    y_others = np.array([1.0, 4.0, -3.0, 2.0])
    X = np.vstack([np.zeros((12, 2)), others, -others])
    return X, np.concatenate([np.zeros(12), y_others, shift - y_others])


class TestInitialWeights:
    def test_benign_data_keeps_everyone(self):
        X, y = _benign_circle()
        np.testing.assert_array_equal(initial_weights(X, y), np.ones(len(y)))

    def test_outlier_is_floored(self):
        """A row far out in both response and position lands near the floor."""
        X, y = _benign_circle()
        X[0] = [40.0, 40.0]
        y[0] = 90.0
        w = initial_weights(X, y)
        assert w[0] == 1e-6
        assert np.median(w[1:]) == 1.0

    def test_weights_stay_in_range(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        w = initial_weights(X, y)
        assert (w >= 1e-6).all() and (w <= 1.0).all()

    def test_constant_response_degenerates(self):
        X = np.random.default_rng(1).normal(size=(20, 3))
        with pytest.raises(DegenerateScaleError):
            initial_weights(X, np.full(20, 2.0))

    def test_coincident_rows_degenerate(self):
        """All rows identical means leverage distances have zero median."""
        X = np.tile([1.0, 2.0], (20, 1))
        y = np.arange(20.0)
        with pytest.raises(DegenerateScaleError):
            initial_weights(X, y)


class TestPrmFit:
    def test_unit_weight_hook_is_classical_bitwise(self, monkeypatch):
        """Forcing unit weights reproduces plain SIMPLS exactly."""
        rng = np.random.default_rng(10)
        X = rng.normal(size=(30, 6))
        y = X @ rng.normal(size=6) + rng.normal(size=30)
        classical = simpls_fit(X, y, 3)
        monkeypatch.setattr(robust_pls, "hampel_weight", _unit)
        robust = prm_fit(X, y, 3)
        np.testing.assert_array_equal(robust.W, classical.W)
        np.testing.assert_array_equal(robust.scores, classical.scores)
        np.testing.assert_array_equal(robust.gamma, classical.gamma)
        assert robust.gamma0 == classical.gamma0
        np.testing.assert_array_equal(robust.x_center, classical.x_center)
        np.testing.assert_array_equal(robust.weights, np.ones(30))
        assert robust.converged
        assert robust.iterations == 2

    def test_benign_data_converges_to_classical(self):
        """On the circle construction the default weights never leave 1."""
        X, y = _benign_circle()
        classical = simpls_fit(X, y, 1)
        robust = prm_fit(X, y, 1)
        assert robust.converged
        np.testing.assert_array_equal(robust.weights, np.ones(len(y)))
        np.testing.assert_array_equal(robust.gamma, classical.gamma)
        np.testing.assert_array_equal(robust.W, classical.W)

    def test_contaminated_rows_identified(self):
        """Planted gross outliers end with small final weights."""
        rng = np.random.default_rng(11)
        n = 60
        X = rng.normal(size=(n, 5))
        y = X @ np.array([2.0, -1.0, 0.5, 0.0, 1.0]) + 0.5 * rng.normal(size=n)
        bad = np.array([4, 19, 33, 47, 58])
        X[bad] *= 6.0
        y[bad] = -30.0 + 5.0 * rng.normal(size=bad.size)
        fit = prm_fit(X, y, 2)
        assert (fit.weights[bad] < 0.5).all()
        clean = np.setdiff1d(np.arange(n), bad)
        assert np.median(fit.weights[clean]) > 0.8

    def test_robust_loadings_resist_contamination(self, monkeypatch):
        """Final loadings stay close to the clean-data fit despite outliers."""
        rng = np.random.default_rng(12)
        n = 80
        X = rng.normal(size=(n, 4))
        beta = np.array([1.0, 2.0, 0.0, -1.0])
        y = X @ beta + 0.3 * rng.normal(size=n)
        Xc, yc = X.copy(), y.copy()
        bad = np.arange(0, n, 10)
        Xc[bad] *= 8.0
        yc[bad] += 40.0
        robust = prm_fit(Xc, yc, 2)
        monkeypatch.setattr(robust_pls, "hampel_weight", _unit)
        clean = prm_fit(X, y, 2)
        contaminated = prm_fit(Xc, yc, 2)
        theta_clean = clean.W @ clean.gamma
        err_robust = np.linalg.norm(robust.W @ robust.gamma - theta_clean)
        err_plain = np.linalg.norm(contaminated.W @ contaminated.gamma
                                   - theta_clean)
        assert err_robust < 0.5 * err_plain

    def test_iteration_cap_flags_nonconvergence(self, monkeypatch):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 4))
        y = rng.normal(size=40)
        monkeypatch.setattr(robust_pls, "_PRM_MAX_ITER", 1)
        fit = prm_fit(X, y, 2)
        assert not fit.converged
        assert fit.iterations == 1

    def test_breakdown_with_starved_weights(self, monkeypatch):
        """A hook that zeroes almost every weight breaks the loop down."""
        rng = np.random.default_rng(14)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        monkeypatch.setattr(robust_pls, "hampel_weight",
                            lambda v: (np.arange(v.size) == 0).astype(float))
        with pytest.raises(BreakdownError):
            prm_fit(X, y, 1)

    def test_given_start_weights_replace_initial_weights(self):
        """Passing initial_weights' result reproduces the default fit bit
        for bit; a start vector of the wrong length is refused."""
        rng = np.random.default_rng(16)
        X = rng.normal(size=(40, 5))
        y = X @ rng.normal(size=5) + rng.standard_t(2, size=40)
        start = initial_weights(X, y)
        for h in (1, 2, 3):
            want = prm_fit(X, y, h)
            got = prm_fit(X, y, h, start_weights=start)
            np.testing.assert_array_equal(got.W, want.W)
            np.testing.assert_array_equal(got.weights, want.weights)
            assert got.iterations == want.iterations
        with pytest.raises(ValueError, match="start_weights"):
            prm_fit(X, y, 2, start_weights=start[:-1])

    def test_weights_are_rebuilt_from_the_returned_fit(self, monkeypatch):
        """The returned weights follow from ``scores``, ``gamma0`` and
        ``gamma`` bit for bit; after a single pass they differ from the
        start weights that produced ``W``."""
        rng = np.random.default_rng(17)
        X = rng.normal(size=(60, 5))
        y = X @ rng.normal(size=5) + rng.standard_t(2, size=60)
        for h, max_iter in ((1, 100), (2, 100), (3, 100), (2, 1)):
            monkeypatch.setattr(robust_pls, "_PRM_MAX_ITER", max_iter)
            fit = prm_fit(X, y, h)
            resid = y - (fit.gamma0 + fit.scores @ fit.gamma)
            w_resid = hampel_weight(np.abs(resid) / mad_scale(resid))
            dist = np.linalg.norm(fit.scores - l1_median(fit.scores), axis=1)
            w_lev = hampel_weight(dist / float(np.median(dist)))
            np.testing.assert_array_equal(fit.weights,
                                          np.clip(w_resid * w_lev, 1e-6, 1.0))
        assert not np.array_equal(fit.weights, initial_weights(X, y))

    def test_zero_scales_keep_exactly_central_rows(self, monkeypatch):
        """The residual MAD and the median score distance are both exactly
        0, and the central rows' residuals and distances are exactly 0:
        they keep weight 1 and the rest are floored at 1e-6.  The loop is
        capped at that pass: later passes weigh rows unequally, and their
        sums are no longer exact."""
        X, y = _central_majority(0.0)
        monkeypatch.setattr(robust_pls, "_PRM_MAX_ITER", 1)
        fit = prm_fit(X, y, 1, start_weights=np.ones(20))
        np.testing.assert_array_equal(fit.weights, np.repeat([1.0, 1e-6], [12, 8]))

    def test_zero_scales_without_exact_residuals_break_down(self):
        """With the responses unbalanced, the residual MAD is still 0 but no
        central residual is exactly 0, so no row keeps positive weight."""
        X, y = _central_majority(2.0)
        with pytest.raises(BreakdownError, match="fewer than 2 observations"):
            prm_fit(X, y, 1, start_weights=np.ones(20))

    def test_validation(self):
        X = np.random.default_rng(15).normal(size=(10, 3))
        y = np.arange(10.0)
        with pytest.raises(ValueError):
            prm_fit(X, y, 0)
        with pytest.raises(ValueError):
            prm_fit(X, y[:-1], 1)
        with pytest.raises(ValueError):
            prm_fit(X[:2], y[:2], 1)
