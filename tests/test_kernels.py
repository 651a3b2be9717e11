"""The private small-array kernels of the robust loop reproduce the numpy
calls and the code they replaced bit for bit.

Frozen copies of the replaced code are kept here as references.  Every
comparison is on the bytes of the results, so a kernel that moves one
bit, or turns a -0.0 into +0.0 where the original did not, fails.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfpls import robust, robust_pls
from rfpls.basis import build_bspline_system, build_design
from rfpls.regression import fit_rfpls
from rfpls.robust import _column_medians, _median, _row_norms, hampel_weight, l1_median
from rfpls.robust_pls import prm_fit
from rfpls.simpls import PLSFit, _weighted_simpls, weighted_simpls_fit
from rfpls.simulation import contaminate, generate_clean


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


# Finite values with ties, signed zeros and magnitudes near 1e-150 and 1e150.
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-9.0, 9.0), st.sampled_from([-150, 150])),
)


@st.composite
def _matrices(draw, max_rows=30, max_cols=6):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    values = draw(st.lists(_VALUES, min_size=rows * cols, max_size=rows * cols))
    return np.array(values).reshape(rows, cols)


class TestMedians:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_VALUES, min_size=1, max_size=41))
    @example([-0.0])
    @example([-0.0, -0.0])
    @example([-0.0, 0.0, -0.0])
    @example([1e150, 1e150, -1e-150, 3.0])
    def test_median_is_numpy_median(self, values):
        a = np.array(values)
        assert _bits(_median(a)) == _bits(np.median(a))

    @settings(max_examples=200, deadline=None)
    @given(_matrices())
    def test_column_medians_are_numpy_medians(self, a):
        assert _bits(_column_medians(a)) == _bits(np.median(a, axis=0))
        assert _bits(_column_medians(np.asfortranarray(a))) == _bits(np.median(a, axis=0))

    def test_median_leaves_its_input_alone(self):
        a = np.array([3.0, 1.0, 2.0, 0.0])
        _median(a)
        _column_medians(a[:, None])
        assert a.tolist() == [3.0, 1.0, 2.0, 0.0]


class TestNorms:
    @settings(max_examples=200, deadline=None)
    @given(_matrices(max_cols=70))
    def test_row_norms_are_numpy_norms(self, d):
        assert _bits(_row_norms(d)) == _bits(np.linalg.norm(d, axis=1))
        f = np.asfortranarray(d)
        assert _bits(_row_norms(f)) == _bits(np.linalg.norm(f, axis=1))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_VALUES, min_size=1, max_size=200))
    def test_vector_norm_is_numpy_norm(self, values):
        """The 1-D norm written out in the loops, on a contiguous vector."""
        v = np.array(values)
        assert _bits(math.sqrt(v.dot(v))) == _bits(np.linalg.norm(v))


def _frozen_hampel_weight(x):
    arr = np.asarray(x, dtype=float)
    ax = np.abs(arr)
    c1, c2, c3 = 1.65, 1.96, 3.09
    out = np.ones_like(ax)
    mid = (ax > c1) & (ax <= c2)
    desc = (ax > c2) & (ax <= c3)
    np.divide(c1, ax, out=out, where=mid)
    np.divide(c1 * (c3 - ax), (c3 - c2) * ax, out=out, where=desc)
    out[ax > c3] = 0.0
    return float(out) if arr.ndim == 0 else out


class TestHampelWeight:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_VALUES, st.floats(-5.0, 5.0),
                              st.sampled_from([1.65, 1.96, 3.09, -3.09,
                                               np.inf, -np.inf, np.nan])),
                    min_size=1, max_size=40))
    def test_matches_the_masked_formula(self, values):
        x = np.array(values)
        with np.errstate(all="raise"):
            got = hampel_weight(x)
        assert _bits(got) == _bits(_frozen_hampel_weight(x))
        for v in values[:3]:
            assert _bits(hampel_weight(v)) == _bits(_frozen_hampel_weight(v))


def _frozen_l1_median(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    center = np.median(pts, axis=0)
    spread = float(np.linalg.norm(pts - center, axis=1).max())
    if spread == 0.0:
        return center
    eps = 1e-12 * spread
    m = center
    for _ in range(500):
        diff = pts - m
        dist = np.linalg.norm(diff, axis=1)
        on_point = dist < eps
        free = ~on_point
        if not free.any():
            return m
        inv = 1.0 / dist[free]
        tpoint = (pts[free] * inv[:, None]).sum(axis=0) / inv.sum()
        if on_point.any():
            resultant = (diff[free] * inv[:, None]).sum(axis=0)
            rnorm = float(np.linalg.norm(resultant))
            multiplicity = float(on_point.sum())
            if rnorm <= multiplicity:
                return m
            frac = multiplicity / rnorm
            m_new = (1.0 - frac) * tpoint + frac * m
        else:
            m_new = tpoint
        step = float(np.linalg.norm(m_new - m))
        m = m_new
        if step < 1e-8 * spread:
            break
    return m


@st.composite
def _point_clouds(draw):
    """Points drawn from a few distinct rows, so that duplicates, majority
    points and iterates landing on a data point all occur.  Up to 9
    columns, so that clouds on both sides of the 7/8-column switch of
    ``l1_median``'s pass are drawn."""
    base = draw(_matrices(max_rows=8, max_cols=9))
    picks = draw(st.lists(st.integers(0, base.shape[0] - 1), min_size=1, max_size=25))
    pts = base[picks]
    if draw(st.booleans()):
        pts = np.vstack([pts, np.median(pts, axis=0)])
    return pts * draw(st.sampled_from([1.0, 1e-150]))


class TestL1Median:
    @settings(max_examples=300, deadline=None)
    @given(_point_clouds())
    # A column of -0.0 that the free-point pass sums: numpy's sum gives +0.0.
    @example(np.array([[0.0, -0.0, 0.0], [1.0, -0.0, 0.0], [0.0, -0.0, 1.0], [2.0, -0.0, 3.0]]))
    def test_matches_frozen_weiszfeld(self, pts):
        assert _bits(l1_median(pts)) == _bits(_frozen_l1_median(pts))

    @settings(max_examples=100, deadline=None)
    @given(_point_clouds())
    def test_fortran_ordered_input(self, pts):
        f = np.asfortranarray(pts)
        assert _bits(l1_median(f)) == _bits(_frozen_l1_median(f))

    @pytest.mark.parametrize("seed", range(4))
    def test_score_sized_clouds(self, seed):
        """Clouds the size of the robust loop's scores, with a planted
        majority point that the iterate reaches, and clouds of 6 to 8
        columns on both sides of the pass's layout switch."""
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((160, 1 + seed))
        pts[:90] = pts[0]
        assert _bits(l1_median(pts)) == _bits(_frozen_l1_median(pts))
        pts = rng.standard_normal((160, 60))
        assert _bits(l1_median(pts)) == _bits(_frozen_l1_median(pts))
        pts = np.asfortranarray(rng.standard_normal((160, 5)))
        assert _bits(l1_median(pts)) == _bits(_frozen_l1_median(pts))
        for k in (6, 7, 8):
            pts = rng.standard_normal((160, k)) * 10.0 ** rng.integers(-3, 4, size=k)
            for order in (np.ascontiguousarray, np.asfortranarray):
                assert _bits(l1_median(order(pts))) == _bits(_frozen_l1_median(order(pts)))

    def test_cap_warns_and_returns_the_last_iterate(self, monkeypatch):
        pts = np.random.default_rng(5).standard_normal((160, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            l1_median(pts)
        monkeypatch.setattr(robust, "_L1_MAX_ITER", 3)
        with pytest.warns(RuntimeWarning, match=r"iteration cap \(3\); last step [0-9.e-]+ of"):
            got = l1_median(pts)
        want = np.median(pts, axis=0)
        for _ in range(3):
            inv = 1.0 / np.linalg.norm(pts - want, axis=1)
            want = (pts * inv[:, None]).sum(axis=0) / inv.sum()
        np.testing.assert_allclose(got, want, rtol=1e-13)


def _frozen_weighted_simpls_fit(X, y, w, h):
    """Weighted SIMPLS as written before the split into checks and core."""
    n, p = X.shape
    pos = w > 0
    wsum = float(w.sum())
    x_center = (w @ X) / wsum
    y_center = float(w @ y) / wsum
    sq = np.sqrt(w)
    xc = sq[:, None] * (X - x_center)
    yc = sq * (y - y_center)
    h_cap = min(h, n - 1, p)
    s = xc.T @ yc
    s_ref = float(np.linalg.norm(s))
    w_cols, t_cols, v_basis, t_ref = [], [], [], 0.0
    for _ in range(h_cap):
        if np.linalg.norm(s) <= 1e-12 * max(s_ref, 1e-300):
            break
        r = s.copy()
        t = xc @ r
        tn = float(np.linalg.norm(t))
        if tn <= 1e-12 * max(t_ref, 1e-300):
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
        vn = float(np.linalg.norm(v))
        if vn <= 1e-12 * max(float(np.linalg.norm(p_load)), 1e-300):
            break
        v /= vn
        v_basis.append(v)
        s = s - v * (v @ s)
    if w_cols:
        W, T = np.column_stack(w_cols), np.column_stack(t_cols)
    else:
        W, T = np.zeros((p, 0)), np.zeros((n, 0))
    exhausted = len(w_cols) < h_cap or h_cap < h
    gamma = T.T @ yc
    scores = np.empty((n, T.shape[1]))
    scores[pos] = T[pos] / sq[pos, None]
    if (~pos).any():
        scores[~pos] = (X[~pos] - x_center) @ W
    return PLSFit(W=W, scores=scores, gamma0=y_center, gamma=gamma,
                  x_center=x_center, h=T.shape[1], rank_exhausted=exhausted)


def _assert_same_pls(a: PLSFit, b: PLSFit):
    for name in ("W", "scores", "gamma0", "gamma", "x_center"):
        assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name
    assert (a.h, a.rank_exhausted) == (b.h, b.rank_exhausted)


class TestUncheckedSimpls:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.integers(4, 40), st.integers(1, 12),
           st.integers(1, 6), st.sampled_from(["unit", "floored", "zeros"]))
    def test_core_matches_checked_and_frozen_fit(self, seed, n, p, h, kind):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        y = X[:, 0] - 0.5 * X[:, -1] + rng.standard_normal(n)
        w = {"unit": np.ones(n),
             "floored": np.clip(rng.uniform(-0.2, 1.0, n), 1e-6, 1.0),
             "zeros": np.where(np.arange(n) % 3 == 0, 0.0, rng.uniform(0.1, 1.0, n))}[kind]
        core = _weighted_simpls(X, y, w, h)
        _assert_same_pls(core, weighted_simpls_fit(X, y, w, h))
        _assert_same_pls(core, _frozen_weighted_simpls_fit(X, y, w, h))

    @pytest.mark.parametrize("start", [False, True])
    @pytest.mark.parametrize("where", ["X", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_prm_fit_rejects_non_finite_data(self, start, where, bad):
        """Later passes skip the checks, so the first pass must catch a
        non-finite X or y, with or without given start weights."""
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 6))
        y = X[:, 0] + 0.1 * rng.standard_normal(40)
        if where == "X":
            X[7, 2] = bad
        else:
            y[11] = bad
        with pytest.raises(ValueError, match="finite"):
            prm_fit(X, y, 2, start_weights=np.ones(40) if start else None)


def _frozen_mad(e):
    return float(np.median(np.abs(e - np.median(e))))


def _frozen_prm_fit(X, y, h, max_iter=100):
    """``initial_weights`` and the ``prm_fit`` loop as written before the
    kernels, with the default Hampel weights."""
    w_resid = _frozen_hampel_weight(np.abs(y - np.median(y)) / _frozen_mad(y))
    dist = np.linalg.norm(X - _frozen_l1_median(X), axis=1)
    w_lev = _frozen_hampel_weight(dist / float(np.median(dist)))
    weights = np.clip(w_resid * w_lev, 1e-6, 1.0)
    gamma_prev = None
    for iterations in range(1, max_iter + 1):
        fit = _frozen_weighted_simpls_fit(X, y, weights, h)
        resid = y - (fit.gamma0 + fit.scores @ fit.gamma)
        w_resid = _frozen_hampel_weight(np.abs(resid) / _frozen_mad(resid))
        dist = np.linalg.norm(fit.scores - _frozen_l1_median(fit.scores), axis=1)
        w_lev = _frozen_hampel_weight(dist / float(np.median(dist)))
        weights = np.clip(w_resid * w_lev, 1e-6, 1.0)
        if gamma_prev is not None and gamma_prev.size == fit.gamma.size:
            base = float(np.linalg.norm(gamma_prev))
            if float(np.linalg.norm(fit.gamma - gamma_prev)) <= 1e-2 * max(base, 1e-300):
                break
        gamma_prev = fit.gamma
    return fit, weights, iterations


@pytest.mark.parametrize("seed,h", [(0, 1), (1, 3), (2, 5)])
def test_prm_fit_matches_frozen_loop(seed, h):
    """Contaminated data of the Monte Carlo's size (160 x 60), including
    the call sites of the kernels in ``initial_weights`` and ``prm_fit``."""
    data = contaminate(generate_clean(160, seed), 0.1, seed + 100)
    systems = [build_bspline_system((0.0, 1.0), 20) for _ in data.curves]
    X = build_design(data.curves, data.grids, systems).A
    got = prm_fit(X, data.y, h)
    fit, weights, iterations = _frozen_prm_fit(X, data.y, h)
    assert got.iterations == iterations
    assert _bits(got.weights) == _bits(weights)
    _assert_same_pls(got, fit)


def _frozen_bisquare_weight(e, c):
    arr = np.asarray(e, dtype=float)
    z = arr / c
    return np.where(np.abs(arr) <= c, (1.0 - z * z) ** 2, 0.0)


@pytest.mark.parametrize("seed,h", [(0, 1), (1, 2), (2, 3), (5, 4)])
def test_fit_rfpls_unchanged_with_numpy_originals(monkeypatch, seed, h):
    """A contaminated rfpls fit is bit-identical when every kernel is put
    back to the numpy call or frozen code it replaced."""
    data = contaminate(generate_clean(90, seed), 0.1, seed + 100)
    systems = [build_bspline_system((0.0, 1.0), 8) for _ in data.curves]
    design = build_design(data.curves, data.grids, systems)
    fast = fit_rfpls(design, data.y, h)

    for module in (robust, robust_pls):
        monkeypatch.setattr(module, "_median", lambda a: np.median(a))
        monkeypatch.setattr(module, "_row_norms", lambda d: np.linalg.norm(d, axis=1))
    monkeypatch.setattr(robust, "_column_medians", lambda a: np.median(a, axis=0))
    monkeypatch.setattr(robust, "_bisquare", _frozen_bisquare_weight)
    monkeypatch.setattr(robust_pls, "l1_median", _frozen_l1_median)
    monkeypatch.setattr(robust_pls, "hampel_weight", _frozen_hampel_weight)
    monkeypatch.setattr(robust_pls, "_weighted_simpls", _frozen_weighted_simpls_fit)
    slow = fit_rfpls(design, data.y, h)

    assert _bits(fast.beta_coefs) == _bits(slow.beta_coefs)
    assert _bits(fast.intercept) == _bits(slow.intercept)
    assert _bits(fast.robust_report.c) == _bits(slow.robust_report.c)
    assert _bits(fast.robust_report.weights) == _bits(slow.robust_report.weights)
    assert fast.robust_report.prm_iterations == slow.robust_report.prm_iterations
