"""Robust primitives: pinned values, analytic oracles, and breakdown paths."""

import re
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rfpls import robust, robust_pls
from rfpls.errors import NumericalError
from rfpls.robust import (efficiency_factor, hampel_f, hampel_weight, l1_median,
                          m_estimate, mad_scale, select_tuning, tukey_kappa, tukey_rho)


class TestHampel:
    def test_pinned_values(self):
        """Spot values on every piece of the three-part function."""
        assert hampel_f(1.0) == 1.0
        assert hampel_f(1.8) == pytest.approx(1.65, abs=1e-12)
        assert hampel_f(2.5) == pytest.approx(1.65 * 0.59 / 1.13, abs=1e-12)
        assert abs(hampel_f(2.5) - 0.86150) < 1e-4
        assert hampel_f(4.0) == 0.0
        assert hampel_f(3.09) == pytest.approx(0.0, abs=1e-12)

    def test_odd_function(self):
        xs = np.linspace(-4.0, 4.0, 33)
        np.testing.assert_allclose(hampel_f(-xs), -hampel_f(xs), atol=1e-14)
        assert hampel_f(0.0) == 0.0

    def test_weight_is_ratio_with_unit_limit(self):
        assert hampel_weight(0.0) == 1.0
        assert hampel_weight(1.0) == 1.0
        assert hampel_weight(1.65) == 1.0
        assert hampel_weight(1.8) == pytest.approx(1.65 / 1.8, abs=1e-12)
        assert hampel_weight(2.5) == pytest.approx(hampel_f(2.5) / 2.5, abs=1e-12)
        assert hampel_weight(4.0) == 0.0

    def test_weight_even(self):
        xs = np.linspace(0.0, 4.0, 41)
        np.testing.assert_allclose(hampel_weight(-xs), hampel_weight(xs), atol=1e-14)


class TestTukey:
    def test_rho_pinned_values(self):
        assert tukey_rho(0.0, 1.56) == 0.0
        for c in (1.0, 1.56, 4.685):
            assert tukey_rho(c, c) == 1.0
            assert tukey_rho(-c, c) == 1.0
            assert tukey_rho(2.0 * c, c) == 1.0
        assert tukey_rho(1.0, 2.0) == pytest.approx(1.0 - 0.75 ** 3, abs=1e-14)

    def test_kappa_pinned_values(self):
        """The sub-gradient is u[1 - (u/c)^2]^2 inside and 0 outside."""
        c = 2.0
        assert tukey_kappa(0.0, c) == 0.0
        assert tukey_kappa(c, c) == 0.0
        assert tukey_kappa(c / 2.0, c) == pytest.approx((c / 2.0) * 0.5625, abs=1e-14)
        assert tukey_kappa(3.0, c) == 0.0
        assert tukey_kappa(-1.0, c) == -tukey_kappa(1.0, c)

    def test_kappa_is_rho_gradient(self):
        """kappa * 6 / c^2 matches a central difference of rho."""
        c = 1.7
        us = np.linspace(-1.5, 1.5, 31)
        step = 1e-6
        deriv = (tukey_rho(us + step, c) - tukey_rho(us - step, c)) / (2.0 * step)
        np.testing.assert_allclose(tukey_kappa(us, c) * 6.0 / c ** 2, deriv,
                                   atol=1e-6)

    def test_bisquare_weight_values(self):
        c = 2.0
        got = robust._bisquare(np.array([0.0, c, -c, c / 2.0, 5.0]), c)
        np.testing.assert_array_equal(got[[0, 1, 2, 4]], [1.0, 0.0, 0.0, 0.0])
        assert got[3] == pytest.approx(0.5625, abs=1e-14)
        es = np.array([-1.9, -0.3, 0.4, 1.2])
        np.testing.assert_allclose(robust._bisquare(es, c),
                                   tukey_kappa(es, c) / es, atol=1e-14)

    def test_invalid_cutoff(self):
        for fn in (tukey_rho, tukey_kappa):
            with pytest.raises(ValueError):
                fn(1.0, 0.0)

    @pytest.mark.parametrize("call", [
        lambda c: tukey_rho(1.0, c),
        lambda c: tukey_kappa(1.0, c),
        lambda c: tukey_kappa(1.0, np.array([2.0, c])),
        lambda c: efficiency_factor(np.array([0.5, -1.0, 2.0]), c),
        lambda c: m_estimate(np.arange(6.0)[:, None], np.array([0.0, 1, 3, 2, 5, 4]), c),
    ], ids=["tukey_rho", "tukey_kappa", "tukey_kappa_array", "efficiency_factor",
            "m_estimate"])
    def test_nan_cutoff_is_refused(self, call):
        """A NaN cutoff is refused like any other non-positive one."""
        with pytest.raises(ValueError, match="c must be positive, got .*nan"):
            call(float("nan"))


class TestMadScale:
    def test_pinned_value(self):
        assert mad_scale(np.array([1.0, 2.0, 3.0, 4.0, 100.0])) == 1.0

    def test_symmetric_sample(self):
        assert mad_scale(np.array([-2.0, -1.0, 0.0, 1.0, 2.0])) == 1.0

    def test_constant_sample_is_zero(self):
        assert mad_scale(np.full(6, 3.3)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mad_scale(np.array([1.0]))
        with pytest.raises(ValueError):
            mad_scale(np.array([1.0, np.nan]))


class TestL1Median:
    def test_univariate_equals_median(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(31, 1))
        got = l1_median(x)
        assert abs(got[0] - np.median(x)) < 1e-6

    def test_symmetric_configuration(self):
        """Point sets symmetric about a center have that center as median."""
        theta = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        pts = np.column_stack([2.0 + np.cos(theta), -1.0 + np.sin(theta)])
        np.testing.assert_allclose(l1_median(pts), [2.0, -1.0], atol=1e-8)

    def test_grid_search_oracle(self):
        """The iterate minimizes the summed distances against a grid search."""
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(7, 2)) * [1.0, 2.5] + [0.5, -1.0]

        def objective(m):
            return np.linalg.norm(pts - m, axis=1).sum()

        best = None
        center = pts.mean(axis=0)
        for dx in np.arange(-2.0, 2.0, 0.02):
            for dy in np.arange(-2.0, 2.0, 0.02):
                cand = center + [dx, dy]
                if best is None or objective(cand) < objective(best):
                    best = cand
        for _ in range(2):
            step = 0.02 / 10.0
            for dx in np.arange(-0.03, 0.03, step):
                for dy in np.arange(-0.03, 0.03, step):
                    cand = best + [dx, dy]
                    if objective(cand) < objective(best):
                        best = cand
            best = best.copy()
        got = l1_median(pts)
        assert objective(got) <= objective(best) + 1e-8
        assert np.linalg.norm(got - best) < 1e-2

    def test_majority_point_wins(self):
        """With more than half the mass on one point, that point is the median."""
        pts = np.vstack([np.zeros((4, 2)),
                         np.array([[1.0, 2.0], [-3.0, 1.0], [2.0, -2.0]])])
        np.testing.assert_allclose(l1_median(pts), [0.0, 0.0], atol=1e-8)

    def test_identical_points(self):
        pts = np.tile([1.5, -2.0], (5, 1))
        np.testing.assert_array_equal(l1_median(pts), [1.5, -2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            l1_median(np.empty((0, 2)))
        with pytest.raises(ValueError):
            l1_median(np.array([[1.0, np.inf]]))


class TestMEstimate:
    def test_exact_linear_data_recovered(self):
        """A noise-free linear response is fitted exactly and flagged converged."""
        xi = np.linspace(-1.0, 3.0, 25)[:, None]
        y = 1.5 + 2.0 * xi.ravel()
        est = m_estimate(xi, y, c=4.685)
        assert est.converged
        np.testing.assert_allclose(est.delta, [2.0], atol=1e-10)
        assert est.intercept == pytest.approx(1.5, abs=1e-10)
        assert est.scale < 1e-12

    def test_zero_residual_scale_branch(self):
        """A bitwise-exact fit hits the zero-MAD limit: converged, unit weights."""
        xi = np.linspace(-1.0, 3.0, 25)[:, None]
        est = m_estimate(xi, np.zeros(25), c=4.685)
        assert est.converged
        assert est.scale == 0.0
        assert est.iterations == 1
        np.testing.assert_array_equal(est.delta, [0.0])
        np.testing.assert_array_equal(est.weights, np.ones(25))

    def test_zero_scale_without_exact_residuals_breaks_down(self):
        """Twelve rows share the least-squares residual 4.8, so the residual
        MAD is 0 although no residual is 0: no row keeps positive weight,
        and the fit breaks down rather than return least squares as converged."""
        z = np.array([0.0] * 12 + [1, -1, 2, -2, 1.5, -1.5, 0.5, -0.5])
        y = np.array([2.0] * 12 + [-9, -11, -10, -10, -8, -12, -10, -10])
        with pytest.raises(NumericalError, match="only 0 observations kept positive "
                                                 "weight; need at least 3"):
            m_estimate(z[:, None], y, 4.685)

    def test_outliers_rejected(self):
        """Gross response outliers end with zero weight and little intercept pull."""
        rng = np.random.default_rng(3)
        xi = np.linspace(0.0, 4.0, 60)[:, None]
        y = 1.0 + 2.0 * xi.ravel() + rng.normal(size=60)
        bad = [3, 17, 30, 44, 55]
        y[bad] += 15.0
        est = m_estimate(xi, y, c=4.685)
        np.testing.assert_array_equal(est.weights[bad], np.zeros(5))
        design = np.column_stack([np.ones(60), xi])
        ls = np.linalg.lstsq(design, y, rcond=None)[0]
        assert abs(est.intercept - 1.0) < 0.5
        assert abs(ls[0] - 1.0) > 1.0

    def test_unit_weight_hook_is_least_squares(self, monkeypatch):
        """Forcing unit weights reduces the estimate to plain least squares."""
        rng = np.random.default_rng(4)
        Z = rng.normal(size=(40, 3))
        y = 0.7 + Z @ [1.0, -2.0, 0.5] + rng.normal(size=40)
        monkeypatch.setattr(robust, "_bisquare", lambda e, c: np.ones_like(e))
        est = m_estimate(Z, y, c=2.0)
        design = np.column_stack([np.ones(40), Z])
        theta = np.linalg.lstsq(design, y, rcond=None)[0]
        assert est.intercept == pytest.approx(theta[0], abs=1e-10)
        np.testing.assert_allclose(est.delta, theta[1:], atol=1e-10)

    def test_regression_equivariance(self):
        """Adding Z v to the response shifts the slopes by v."""
        rng = np.random.default_rng(5)
        Z = rng.normal(size=(50, 2))
        y = Z @ [1.0, 1.0] + rng.normal(size=50)
        v = np.array([0.8, -1.2])
        base = m_estimate(Z, y, c=3.0)
        shifted = m_estimate(Z, y + Z @ v, c=3.0)
        np.testing.assert_allclose(shifted.delta, base.delta + v, atol=1e-6)

    def test_breakdown_raises(self, monkeypatch):
        """A weight hook that keeps too few observations triggers breakdown."""
        rng = np.random.default_rng(6)
        Z = rng.normal(size=(20, 1))
        y = Z.ravel() + rng.normal(size=20)
        monkeypatch.setattr(robust, "_bisquare",
                            lambda e, c: (np.arange(e.size) < 2).astype(float))
        with pytest.raises(NumericalError, match="only 2 observations kept positive weight"):
            m_estimate(Z, y, c=2.0)

    def test_validation(self):
        Z = np.ones((5, 4))
        with pytest.raises(ValueError):
            m_estimate(Z, np.ones(5), c=2.0)
        with pytest.raises(ValueError):
            m_estimate(np.ones((6, 1)), np.ones(5), c=2.0)
        with pytest.raises(ValueError):
            m_estimate(np.ones((6, 1)), np.ones(6), c=-1.0)


class TestEfficiencyFactor:
    def test_closed_form_is_the_kappa_derivative(self):
        u, c = sympy.symbols("u c", positive=True)
        kappa = u * (1 - u ** 2 / c ** 2) ** 2
        closed = (1 - u ** 2 / c ** 2) * (1 - 5 * u ** 2 / c ** 2)
        assert sympy.simplify(sympy.diff(kappa, u) - closed) == 0

    def test_matches_analytic_derivative(self):
        """The factor is computed from the closed-form kappa derivative."""
        e = np.linspace(-2.9, 2.9, 25)
        c = 3.0
        z = e / c
        kd = (1.0 - z * z) * (1.0 - 5.0 * z * z)
        kap = tukey_kappa(e, c)
        total = kd.sum()
        assert efficiency_factor(e, c) == total * total / (e.size * (kap * kap).sum())

    def test_near_one_for_standardized_gaussian(self):
        """With a huge cutoff and unit second moment the factor approaches 1."""
        rng = np.random.default_rng(7)
        e = rng.normal(size=400)
        e = e / np.sqrt((e ** 2).mean())
        assert efficiency_factor(e, c=50.0) == pytest.approx(1.0, abs=0.02)

    def test_all_rejected_raises(self):
        with pytest.raises(NumericalError, match="all residuals fall beyond c = 2.0"):
            efficiency_factor(np.array([5.0, -6.0, 7.0]), c=2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            efficiency_factor(np.array([1.0]), c=2.0)


class TestSelectTuning:
    def test_result_on_default_grid(self):
        rng = np.random.default_rng(100)
        Z = rng.normal(size=(150, 2))
        y = 1.0 + Z @ [2.0, -1.0] + rng.normal(size=150)
        c = select_tuning(Z, y)
        assert 1.0 <= c <= 10.0
        assert abs((c - 1.0) * 10.0 - round((c - 1.0) * 10.0)) < 1e-9

    def test_clean_data_prefers_large_cutoff(self):
        """Roughly Gaussian residuals push the cutoff toward least squares."""
        for seed in (100, 101, 102):
            rng = np.random.default_rng(seed)
            Z = rng.normal(size=(150, 2))
            y = 1.0 + Z @ [2.0, -1.0] + rng.normal(size=150)
            assert select_tuning(Z, y) >= 4.0

    def test_ties_go_to_larger_cutoff(self, monkeypatch):
        rng = np.random.default_rng(8)
        Z = rng.normal(size=(60, 1))
        y = Z.ravel() + rng.normal(size=60)
        monkeypatch.setattr(robust, "_TUNING_GRID", np.array([3.0]))
        c_single = select_tuning(Z, y)
        assert c_single == 3.0
        monkeypatch.setattr(robust, "_TUNING_GRID", np.array([3.0, 3.0]))
        assert select_tuning(Z, y) == 3.0

    def test_exact_fit_degenerates(self):
        """A response fitted with bitwise-zero residuals has no usable scale."""
        Z = np.linspace(0.0, 1.0, 30)[:, None]
        with pytest.raises(NumericalError, match="residual MAD is zero"):
            select_tuning(Z, np.zeros(30))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(5, 200), st.integers(1, 3), st.sampled_from([1.5, 2.0, 3.0, 5.0]),
           st.integers(0, 2 ** 32 - 1), st.floats(-3.0, 3.0), st.floats(-1e3, 1e3))
    def test_cutoff_keeps_under_response_scale_and_shift(self, n, h, df, seed, log_a, b):
        """The residuals are standardized by their MAD, so a * y + b with
        a > 0 gets the cutoff of y, or the same refusal."""
        rng = np.random.default_rng(seed)
        Z = rng.normal(size=(n, h))
        y = Z @ rng.normal(size=h) + rng.standard_t(df, size=n)
        assert _tuning_outcome(Z, 10.0 ** log_a * y + b) == _tuning_outcome(Z, y)


def _tuning_outcome(Z, y):
    """The cutoff ``select_tuning`` picks, or the message it refuses with."""
    try:
        return select_tuning(Z, y)
    except NumericalError as err:
        return str(err)


def _bad_start(case):
    """Scores and a response that the least-squares start refuses, and the
    message it refuses them with."""
    rng = np.random.default_rng(9)
    Z, y = rng.normal(size=(20, 2)), rng.normal(size=20)
    if case == "row_mismatch":
        return Z, y[:-1], "scores has 20 rows but y has 19"
    if case == "too_few_rows":
        return Z[:3], y[:3], "need at least h + 2 = 4 observations, got 3"
    if case == "nan_response":
        y[5] = np.nan
    else:
        Z[3, 1] = np.inf
    return Z, y, "scores and y must be finite"


class TestLeastSquaresStart:
    @pytest.mark.parametrize("case", ["row_mismatch", "too_few_rows", "nan_response",
                                      "inf_score"])
    def test_tuning_and_m_step_refuse_alike(self, case, capfd):
        """Both consumers of the start raise the same ``ValueError`` before
        any solver runs, so nothing reaches stdout or stderr (an infinite
        score used to reach LAPACK, which printed to stdout)."""
        Z, y, message = _bad_start(case)
        for call in (lambda: select_tuning(Z, y), lambda: m_estimate(Z, y, 4.685)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message
        assert capfd.readouterr() == ("", "")

    def test_rank_is_checked_by_the_m_step_only(self):
        """A duplicated score column still gets a cutoff; the M-step
        refuses it as a rank-deficient design."""
        rng = np.random.default_rng(10)
        z = rng.normal(size=40)
        Z = np.column_stack([z, z])
        y = 1.0 + z + rng.normal(size=40)
        assert select_tuning(Z, y) in robust._TUNING_GRID
        with pytest.raises(NumericalError, match="rank deficient"):
            m_estimate(Z, y, 4.685)


def _scalar_efficiency(e, c):
    """The efficiency factor at one cutoff, from a scalar-cutoff kappa call
    and the closed-form kappa derivative."""
    kap = tukey_kappa(e, c)
    denom = e.size * (kap * kap).sum()
    if denom == 0.0:
        return None
    z = e / c
    slopes = np.where(np.abs(e) <= c, (1.0 - z * z) * (1.0 - 5.0 * z * z), 0.0)
    total = slopes.sum()
    return float(total * total / denom)


def _standardized_residuals(Z, y):
    design = np.column_stack([np.ones(Z.shape[0]), Z])
    theta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ theta
    return resid / mad_scale(resid)


def _reference_select_tuning(Z, y, grid):
    """Cutoff selection as a loop of one efficiency_factor call per candidate."""
    e = _standardized_residuals(Z, y)
    best_c, best_tau = None, -np.inf
    for c in grid:
        try:
            tau = efficiency_factor(e, float(c))
        except NumericalError:
            continue
        if tau >= best_tau:
            best_tau, best_c = tau, float(c)
    return best_c


@st.composite
def _tuning_problems(draw):
    """Scores, a heavy-tailed response and a grid with repeats and with
    cutoffs below every nonzero standardized residual."""
    n = draw(st.integers(5, 60))
    h = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Z = rng.normal(size=(n, h))
    y = Z @ rng.normal(size=h) + rng.standard_t(draw(st.sampled_from([1.0, 3.0, 30.0])),
                                                size=n)
    e = np.abs(_standardized_residuals(Z, y))
    smallest = float(e[e > 0].min())
    plain = draw(st.lists(st.sampled_from(list(np.linspace(1.0, 10.0, 91))
                                          + [0.3, 0.7, 25.0]), max_size=12))
    rejecting = [smallest * f for f in draw(st.lists(st.floats(0.05, 0.95), max_size=4))]
    grid = plain + rejecting
    grid += draw(st.lists(st.sampled_from(grid), max_size=4)) if grid else [smallest / 2]
    return Z, y, np.array(draw(st.permutations(grid)))


class TestVectorizedTuning:
    @settings(max_examples=200, deadline=None)
    @given(_tuning_problems())
    def test_matches_scalar_loop(self, problem):
        """The one-broadcast selection picks the same cutoff as the
        candidate-by-candidate loop, ties and rejecting cutoffs included."""
        Z, y, grid = problem
        want = _reference_select_tuning(Z, y, grid)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(robust, "_TUNING_GRID", grid)
            if want is None:
                with pytest.raises(NumericalError, match="every candidate cutoff rejects"):
                    select_tuning(Z, y)
            else:
                assert select_tuning(Z, y) == want

    @settings(max_examples=100, deadline=None)
    @given(_tuning_problems())
    def test_efficiency_equals_scalar_formula(self, problem):
        """efficiency_factor and array cutoffs in tukey_kappa reproduce the
        scalar-cutoff arithmetic bit for bit."""
        Z, y, grid = problem
        e = _standardized_residuals(Z, y)
        np.testing.assert_array_equal(tukey_kappa(e, grid[:, None]),
                                      np.array([tukey_kappa(e, c) for c in grid]))
        for c in grid:
            want = _scalar_efficiency(e, float(c))
            if want is None:
                with pytest.raises(NumericalError, match="all residuals fall beyond c"):
                    efficiency_factor(e, float(c))
            else:
                assert efficiency_factor(e, float(c)) == want


def _readme_constants():
    """``(value cell, module, name)`` rows of the README's table of robust
    estimator constants."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    _, found, section = text.partition("### Robust estimator constants\n")
    assert found, "README has no robust estimator constants section"
    section = section.split("\n#", 1)[0]
    return re.findall(r"^\| ([^|`]+?) \| `(robust|robust_pls)\.(\w+)` \|", section, re.MULTILINE)


def _table_value(cell):
    """A value cell as a number, a tuple, or an evenly spaced grid written
    ``first, second, ..., last``."""
    parts = [part.strip() for part in cell.split(",")]
    if parts[2:3] == ["..."]:
        first, second, last = float(parts[0]), float(parts[1]), float(parts[-1])
        return np.linspace(first, last, round((last - first) / (second - first)) + 1)
    values = tuple(float(part) for part in parts)
    return values if len(values) > 1 else values[0]


class TestConstantsTable:
    def test_readme_table_matches_the_modules(self):
        """Every row of the README table holds its module constant's value,
        and every module constant of the robust stack has a row."""
        rows = _readme_constants()
        modules = {"robust": robust, "robust_pls": robust_pls}
        for cell, module, name in rows:
            got = getattr(modules[module], name)
            want = _table_value(cell)
            assert np.shape(got) == np.shape(want), name
            assert np.array_equal(got, want), name
        declared = {(module, name) for module, mod in modules.items() for name in vars(mod)
                    if re.fullmatch(r"_[A-Z][A-Z0-9_]*", name)}
        assert sorted((module, name) for _, module, name in rows) == sorted(declared)
