"""Scalar-on-function estimators checked against exact models and oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from rfpls.basis import _block_slices, build_bspline_system, build_design, evaluate_basis
from rfpls.errors import NumericalError, RfplsError
from rfpls.evaluation import risee
from rfpls.regression import (_FITTERS, FittedSofr, coefficient_functions, fit_fpc,
                              fit_fpls, fit_rfpls, predict, predict_from_design)
from rfpls.simulation import contaminate, generate_clean


def _unit(v):
    return np.ones_like(np.asarray(v, dtype=float))


def _span_model(seed, n=60, sizes=(6, 5), intercept=0.7):
    """A model whose curves and coefficient functions both live exactly in
    the spline span, so the responses are linear in the design with no
    quadrature error."""
    rng = np.random.default_rng(seed)
    systems = [build_bspline_system((0.0, 1.0), k, 4) for k in sizes]
    grids = [np.linspace(0.0, 1.0, 120 + 7 * m) for m in range(len(sizes))]
    d_blocks = [rng.normal(size=(n, k)) for k in sizes]
    b_blocks = [rng.normal(size=k) for k in sizes]
    curves = [evaluate_basis(s, g) @ d.T
              for s, g, d in zip(systems, grids, d_blocks)]
    curves = [c.T for c in curves]
    design = build_design(curves, grids, systems)
    b = np.concatenate(b_blocks)
    y = intercept + design.D @ (design.Psi @ b)
    betas = [evaluate_basis(s, g) @ bb
             for s, g, bb in zip(systems, grids, b_blocks)]
    return design, y, b, betas, grids, curves


class TestExactRecovery:
    def test_single_predictor_full_components(self):
        """With enough components the span model is recovered to rounding."""
        design, y, b, betas, grids, _ = _span_model(0, sizes=(7,))
        fit = fit_fpls(design, y, 7)
        assert fit.h == 7
        np.testing.assert_allclose(fit.beta_coefs, b, atol=1e-8)
        assert abs(fit.intercept - 0.7) < 1e-8
        est = coefficient_functions(fit, grids)
        assert risee(betas[0], est[0]) < 1e-12

    def test_two_predictors_full_components(self):
        design, y, b, betas, grids, _ = _span_model(1)
        fit = fit_fpls(design, y, 11)
        np.testing.assert_allclose(fit.beta_coefs, b, atol=1e-8)
        for bt, bh in zip(betas, coefficient_functions(fit, grids)):
            assert risee(bt, bh) < 1e-12

    def test_responses_match_quadrature_oracle(self):
        """The Gram-matrix inner products agree with numerical integration
        of curve times coefficient function on a dense grid."""
        design, y, b, *_ = _span_model(2, n=12)
        fine = np.linspace(0.0, 1.0, 2001)
        y_quad = np.full(12, 0.7)
        for system, block in zip(design.systems, _block_slices(design.systems)):
            phi = evaluate_basis(system, fine)
            curves_f = design.D[:, block] @ phi.T
            beta_f = phi @ b[block]
            y_quad += np.array([simpson(row * beta_f, x=fine)
                                for row in curves_f])
        np.testing.assert_allclose(y_quad, y, rtol=1e-10)

    def test_truncated_fit_predicts_through_score_path(self):
        """Predictions equal intercept plus the design acting on the
        coefficient vector, for any component count."""
        design, y, *_ = _span_model(3)
        fit = fit_fpls(design, y, 3)
        manual = fit.intercept + design.D @ (design.Psi @ fit.beta_coefs)
        np.testing.assert_array_equal(predict_from_design(fit, design.D), manual)


class TestRobustFit:
    def test_unit_hooks_reduce_to_classical(self, monkeypatch):
        """Neutral weighting hooks collapse the robust fit onto plain PLS."""
        design, y, *_ = _span_model(4)
        y = y + 0.1 * np.random.default_rng(40).normal(size=y.size)
        classical = fit_fpls(design, y, 4)
        monkeypatch.setattr("rfpls.regression.select_tuning", lambda scores, y: 4.685)
        monkeypatch.setattr("rfpls.robust_pls.hampel_weight", _unit)
        monkeypatch.setattr("rfpls.robust._bisquare", lambda e, c: np.ones_like(e))
        robust = fit_rfpls(design, y, 4)
        np.testing.assert_allclose(robust.beta_coefs, classical.beta_coefs,
                                   atol=1e-8)
        assert abs(robust.intercept - classical.intercept) < 1e-8
        rep = robust.robust_report
        assert rep is not None
        assert rep.c == 4.685
        np.testing.assert_array_equal(rep.weights, np.ones(y.size))
        assert rep.prm_converged and rep.m_converged

    def test_outliers_pull_classical_not_robust(self):
        """Vertical outliers wreck the classical coefficients while the
        robust ones stay near the clean-data fit."""
        design, y, b, *_ = _span_model(5, n=120, sizes=(8,))
        rng = np.random.default_rng(50)
        y = y + 0.2 * rng.normal(size=y.size)
        bad = np.arange(0, 120, 12)
        y_bad = y.copy()
        y_bad[bad] += 25.0 * (-1.0) ** np.arange(bad.size)
        classical = fit_fpls(design, y_bad, 4)
        robust = fit_rfpls(design, y_bad, 4)
        base = fit_fpls(design, y, 4).beta_coefs
        err_c = np.linalg.norm(classical.beta_coefs - base)
        err_r = np.linalg.norm(robust.beta_coefs - base)
        assert err_r < 0.5 * err_c
        assert np.median(robust.robust_report.weights[bad]) < 0.5

    def test_cutoff_is_tuned_when_not_given(self):
        design, y, *_ = _span_model(6)
        y = y + 0.3 * np.random.default_rng(60).normal(size=y.size)
        fit = fit_rfpls(design, y, 3)
        assert 1.0 <= fit.robust_report.c <= 10.0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: low-cutoff defect")
    def test_small_clean_sample_gets_a_usable_cutoff(self):
        """A clean draw of 50 curves should not drive the cutoff to the
        grid floor, where the M-step runs into its iteration cap."""
        data = generate_clean(50, 3)
        systems = [build_bspline_system((0.0, 1.0), 20) for _ in data.curves]
        rep = fit_rfpls(build_design(data.curves, data.grids, systems), data.y, 2).robust_report
        assert rep.c > 2.0
        assert rep.m_converged


class TestPrincipalComponentBaseline:
    def test_full_rank_equals_least_squares(self):
        design, y, *_ = _span_model(7)
        y = y + 0.2 * np.random.default_rng(70).normal(size=y.size)
        fit = fit_fpc(design, y, design.total_basis)
        dm = np.column_stack([np.ones(design.n), design.A])
        coef, *_ = np.linalg.lstsq(dm, y, rcond=None)
        np.testing.assert_allclose(predict_from_design(fit, design.D),
                                   dm @ coef, atol=1e-8)

    def test_components_past_the_rank_are_dropped(self):
        """Eight centered rows span 7 directions: asked for 9 components, fpc
        keeps 7, as fpls does, and equals the fit asked for 7.  A design with
        no direction at all raises with fpls's message."""
        design, y, _, _, grids, curves = _span_model(8, n=8)
        fit = fit_fpc(design, y, 9)
        assert fit.h == fit_fpls(design, y, 9).h == 7
        exact = fit_fpc(design, y, 7)
        np.testing.assert_array_equal(fit.beta_coefs, exact.beta_coefs)
        assert fit.intercept == exact.intercept
        with pytest.raises(ValueError, match="h must be at least 1"):
            fit_fpc(design, y, 0)
        flat = build_design([np.zeros_like(c) for c in curves], grids, design.systems)
        with pytest.raises(NumericalError, match="^extracted no component of the 9 asked for$"):
            fit_fpc(flat, y, 9)

    def test_exact_model_recovered_at_full_rank(self):
        design, y, b, *_ = _span_model(9)
        fit = fit_fpc(design, y, design.total_basis)
        np.testing.assert_allclose(fit.beta_coefs, b, atol=1e-7)


class TestPredictionPaths:
    def test_resmoothing_matches_design_path(self):
        """Feeding the training curves back through prediction reproduces
        the design-matrix route."""
        design, y, _, _, grids, curves = _span_model(10)
        fit = fit_fpls(design, y, 5)
        np.testing.assert_allclose(predict(fit, curves, grids),
                                   predict_from_design(fit, design.D),
                                   atol=1e-8)

    @pytest.mark.parametrize("method", ["fpls", "rfpls", "fpc"])
    def test_intercept_tracks_response_shift(self, method):
        """A shift y + 5 moves only the intercept, by 5, and a scaling 3 y
        scales the coefficients and the intercept by 3; a robust fit keeps
        its cutoff under both and its weights under the scaling."""
        design, y, *_ = _span_model(11)
        fitter = _FITTERS[method]
        base, shifted, scaled = (fitter(design, v, 4) for v in (y, y + 5.0, 3.0 * y))
        norm, size = np.linalg.norm(base.beta_coefs), max(1.0, abs(base.intercept))
        # fpls and fpc solve least squares without a loop, so a shift moves
        # their coefficients by roundoff only (1e-14 here).  rfpls's M-step
        # stops once its coefficients move by less than 1e-8 relative, and
        # the shifted response stops it at another point of that ball
        # (5.3e-9 here, up to 1.4e-8 measured): 1e-6 relative.
        shift_rtol = 1e-6 if method == "rfpls" else 1e-10
        assert np.linalg.norm(shifted.beta_coefs - base.beta_coefs) <= shift_rtol * norm
        assert abs(shifted.intercept - base.intercept - 5.0) <= shift_rtol * size
        # Every step divides a response scale back out, so a scaling that is
        # not a power of two moves the fit by roundoff only (8.0e-15 here for
        # rfpls), also through the M-step: 1e-10 relative.
        scale_rtol = 1e-10
        assert np.linalg.norm(scaled.beta_coefs - 3.0 * base.beta_coefs) <= scale_rtol * 3.0 * norm
        assert abs(scaled.intercept - 3.0 * base.intercept) <= scale_rtol * 3.0 * size
        if method == "rfpls":
            rep = base.robust_report
            assert shifted.robust_report.c == scaled.robust_report.c == rep.c
            np.testing.assert_allclose(scaled.robust_report.weights, rep.weights,
                                       rtol=0.0, atol=scale_rtol)

    def test_shape_validation(self):
        design, y, _, _, grids, curves = _span_model(12)
        fit = fit_fpls(design, y, 2)
        with pytest.raises(ValueError, match="predictors"):
            coefficient_functions(fit, grids[:1])
        with pytest.raises(ValueError, match="columns"):
            predict_from_design(fit, design.D[:, :-1])
        with pytest.raises(ValueError, match="predictors"):
            predict(fit, curves[:1], grids)
        with pytest.raises(ValueError, match="disagree"):
            predict(fit, [curves[0], curves[1][:-1]], grids)


@pytest.mark.parametrize("fitter", [fit_fpls, fit_rfpls, fit_fpc])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_response_rejected(fitter, bad):
    """Every fitter refuses a non-finite response instead of returning
    NaN coefficients."""
    data = generate_clean(60, 3)
    systems = [build_bspline_system((0.0, 1.0), 8) for _ in data.curves]
    design = build_design(data.curves, data.grids, systems)
    y = data.y.copy()
    y[4] = bad
    with pytest.raises(ValueError, match="finite"):
        fitter(design, y, 2)


@pytest.mark.parametrize("fitter", [fit_fpls, fit_rfpls])
def test_fit_without_components_raises(fitter, monkeypatch):
    """A fit that extracts no component raises instead of returning an
    intercept-only model with ``h = 0``; rfpls raises before it tunes a
    cutoff on the empty scores.  Curves scaled by 2^-332 make SIMPLS's
    squared norms underflow, so no component can be extracted."""
    data = generate_clean(60, 3)
    systems = [build_bspline_system((0.0, 1.0), 8) for _ in data.curves]
    design = build_design([2.0 ** -332 * c for c in data.curves], data.grids, systems)
    monkeypatch.setattr("rfpls.regression.select_tuning", lambda *a: pytest.fail("tuned"))
    with pytest.raises(NumericalError, match="^extracted no component of the 2 asked for$"):
        fitter(design, data.y, 2)


@pytest.fixture(scope="module")
def contaminated_design():
    data = contaminate(generate_clean(60, 3), 0.1, 4)
    systems = [build_bspline_system((0.0, 1.0), 8) for _ in data.curves]
    return build_design(data.curves, data.grids, systems), data.y


@settings(max_examples=48, deadline=None)
@given(k=st.integers(-20, 30), h=st.integers(1, 3))
def test_rfpls_scale_equivariance_is_exact(contaminated_design, k, h):
    """Scaling the response by a power of two scales the coefficients and
    the intercept by exactly that power and leaves cutoff and weights
    unchanged: every standardization in the robust path divides the
    factor out without rounding."""
    design, y = contaminated_design
    base = fit_rfpls(design, y, h)
    scaled = fit_rfpls(design, 2.0 ** k * y, h)
    np.testing.assert_array_equal(scaled.beta_coefs, 2.0 ** k * base.beta_coefs)
    assert scaled.intercept == 2.0 ** k * base.intercept
    assert scaled.robust_report.c == base.robust_report.c
    np.testing.assert_array_equal(scaled.robust_report.weights,
                                  base.robust_report.weights)


def test_gram_matrix_is_derived_not_stored():
    """A fitted model keeps the basis layout, not a copy of its Gram matrix;
    ``Psi`` is read from the layout's shared geometry."""
    assert "Psi" not in {f.name for f in dataclasses.fields(FittedSofr)}
    design, y, *_ = _span_model(13)
    fit = fit_fpls(design, y, 2)
    assert fit.Psi is design.Psi


@st.composite
def _awkward_samples(draw):
    """Small designs with gross response outliers, leverage outliers and
    duplicated rows: 8 to 40 curves, 1 to 3 predictors in 4 to 8 splines."""
    n = draw(st.integers(8, 40))
    sizes = draw(st.lists(st.integers(4, 8), min_size=1, max_size=3))
    h = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    systems = [build_bspline_system((0.0, 1.0), k) for k in sizes]
    grids = [np.linspace(0.0, 1.0, 25) for _ in sizes]
    coefs = [rng.normal(size=(n, k)) for k in sizes]
    y = sum(c @ rng.normal(size=c.shape[1]) for c in coefs) + 0.3 * rng.normal(size=n)
    magnitude = draw(st.sampled_from([10.0, 1e3, 1e6]))
    bad = rng.choice(n, size=draw(st.integers(0, n // 3)), replace=False)
    y[bad] += magnitude * rng.choice([-1.0, 1.0], size=bad.size)
    if draw(st.booleans()):
        coefs[0][bad] *= magnitude
    copies = draw(st.integers(0, n // 2))
    source = rng.integers(0, n - copies, size=copies)
    for c in coefs:
        c[n - copies:] = c[source]
    y[n - copies:] = y[source]
    curves = [c @ evaluate_basis(s, g).T for c, s, g in zip(coefs, systems, grids)]
    return build_design(curves, grids, systems), y, h


@settings(max_examples=60, deadline=None)
@given(sample=_awkward_samples())
def test_fitters_never_return_nan(sample):
    """Every fitter returns finite coefficients and intercept or raises;
    the robust fit's weights stay in [1e-6, 1] and its cutoff is positive."""
    design, y, h = sample
    for method, fitter in _FITTERS.items():
        try:
            fit = fitter(design, y, h)
        except (RfplsError, ValueError):
            continue
        assert np.isfinite(fit.beta_coefs).all(), method
        assert np.isfinite(fit.intercept), method
        if method == "rfpls":
            weights = fit.robust_report.weights
            assert ((weights >= 1e-6) & (weights <= 1.0)).all()
            assert fit.robust_report.c > 0.0
