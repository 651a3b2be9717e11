"""Basis construction, evaluation, Gram machinery and smoothing."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import simpson
from scipy.interpolate import BSpline
from scipy.linalg import block_diag

from rfpls import basis
from rfpls.basis import (BasisSystem, _block_slices, _gram_roots, build_bspline_system,
                         build_design, evaluate_basis, gram_matrix, smooth_curves)
from rfpls.fileio import load_model, save_model
from rfpls.regression import fit_fpls, predict


def _recursive_bspline(knots, i, degree, x):
    """Cox-de Boor recursion, written independently of the implementation.

    Intervals are half open on the right except that the final basis
    function takes the closure at the global right endpoint.
    """
    if degree == 0:
        if knots[i] <= x < knots[i + 1]:
            return 1.0
        if x == knots[-1] and knots[i] < knots[i + 1] == knots[-1]:
            return 1.0
        return 0.0
    total = 0.0
    if knots[i + degree] > knots[i]:
        total += ((x - knots[i]) / (knots[i + degree] - knots[i])
                  * _recursive_bspline(knots, i, degree - 1, x))
    if knots[i + degree + 1] > knots[i + 1]:
        total += ((knots[i + degree + 1] - x) / (knots[i + degree + 1] - knots[i + 1])
                  * _recursive_bspline(knots, i + 1, degree - 1, x))
    return total


class TestBuildSystem:
    def test_knot_layout(self):
        """Boundary knots repeat order times around equispaced interior knots."""
        system = build_bspline_system((0.0, 1.0), 7, order=4)
        assert system.knots.size == 7 + 4
        np.testing.assert_allclose(system.knots[:4], 0.0)
        np.testing.assert_allclose(system.knots[-4:], 1.0)
        np.testing.assert_allclose(system.knots[4:-4], [0.25, 0.5, 0.75])

    def test_systems_are_values(self):
        """Equal layouts compare equal and hash alike; the knots derive from
        the three fields with the formula the system was built with."""
        a, b = build_bspline_system((0, 1), 8), build_bspline_system((0.0, 1.0), 8, order=4)
        assert a == b and hash(a) == hash(b)
        assert a != build_bspline_system((0.0, 1.0), 8, order=3)
        assert len({a, b, build_bspline_system((0.0, 2.0), 8)}) == 2
        want = np.concatenate([np.zeros(4), np.linspace(0.0, 1.0, 6)[1:-1], np.ones(4)])
        assert a.knots.tobytes() == want.tobytes()

    def test_invalid_arguments(self):
        """Bad domain, order or basis count are rejected by the system itself,
        also when the length of a domain with finite ends overflows or the
        domain is too narrow for distinct knots."""
        for domain, num_basis, order, pattern in [
                ((1.0, 0.0), 6, 4, "a < b"),
                ((0.0, 1.0), 3, 4, "num_basis must be at least its order 4"),
                ((0.0, 1.0), 5, 0, "order must be at least 1"),
                ((0.0, np.inf), 5, 4, "finite"),
                ((-1e308, 1e308), 5, 4, "b - a finite"),
                ((1.0, np.nextafter(1.0, 2.0)), 10, 4, "distinct knots")]:
            for make in (BasisSystem, build_bspline_system):
                with pytest.raises(ValueError, match=pattern):
                    make(domain, num_basis, order)


class TestEvaluateBasis:
    @pytest.mark.parametrize("num_basis,order,domain", [
        (6, 4, (0.0, 1.0)),
        (8, 3, (-2.0, 3.5)),
        (5, 2, (0.0, 1.0)),
        (4, 4, (1.0, 2.0)),
    ])
    def test_matches_recursion_oracle(self, num_basis, order, domain):
        """Values agree with a direct Cox-de Boor recursion, endpoints included."""
        system = build_bspline_system(domain, num_basis, order=order)
        rng = np.random.default_rng(7)
        pts = np.concatenate([[domain[0], domain[1]],
                              rng.uniform(domain[0], domain[1], size=40)])
        got = evaluate_basis(system, pts)
        want = np.array([[_recursive_bspline(system.knots, i, order - 1, x)
                          for i in range(num_basis)] for x in pts])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_partition_of_unity(self):
        """Rows sum to one across the whole domain."""
        system = build_bspline_system((0.0, 2.0), 11)
        pts = np.linspace(0.0, 2.0, 201)
        np.testing.assert_allclose(evaluate_basis(system, pts).sum(axis=1), 1.0,
                                   atol=1e-12)

    def test_bernstein_special_case(self):
        """Without interior knots the basis is the Bernstein polynomials."""
        system = build_bspline_system((0.0, 1.0), 4, order=4)
        pts = np.linspace(0.0, 1.0, 17)
        got = evaluate_basis(system, pts)
        for i in range(4):
            want = math.comb(3, i) * pts ** i * (1 - pts) ** (3 - i)
            np.testing.assert_allclose(got[:, i], want, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bytes_match_scipy_design_matrix(self, data):
        """The collocation kernel repeats fitpack's arithmetic: every value
        equals scipy's ``BSpline.design_matrix`` bit for bit, at both ends,
        at every knot, at the Gauss nodes ``gram_matrix`` uses and between."""
        order = data.draw(st.integers(1, 6), label="order")
        num_basis = data.draw(st.integers(order, 40), label="num_basis")
        a = data.draw(st.floats(-1e6, 1e6), label="a")
        b = a + data.draw(st.floats(1e-3, 1e6), label="width")
        system = build_bspline_system((a, b), num_basis, order=order)
        breaks = np.unique(system.knots)
        nodes = leggauss(order)[0]
        gauss = np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
                                for lo, hi in zip(breaks[:-1], breaks[1:])])
        inner = data.draw(st.lists(st.floats(a, b), max_size=30), label="points")
        pts = np.concatenate([[a, b], system.knots, np.clip(gauss, a, b), inner])
        want = BSpline.design_matrix(pts, system.knots, order - 1).toarray()
        assert evaluate_basis(system, pts).tobytes() == want.tobytes()

    def test_out_of_domain_rejected(self):
        system = build_bspline_system((0.0, 1.0), 6)
        with pytest.raises(ValueError):
            evaluate_basis(system, np.array([0.5, 1.0 + 1e-9]))
        with pytest.raises(ValueError):
            evaluate_basis(system, np.array([-0.1]))


class TestGram:
    def test_bernstein_closed_form(self):
        """Gram of cubic Bernstein matches the binomial closed form."""
        system = build_bspline_system((0.0, 1.0), 4, order=4)
        got = gram_matrix(system)
        want = np.array([[math.comb(3, i) * math.comb(3, j)
                          / (math.comb(6, i + j) * 7.0)
                          for j in range(4)] for i in range(4)])
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_brute_force_quadrature(self):
        """Gram of a knotted basis matches dense Simpson integration."""
        system = build_bspline_system((0.0, 1.0), 9, order=4)
        fine = np.linspace(0.0, 1.0, 4001)
        B = evaluate_basis(system, fine)
        want = simpson(B[:, :, None] * B[:, None, :], x=fine, axis=0)
        np.testing.assert_allclose(gram_matrix(system), want, atol=1e-10)

    def test_symmetric_and_positive(self):
        system = build_bspline_system((-1.0, 4.0), 12)
        g = gram_matrix(system)
        assert np.array_equal(g, g.T)
        assert np.linalg.eigvalsh(g).min() > 0


class TestSqrtGram:
    def test_square_root_reconstructs(self):
        system = build_bspline_system((0.0, 1.0), 10)
        psi = gram_matrix(system)
        root, _ = _gram_roots(psi)
        assert np.array_equal(root, root.T)
        np.testing.assert_allclose(root @ root, psi, atol=1e-12)

    def test_inverse_root_inverts(self):
        system = build_bspline_system((0.0, 1.0), 8)
        psi = gram_matrix(system)
        root, inv = _gram_roots(psi)
        np.testing.assert_allclose(inv @ root, np.eye(8), atol=1e-8)

    def test_rank_deficient_pseudo_inverse(self):
        """A rank-one matrix maps to the square root on its range."""
        v = np.array([1.0, 2.0, -1.0])
        psi = np.outer(v, v)
        root, inv = _gram_roots(psi)
        np.testing.assert_allclose(root @ root, psi, atol=1e-12)
        proj = np.outer(v, v) / (v @ v)
        np.testing.assert_allclose(inv @ psi @ inv, proj, atol=1e-12)

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            _gram_roots(np.array([[1.0, 0.0], [0.0, -1.0]]))

    @pytest.mark.filterwarnings("error")
    def test_zero_matrix_has_zero_roots_without_warning(self):
        """Every eigenvalue is dropped from the inverse, so nothing divides by 0."""
        zero = np.zeros((3, 3))
        root, inv = _gram_roots(zero)
        assert np.array_equal(root, zero)
        assert np.array_equal(inv, zero)


class TestSmoothing:
    def test_exact_recovery(self):
        """Curves sampled from the basis give back their coefficients."""
        system = build_bspline_system((0.0, 1.0), 7)
        grid = np.linspace(0.0, 1.0, 40)
        rng = np.random.default_rng(1)
        coefs = rng.normal(size=(12, 7))
        sampled = coefs @ evaluate_basis(system, grid).T
        np.testing.assert_allclose(smooth_curves(sampled, grid, system), coefs,
                                   atol=1e-10)

    def test_residual_orthogonality(self):
        """Least-squares residuals are orthogonal to the collocation columns."""
        system = build_bspline_system((0.0, 1.0), 6)
        grid = np.linspace(0.0, 1.0, 50)
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(5, 50))
        B = evaluate_basis(system, grid)
        resid = raw - smooth_curves(raw, grid, system) @ B.T
        np.testing.assert_allclose(B.T @ resid.T, 0.0, atol=1e-10)

    def test_shape_errors(self):
        system = build_bspline_system((0.0, 1.0), 6)
        grid = np.linspace(0.0, 1.0, 30)
        with pytest.raises(ValueError):
            smooth_curves(np.ones((3, 29)), grid, system)
        with pytest.raises(ValueError):
            smooth_curves(np.ones((3, 5)), np.linspace(0, 1, 5), system)
        with pytest.raises(ValueError):
            smooth_curves(np.ones((3, 30)), grid[::-1], system)


class TestBuildDesign:
    def _design(self, seed=0, n=15):
        rng = np.random.default_rng(seed)
        systems = [build_bspline_system((0.0, 1.0), 6),
                   build_bspline_system((0.0, 2.0), 8)]
        grids = [np.linspace(0.0, 1.0, 30), np.linspace(0.0, 2.0, 45)]
        curves = [rng.normal(size=(n, 6)) @ evaluate_basis(systems[0], grids[0]).T,
                  rng.normal(size=(n, 8)) @ evaluate_basis(systems[1], grids[1]).T]
        return curves, grids, systems

    def test_block_structure(self):
        curves, grids, systems = self._design()
        design = build_design(curves, grids, systems)
        assert design.D.shape == (15, 14)
        assert _block_slices(design.systems) == [slice(0, 6), slice(6, 14)]
        assert np.array_equal(design.Psi[:6, 6:], np.zeros((6, 8)))
        np.testing.assert_allclose(design.A, design.D @ design.Psi_half.T)

    def test_corrected_inner_products_match_l2(self):
        """Euclidean products of A rows equal L2 products of the smoothed curves."""
        curves, grids, systems = self._design(seed=3, n=6)
        design = build_design(curves, grids, systems)
        got = design.A @ design.A.T
        want = np.zeros((6, 6))
        for system, grid, block in zip(systems, [np.linspace(0, 1, 3001),
                                                 np.linspace(0, 2, 3001)],
                                       _block_slices(design.systems)):
            vals = design.D[:, block] @ evaluate_basis(system, grid).T
            want += simpson(vals[:, None, :] * vals[None, :, :], x=grid, axis=-1)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_take_subsets_rows(self):
        curves, grids, systems = self._design()
        design = build_design(curves, grids, systems)
        sub = design.take(np.array([2, 5, 7]))
        assert sub.n == 3
        np.testing.assert_array_equal(sub.D, design.D[[2, 5, 7]])
        np.testing.assert_array_equal(sub.A, design.A[[2, 5, 7]])
        assert sub.Psi is design.Psi

    def test_mismatched_rows_rejected(self):
        curves, grids, systems = self._design()
        curves[1] = curves[1][:-1]
        with pytest.raises(ValueError):
            build_design(curves, grids, systems)


def _frozen_eigh_psd(mat):
    sym = 0.5 * (mat + mat.T)
    evals, evecs = np.linalg.eigh(sym)
    top = max(float(evals[-1]), 0.0)
    if evals[0] < -1e-8 * max(top, 1.0):
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {evals[0]:.3e}")
    return np.maximum(evals, 0.0), evecs


def _frozen_sqrt_gram(psi):
    """The square root as written when each root ran its own eigendecomposition."""
    evals, evecs = _frozen_eigh_psd(np.asarray(psi, dtype=float))
    root = (evecs * np.sqrt(evals)) @ evecs.T
    return 0.5 * (root + root.T)


def _frozen_inv_sqrt_gram(psi):
    evals, evecs = _frozen_eigh_psd(np.asarray(psi, dtype=float))
    cutoff = 1e-12 * max(float(evals[-1]), 0.0)
    inv = np.where(evals > cutoff, 1.0 / np.sqrt(np.maximum(evals, cutoff)), 0.0)
    root = (evecs * inv) @ evecs.T
    return 0.5 * (root + root.T)


class TestGeometryPerLayout:
    """The Gram matrix and its roots are derived once per basis layout."""

    @staticmethod
    def _sample(domains, seed, n=12, num_basis=6):
        """Fresh basis objects and curves on the given domains."""
        rng = np.random.default_rng(seed)
        systems = [build_bspline_system(d, num_basis) for d in domains]
        grids = [np.linspace(d[0], d[1], 30) for d in domains]
        curves = [rng.normal(size=(n, 30)) for _ in domains]
        return curves, grids, systems

    def test_computed_on_first_design_only(self, monkeypatch, tmp_path):
        """Five designs, a saved and reloaded model and a prediction on one
        layout, each with new but equal ``BasisSystem`` objects, run the
        Gram routines only inside the first ``build_design``, with one
        eigendecomposition per block for both roots."""
        calls = Counter()
        for name in ("gram_matrix", "_gram_roots"):
            def counted(*args, _name=name, _fn=getattr(basis, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(basis, name, counted)
        # Domains no other test uses, so the layout is new to this process.
        domains = [(0.0, 1.0 + 2.0 ** -20), (-1.0, 2.0 + 2.0 ** -20)]
        after = []
        for seed in range(5):
            curves, grids, systems = self._sample(domains, seed)
            design = build_design(curves, grids, systems)
            after.append(dict(calls))
        assert after == [{"gram_matrix": 2, "_gram_roots": 2}] * 5
        y = np.random.default_rng(9).normal(size=design.n)
        path = tmp_path / "model.json"
        save_model(path, fit_fpls(design, y, 2))
        predict(load_model(path), curves, grids)
        assert dict(calls) == after[0]

    def test_layouts_differ_by_domain(self):
        """Equal shapes on [0, 1] and [0, 3]: the Gram matrix scales with
        the interval length, so the two layouts cannot share geometry."""
        short = build_design(*self._sample([(0.0, 1.0)], 0))
        long = build_design(*self._sample([(0.0, 3.0)], 0))
        assert short.Psi.shape == long.Psi.shape
        assert not np.array_equal(short.Psi, long.Psi)
        np.testing.assert_allclose(long.Psi, 3.0 * short.Psi, rtol=1e-12)
        np.testing.assert_allclose(long.Psi_half, math.sqrt(3.0) * short.Psi_half,
                                   rtol=1e-10)

    def test_blocks_match_scipy_block_diag(self):
        """Each stacked matrix has the bytes of scipy's ``block_diag`` of
        the per-basis blocks."""
        systems = (build_bspline_system((0.0, 1.0), 6),
                   build_bspline_system((-1.0, 2.0), 9, order=3),
                   build_bspline_system((0.0, 5.0), 4, order=2))
        geometry = basis._geometry(systems)
        blocks = [(gram, *_gram_roots(gram)) for gram in map(gram_matrix, systems)]
        for got, parts in zip(geometry, zip(*blocks)):
            assert got.tobytes() == block_diag(*parts).tobytes()

    @pytest.mark.parametrize("layout", [
        [((0.0, 1.0), 4, 4)],
        [((0.0, 1.0), 20, 4)] * 3,
        [((-2.0, 3.0), 7, 1), ((0.0, 1e-3), 12, 5)],
        [((0.0, 1.0), 6, 4), ((-1.0, 2.0), 9, 3), ((0.0, 5.0), 4, 2)],
    ])
    def test_blocks_match_the_gram_roots(self, layout):
        """Each block holds the bytes of ``_gram_roots``, whose one
        eigendecomposition keeps those of the two-decomposition form."""
        systems = tuple(build_bspline_system(d, k, order=o) for d, k, o in layout)
        geometry = basis._geometry(systems)
        stop = 0
        for system in systems:
            block = slice(stop, stop + system.num_basis)
            stop = block.stop
            gram = gram_matrix(system)
            for got, want, frozen in zip(geometry, (gram, *_gram_roots(gram)),
                                         (None, _frozen_sqrt_gram, _frozen_inv_sqrt_gram)):
                assert got[block, block].tobytes() == want.tobytes()
                if frozen is not None:
                    assert want.tobytes() == frozen(gram).tobytes()
            for mat in geometry:
                assert not mat[block, stop:].any() and not mat[stop:, block].any()

    def test_shared_matrices_are_read_only(self):
        curves, grids, systems = self._sample([(0.0, 1.0), (0.0, 2.0)], 1)
        design = build_design(curves, grids, systems)
        fit = fit_fpls(design, np.arange(design.n, dtype=float), 1)
        for mat in (design.Psi, design.Psi_half, design.Psi_inv_half, fit.Psi):
            with pytest.raises(ValueError, match="read-only"):
                mat[0, 0] = 1.0
