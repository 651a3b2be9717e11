"""Harmonic data generator, contamination mechanism, and experiment loop."""

import csv
import ctypes
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import sympy
from scipy.integrate import simpson

from rfpls import simulation
from rfpls.errors import ConfigError
from rfpls.simulation import (CONTAMINATION_NOISE_STD, ExperimentConfig,
                              ExperimentResult, ResultRow, coefficient_integrals,
                              contaminate, generate_clean, harmonic_functions,
                              run_experiment, true_coefficient_functions)
from rfpls.simulation import _score_stds


def _quadrature_signal(dataset, rows=None):
    """Noise-free responses recomputed by integrating curve times truth."""
    rows = np.arange(dataset.n) if rows is None else rows
    out = np.zeros(rows.size)
    for m in range(3):
        out += np.array([simpson(dataset.curves[m][i] * dataset.beta_true[m],
                                 x=dataset.grids[m]) for i in rows])
    return out


class TestGeneratorPieces:
    def test_score_scales(self):
        expected = [2.0 * j ** -0.75 for j in (1, 2, 3, 4, 5)]
        np.testing.assert_allclose(_score_stds(), expected, rtol=1e-15)

    def test_harmonics_and_leverage(self):
        """The leverage variant adds exactly one extra sine per harmonic."""
        g = np.linspace(0.0, 1.0, 37)
        base = harmonic_functions(g)
        lev = harmonic_functions(g, leverage=True)
        assert base.shape == lev.shape == (5, 37)
        j = np.arange(1, 6)[:, None]
        np.testing.assert_allclose(lev - base, np.sin(j * np.pi * g), atol=1e-15)
        np.testing.assert_allclose(base, np.sin(j * np.pi * g) - np.cos(j * np.pi * g),
                                   atol=1e-15)

    def test_true_coefficients(self):
        g = np.linspace(0.0, 1.0, 11)
        b = true_coefficient_functions(g)
        np.testing.assert_allclose(b[0], np.sin(2 * np.pi * g), atol=1e-15)
        np.testing.assert_allclose(b[1], np.sin(3 * np.pi * g), atol=1e-15)
        np.testing.assert_allclose(b[2], np.cos(2 * np.pi * g), atol=1e-15)

    @pytest.mark.parametrize("leverage,amp", [(False, 1), (True, 2)])
    def test_integrals_match_symbolic_antiderivatives(self, leverage, amp):
        """All fifteen harmonic-times-coefficient integrals against exact
        symbolic integration."""
        t = sympy.symbols("t")
        betas = [sympy.sin(2 * sympy.pi * t), sympy.sin(3 * sympy.pi * t),
                 sympy.cos(2 * sympy.pi * t)]
        exact = np.empty((5, 3))
        for j in range(1, 6):
            v = amp * sympy.sin(j * sympy.pi * t) - sympy.cos(j * sympy.pi * t)
            for m, beta in enumerate(betas):
                exact[j - 1, m] = float(sympy.integrate(v * beta, (t, 0, 1)))
        np.testing.assert_allclose(coefficient_integrals(leverage=leverage),
                                   exact, atol=1e-9)

    @pytest.mark.parametrize("leverage", [False, True])
    def test_integrals_match_scipy_simpson_bytes(self, leverage):
        """The Simpson rule has the bytes of scipy's for the same samples."""
        fine = np.linspace(0.0, 1.0, 2001)
        integrand = (harmonic_functions(fine, leverage=leverage)[:, None, :]
                     * true_coefficient_functions(fine)[None, :, :])
        want = simpson(integrand, x=fine, axis=-1)
        assert coefficient_integrals(leverage=leverage).tobytes() == want.tobytes()


class TestGenerateClean:
    def test_repeatable(self):
        a, b = generate_clean(30, 7), generate_clean(30, 7)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.kappa, b.kappa)
        for ca, cb in zip(a.curves, b.curves):
            np.testing.assert_array_equal(ca, cb)

    def test_curves_are_harmonic_mixtures(self):
        """Stored curves equal the scores applied to the harmonic rows."""
        ds = generate_clean(15, 3)
        for m in range(3):
            np.testing.assert_array_equal(
                ds.curves[m], ds.kappa[:, m, :] @ harmonic_functions(ds.grids[m]))

    def test_score_and_noise_moments(self):
        ds = generate_clean(4000, 11)
        stds = ds.kappa.std(axis=0, ddof=1)
        np.testing.assert_allclose(stds, np.broadcast_to(_score_stds(), (3, 5)),
                                   rtol=0.08)
        eps = ds.y - _quadrature_signal(ds)
        assert abs(eps.mean()) < 0.06
        assert 0.94 < eps.std(ddof=1) < 1.06

    def test_initial_state(self):
        ds = generate_clean(8, 0)
        assert not ds.contamination_mask.any()
        assert ds.level == 0.0
        assert len(ds.grids) == len(ds.curves) == 3
        assert ds.grids[0].size == 200
        with pytest.raises(ValueError):
            generate_clean(0, 1)

    def test_take_subsets_consistently(self):
        ds = generate_clean(20, 5)
        sub = ds.take(np.array([3, 7, 19]))
        assert sub.n == 3
        np.testing.assert_array_equal(sub.y, ds.y[[3, 7, 19]])
        np.testing.assert_array_equal(sub.curves[1], ds.curves[1][[3, 7, 19]])


class TestContaminate:
    def test_count_and_mask(self):
        ds = generate_clean(200, 21)
        out = contaminate(ds, 0.05, 99)
        assert out.contamination_mask.sum() == 10
        assert out.level == 0.05
        assert out.n == 200
        assert not ds.contamination_mask.any()

    def test_clean_rows_untouched(self):
        ds = generate_clean(100, 22)
        out = contaminate(ds, 0.1, 5)
        keep = ~out.contamination_mask
        np.testing.assert_array_equal(out.y[keep], ds.y[keep])
        for m in range(3):
            np.testing.assert_array_equal(out.curves[m][keep], ds.curves[m][keep])

    def test_replaced_curves_use_amplified_harmonics(self):
        ds = generate_clean(100, 23)
        out = contaminate(ds, 0.1, 6)
        bad = np.flatnonzero(out.contamination_mask)
        for m in range(3):
            np.testing.assert_array_equal(
                out.curves[m][bad],
                out.kappa[bad, m, :] @ harmonic_functions(out.grids[m],
                                                          leverage=True))

    def test_replacement_noise_scale(self):
        """Residuals of contaminated rows around their own signal have
        mean square near the squared contamination noise level."""
        ds = generate_clean(2000, 24)
        out = contaminate(ds, 0.45, 7)
        bad = np.flatnonzero(out.contamination_mask)
        eps = out.y[bad] - _quadrature_signal(out, bad)
        assert CONTAMINATION_NOISE_STD == 10.0
        assert abs((eps ** 2).mean() - 100.0) < 15.0
        assert abs(eps.mean()) < 1.0

    def test_repeatable_and_guarded(self):
        ds = generate_clean(60, 25)
        a, b = contaminate(ds, 0.1, 8), contaminate(ds, 0.1, 8)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.contamination_mask, b.contamination_mask)
        with pytest.raises(ValueError, match="already"):
            contaminate(a, 0.1, 9)
        with pytest.raises(ValueError, match="level"):
            contaminate(ds, 0.0, 1)
        with pytest.raises(ValueError, match="level"):
            contaminate(ds, 0.5, 1)


class TestExperimentConfig:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.replications == 100
        assert cfg.contamination_levels == (0.0, 0.01, 0.05, 0.10)

    @pytest.mark.parametrize("kwargs", [
        {"methods": ("fpls", "ridge")},
        {"methods": ()},
        {"contamination_levels": (0.0, 0.6)},
        {"contamination_levels": ()},
        {"replications": 0},
        {"n_train": 0},
        {"cv_folds": 1},
        {"trim_alpha": 1.0},
        {"workers": 0},
        {"n_train": 3},
        {"n_test": 1},
        {"n_train": 8},
        {"num_basis": 300},
        {"num_basis": 2},
    ])
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)


_SMALL = dict(methods=("fpls", "rfpls"), contamination_levels=(0.0, 0.1),
              replications=2, n_train=40, n_test=40, num_basis=10,
              max_components=2, cv_folds=3, trim_alpha=0.1, seed=5)


_GET_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads")


def _blas_thread_counts() -> dict:
    """Thread count of every OpenBLAS loaded in the calling process, by path."""
    counts = {}
    for lib in simulation._openblas_libraries():
        for symbol in _GET_THREADS:
            if hasattr(lib, symbol):
                get_threads = getattr(lib, symbol)
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                counts[lib._name] = get_threads()
                break
    return counts


class TestRunExperiment:
    def test_row_layout(self):
        """Six metric rows per replication, level, and method."""
        res = run_experiment(ExperimentConfig(**_SMALL))
        assert res.failures == []
        assert len(res.rows) == 2 * 2 * 2 * 6
        metrics = {r.metric for r in res.rows}
        assert metrics == {"trimmed_mspe", "trimmed_r2", "risee", "chosen_h"}
        for r in res.rows:
            assert math.isfinite(r.value)
        assert {r.target for r in res.rows if r.metric == "risee"} \
            == {"beta1", "beta2", "beta3"}

    def test_cell_helpers(self):
        res = run_experiment(ExperimentConfig(**_SMALL))
        vals = res.values("fpls", 0.0, "risee", "beta2")
        assert vals.shape == (2,)
        assert res.median("fpls", 0.0, "risee", "beta2") == np.median(vals)
        with pytest.raises(ValueError, match="no rows"):
            res.median("fpc", 0.0, "trimmed_mspe")

    def test_worker_count_does_not_change_results(self):
        serial = run_experiment(ExperimentConfig(**_SMALL))
        pooled = run_experiment(ExperimentConfig(**{**_SMALL, "workers": 2}))
        assert serial.rows == pooled.rows
        assert serial.failures == pooled.failures

    def test_pool_workers_use_one_blas_thread(self, monkeypatch):
        """A worker of the experiment's pool runs every OpenBLAS on one
        thread, and the parent process keeps its own thread counts."""
        before = _blas_thread_counts()
        if not before:
            pytest.skip("no OpenBLAS library is loaded")
        in_worker = []

        class ProbedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                in_worker.append(self.submit(_blas_thread_counts).result(timeout=120))

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", ProbedPool)
        run_experiment(ExperimentConfig(**{**_SMALL, "workers": 2}))
        assert in_worker == [dict.fromkeys(before, 1)]
        assert _blas_thread_counts() == before

    def test_csv_round_trip_and_determinism(self, tmp_path):
        res = run_experiment(ExperimentConfig(**_SMALL))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        res.write_csv(p1)
        run_experiment(ExperimentConfig(**_SMALL)).write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["replication", "method", "level", "metric",
                           "target", "value"]
        assert len(rows) == len(res.rows) + 1
        parsed = ResultRow(int(rows[1][0]), rows[1][1], float(rows[1][2]),
                           rows[1][3], rows[1][4], float(rows[1][5]))
        assert parsed == res.rows[0]

    def test_summary_medians(self, tmp_path):
        res = run_experiment(ExperimentConfig(**_SMALL))
        path = tmp_path / "summary.csv"
        res.write_summary_csv(path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["method", "level", "metric", "target", "median",
                           "replications"]
        cell = [r for r in rows if r[:4] == ["fpls", "0.0", "trimmed_mspe", ""]]
        assert len(cell) == 1
        assert float(cell[0][4]) == res.median("fpls", 0.0, "trimmed_mspe")
        assert cell[0][5] == "2"
