"""Acceptance gate: nine end-to-end criteria, one printed verdict each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines;
the Monte Carlo criteria share one 100-replication experiment and take a
few minutes on a single core.
"""

import os
import time

import numpy as np
import pytest

from rfpls.basis import build_bspline_system, build_design, evaluate_basis
from rfpls.cli import main
from rfpls.evaluation import risee, select_num_components
from rfpls.regression import coefficient_functions, fit_fpls, fit_rfpls
from rfpls.robust import _HAMPEL, hampel_f, l1_median, m_estimate, mad_scale, tukey_kappa, tukey_rho
from rfpls.robust_pls import prm_fit
from rfpls.simpls import simpls_fit, weighted_simpls_fit
from rfpls.simulation import ExperimentConfig, contaminate, generate_clean, run_experiment


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _functional_path_scores(D: np.ndarray, Psi: np.ndarray, y: np.ndarray,
                            h: int) -> np.ndarray:
    """PLS scores computed entirely in coefficient space.

    Works with the Gram matrix as a metric and never forms its square
    root: cross-covariances, loadings and the Gram-Schmidt basis all
    live on the coefficient side.
    """
    Dc = D - D.mean(axis=0)
    yc = y - y.mean()
    s = Dc.T @ yc
    basis: list[np.ndarray] = []
    cols = []
    for _ in range(h):
        t = Dc @ (Psi @ s)
        t = t / np.linalg.norm(t)
        cols.append(t)
        p = Dc.T @ t
        v = p.copy()
        for u in basis:
            v = v - u * float(u @ (Psi @ v))
        v = v / np.sqrt(float(v @ (Psi @ v)))
        basis.append(v)
        s = s - v * float(v @ (Psi @ s))
    return np.column_stack(cols)


def test_criterion_1_functional_path_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 51))
        num_pred = int(rng.integers(1, 4))
        systems, grids, curves = [], [], []
        for _ in range(num_pred):
            k = int(rng.integers(4, 9))
            system = build_bspline_system((0.0, 1.0), k, 4)
            grid = np.linspace(0.0, 1.0, int(rng.integers(25, 61)))
            coefs = rng.normal(size=(n, k))
            systems.append(system)
            grids.append(grid)
            curves.append(coefs @ evaluate_basis(system, grid).T)
        design = build_design(curves, grids, systems)
        y = rng.normal(size=n)
        h = min(4, design.total_basis, n - 1)
        lib = simpls_fit(design.A, y, h).scores
        oracle = _functional_path_scores(design.D, design.Psi, y, h)
        worst = max(worst, float(np.abs(lib - oracle).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    assert _report(1, ok, f"20 random designs, max column-wise score "
                          f"deviation {worst:.2e} (limit 1e-8), {elapsed:.1f}s")


def test_criterion_2_reduction_suite(monkeypatch):
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 6))
    y = X @ rng.normal(size=6) + rng.normal(size=40)

    ones_hook = lambda e, c: np.ones_like(e)
    with monkeypatch.context() as m:
        m.setattr("rfpls.robust._bisquare", ones_hook)
        mest = m_estimate(X, y, 4.685)
    dm = np.column_stack([np.ones(40), X])
    ls = np.linalg.lstsq(dm, y, rcond=None)[0]
    dev_a = max(float(np.abs(mest.delta - ls[1:]).max()),
                abs(mest.intercept - float(ls[0])))

    classical = simpls_fit(X, y, 3)
    with monkeypatch.context() as m:
        m.setattr("rfpls.robust_pls.hampel_weight", lambda v: np.ones_like(v))
        robust = prm_fit(X, y, 3)
    exact_b = (np.array_equal(robust.W_r, classical.W)
               and np.array_equal(robust.scores_r, classical.scores)
               and np.array_equal(robust.gamma_r, classical.gamma)
               and robust.gamma0 == classical.gamma0)

    weighted = weighted_simpls_fit(X, y, np.ones(40), 3)
    dev_c = max(float(np.abs(weighted.W - classical.W).max()),
                float(np.abs(weighted.scores - classical.scores).max()),
                float(np.abs(weighted.gamma - classical.gamma).max()))

    elapsed = time.perf_counter() - start
    ok = dev_a < 1e-10 and exact_b and dev_c <= 1e-12 and elapsed < 5.0
    assert _report(2, ok, f"quadratic-hook vs LS {dev_a:.2e} (<1e-10), "
                          f"unit-weight reweighting exact={exact_b}, "
                          f"unit-weight SIMPLS {dev_c:.2e} (<=1e-12), {elapsed:.1f}s")


def test_criterion_3_robust_primitives():
    start = time.perf_counter()
    checks = []
    checks.append(hampel_f(1.0) == 1.0)
    checks.append(abs(hampel_f(1.8) - 1.65) < 1e-12)
    checks.append(abs(hampel_f(2.5) - 0.86150) < 1e-5)
    checks.append(hampel_f(4.0) == 0.0)
    checks.append(_HAMPEL == (1.65, 1.96, 3.09))

    checks.append(tukey_rho(0.0, 4.685) == 0.0)
    checks.append(tukey_rho(4.685, 4.685) == 1.0)
    checks.append(tukey_rho(-7.0, 4.685) == 1.0)
    checks.append(tukey_kappa(4.685, 4.685) == 0.0)
    checks.append(tukey_kappa(-4.685, 4.685) == 0.0)

    checks.append(mad_scale(np.array([1.0, 2.0, 3.0, 4.0, 100.0])) == 1.0)

    pts = np.array([[1.0], [2.0], [3.0], [4.0], [100.0]])
    checks.append(abs(float(l1_median(pts)[0]) - 3.0) < 1e-6)
    theta = 2.0 * np.pi * np.arange(8) / 8
    circle = np.column_stack([np.cos(theta), np.sin(theta)]) + [5.0, -2.0]
    checks.append(np.abs(l1_median(circle) - [5.0, -2.0]).max() < 1e-6)

    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 1.0
    assert _report(3, ok, f"{sum(checks)}/{len(checks)} pinned-value and "
                          f"symmetry checks, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def mc_experiment():
    config = ExperimentConfig(methods=("fpls", "rfpls"),
                              contamination_levels=(0.0, 0.01, 0.05, 0.10),
                              replications=100, n_train=200, n_test=200,
                              num_basis=20, max_components=5, cv_folds=5,
                              trim_alpha=0.1, seed=1,
                              workers=max(1, os.cpu_count() or 1))
    start = time.perf_counter()
    result = run_experiment(config)
    return result, time.perf_counter() - start


def test_criterion_4_contaminated_estimation_error(mc_experiment):
    result, elapsed = mc_experiment
    ratios = []
    below = []
    for m in (1, 2, 3):
        f = result.median("fpls", 0.10, "risee", f"beta{m}")
        r = result.median("rfpls", 0.10, "risee", f"beta{m}")
        ratios.append(f / r)
        below.append(r < f)
    ok = all(below) and all(rt >= 1.5 for rt in ratios) and elapsed < 900.0
    detail = ("median RISEE ratios fpls/rfpls at 10% = "
              + "/".join(f"{rt:.2f}" for rt in ratios)
              + f" (all >= 1.5), {len(result.failures)} failed cells, "
              + f"100 replications in {elapsed:.0f}s")
    assert _report(4, ok, detail)


def test_criterion_5_clean_data_efficiency(mc_experiment):
    result, _ = mc_experiment
    f = result.median("fpls", 0.0, "trimmed_mspe")
    r = result.median("rfpls", 0.0, "trimmed_mspe")
    ratio = r / f
    ok = abs(ratio - 1.0) <= 0.25
    assert _report(5, ok, f"clean-data trimmed MSPE medians rfpls={r:.3f} "
                          f"fpls={f:.3f}, ratio {ratio:.3f} within 1 +- 0.25")


def test_criterion_6_contamination_monotonicity(mc_experiment):
    result, _ = mc_experiment
    levels = (0.0, 0.01, 0.05, 0.10)
    fpls = [result.median("fpls", lv, "trimmed_mspe") for lv in levels]
    rfpls_tail = result.median("rfpls", 0.10, "trimmed_mspe")
    monotone = all(a <= b for a, b in zip(fpls, fpls[1:]))
    ok = monotone and rfpls_tail < fpls[-1]
    detail = ("fpls trimmed MSPE by level "
              + "/".join(f"{v:.3f}" for v in fpls)
              + f" nondecreasing={monotone}, rfpls at 10% {rfpls_tail:.3f} "
              + f"< fpls {fpls[-1]:.3f}")
    assert _report(6, ok, detail)


def test_criterion_7_exact_model_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    sizes = (7, 6)
    systems = [build_bspline_system((0.0, 1.0), k, 4) for k in sizes]
    grids = [np.linspace(0.0, 1.0, 150) for _ in sizes]
    d_blocks = [rng.normal(size=(80, k)) for k in sizes]
    b_blocks = [rng.normal(size=k) for k in sizes]
    curves = [(evaluate_basis(s, g) @ d.T).T
              for s, g, d in zip(systems, grids, d_blocks)]
    design = build_design(curves, grids, systems)
    y = design.D @ (design.Psi @ np.concatenate(b_blocks))
    fit = fit_fpls(design, y, design.total_basis)
    errs = [risee(evaluate_basis(s, g) @ bb, bh)
            for s, g, bb, bh in zip(systems, grids, b_blocks,
                                    coefficient_functions(fit, grids))]

    low = rng.normal(size=(50, 3)) @ rng.normal(size=(3, 8))
    system3 = build_bspline_system((0.0, 1.0), 8, 4)
    grid3 = np.linspace(0.0, 1.0, 90)
    curves3 = (evaluate_basis(system3, grid3) @ low.T).T
    design3 = build_design([curves3], [grid3], [system3])
    y3 = design3.A @ rng.normal(size=8)
    chosen = select_num_components(design3, y3, max_components=6, folds=5,
                                   alpha=0.1, method="fpls", seed=3).chosen_h

    elapsed = time.perf_counter() - start
    ok = all(e < 1e-6 for e in errs) and chosen == 3 and elapsed < 30.0
    detail = ("noise-free RISEE per coefficient "
              + "/".join(f"{e:.1e}" for e in errs)
              + f" (<1e-6), CV on rank-3 data chose h={chosen}, {elapsed:.1f}s")
    assert _report(7, ok, detail)


def test_criterion_8_weight_identification():
    start = time.perf_counter()
    fractions = []
    for rep in range(20):
        gen_seed, cont_seed, cv_seed = [
            int(s) for s in np.random.SeedSequence([81, rep]).generate_state(3)]
        sample = contaminate(generate_clean(200, gen_seed), 0.10, cont_seed)
        systems = [build_bspline_system((0.0, 1.0), 20) for _ in range(3)]
        design = build_design(sample.curves, sample.grids, systems)
        report = select_num_components(design, sample.y, max_components=5,
                                       folds=5, alpha=0.1, method="rfpls",
                                       seed=cv_seed)
        fit = fit_rfpls(design, sample.y, report.chosen_h)
        weights = fit.robust_report.weights
        bad = sample.contamination_mask
        fractions.append(float((weights[bad] < 0.5).mean()))
    med = float(np.median(fractions))
    elapsed = time.perf_counter() - start
    ok = med >= 0.8
    assert _report(8, ok, f"median fraction of contaminated rows with final "
                          f"weight < 0.5 is {med:.2f} over 20 replications "
                          f"(need >= 0.8), {elapsed:.0f}s")


def test_criterion_9_simulation_determinism(tmp_path, capsys):
    config = tmp_path / "experiment.ini"
    config.write_text("[experiment]\n"
                      "methods = fpls,rfpls\n"
                      "contamination_levels = 0.0,0.1\n"
                      "replications = 3\n"
                      "n_train = 60\nn_test = 60\n"
                      "num_basis = 10\nmax_components = 3\n"
                      "cv_folds = 3\ntrim_alpha = 0.1\nseed = 9\n")
    blobs = []
    for run, workers in enumerate((1, 1, 2, 3)):
        out = tmp_path / f"run{run}.csv"
        rc = main(["simulate", "--config", str(config), "--out", str(out),
                   "--workers", str(workers)])
        assert rc == 0
        blobs.append((out.read_bytes(),
                      (tmp_path / f"run{run}_summary.csv").read_bytes()))
    capsys.readouterr()
    identical = all(b == blobs[0] for b in blobs[1:])
    assert _report(9, identical,
                   "results and summary CSVs byte-identical across "
                   "repeated runs and worker pools of 1, 2 and 3")
