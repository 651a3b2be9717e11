"""Monte Carlo harness: harmonic curve generator, contamination, and the
replication-level experiment loop.

Curves are finite harmonic mixtures ``X(t) = sum_j kappa_j v_j(t)`` with
``v_j(t) = sin(j pi t) - cos(j pi t)`` and independent scores ``kappa_j ~
N(0, 4 j^{-3/2})``; responses integrate each predictor against a fixed
trigonometric coefficient function and add unit normal noise.
Contaminated observations are regenerated from amplified harmonics
``2 sin(j pi t) - cos(j pi t)`` with fresh scores and noise of standard
deviation 10, so they are simultaneously leverage and response
outliers.

Seeding is replication-keyed: every replication derives its generator,
contamination and fold-assignment streams from ``(master_seed,
replication)`` alone, so results do not depend on scheduling and a
multi-process run is byte-identical to a serial one.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .basis import build_bspline_system, build_design
from .errors import ConfigError, InputError, NumericalError
from .evaluation import risee, select_num_components, trimmed_mspe, trimmed_r2
from .fileio import _open_input, _write_table
from .regression import _FITTERS, coefficient_functions, predict_from_design

GRID_POINTS = 200
NUM_PREDICTORS = 3
NUM_HARMONICS = 5
CONTAMINATION_NOISE_STD = 10.0
_FINE_GRID = np.linspace(0.0, 1.0, 2001)


def _score_stds() -> np.ndarray:
    """Standard deviations 2 j^(-3/4) of the harmonic scores, j = 1..5."""
    j = np.arange(1, NUM_HARMONICS + 1, dtype=float)
    return 2.0 * j ** -0.75


def harmonic_functions(grid: np.ndarray, leverage: bool = False) -> np.ndarray:
    """Rows ``v_j`` on the grid; ``leverage`` doubles the sine part."""
    grid = np.asarray(grid, dtype=float)
    j = np.arange(1, NUM_HARMONICS + 1, dtype=float)[:, None]
    amp = 2.0 if leverage else 1.0
    return amp * np.sin(j * np.pi * grid) - np.cos(j * np.pi * grid)


def true_coefficient_functions(grid: np.ndarray) -> np.ndarray:
    """The three coefficient functions sin(2 pi t), sin(3 pi t), cos(2 pi t)."""
    grid = np.asarray(grid, dtype=float)
    return np.vstack([np.sin(2.0 * np.pi * grid),
                      np.sin(3.0 * np.pi * grid),
                      np.cos(2.0 * np.pi * grid)])


def _simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Composite Simpson rule over the last axis of ``y``, sampled at ``x``.

    Needs an odd number of strictly increasing points.  The arithmetic is
    that of scipy 1.17's rule for given points, so the bytes match it;
    the uniform ``dx / 3`` form rounds differently.
    """
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum, hprod = h0 + h1, h0 * h1
    h0divh1 = h0 / h1
    return np.sum(hsum / 6.0 * (y[..., :-2:2] * (2.0 - 1.0 / h0divh1)
                                + y[..., 1::2] * (hsum * (hsum / hprod))
                                + y[..., 2::2] * (2.0 - h0divh1)), axis=-1)


def coefficient_integrals(leverage: bool = False) -> np.ndarray:
    """Integrals ``I[j, m] = int v_j(t) beta_m(t) dt`` by composite Simpson.

    Evaluated on a 2001-point uniform grid, far past the accuracy needed
    for the smooth trigonometric integrands.
    """
    harm = harmonic_functions(_FINE_GRID, leverage=leverage)
    betas = true_coefficient_functions(_FINE_GRID)
    return _simpson(harm[:, None, :] * betas[None, :, :], _FINE_GRID)


def _draw(rng: np.random.Generator, count: int, grids: tuple[np.ndarray, ...], leverage: bool,
          noise_std: float) -> tuple[np.ndarray, ...]:
    """Scores, responses and one curve block per grid of ``count`` new observations.

    Scores are drawn before noise; ``leverage`` selects the amplified harmonics.
    """
    kappa = rng.normal(size=(count, NUM_PREDICTORS, NUM_HARMONICS)) * _score_stds()
    eps = rng.normal(0.0, noise_std, size=count)
    y = np.einsum("imj,jm->i", kappa, coefficient_integrals(leverage=leverage)) + eps
    return (kappa, y, *(kappa[:, m, :] @ harmonic_functions(grid, leverage=leverage)
                        for m, grid in enumerate(grids)))


@dataclass(frozen=True)
class SimDataset:
    """One simulated sample: curves, responses, truth, and provenance.

    ``contamination_mask`` marks regenerated observations; ``kappa``
    holds the harmonic scores actually used (shape ``(n, 3, 5)``), which
    the tests use for moment checks.
    """

    grids: tuple[np.ndarray, ...]
    curves: tuple[np.ndarray, ...]
    y: np.ndarray
    beta_true: np.ndarray
    contamination_mask: np.ndarray
    level: float
    seed: int
    kappa: np.ndarray

    @property
    def n(self) -> int:
        return self.y.size

    def take(self, rows: np.ndarray) -> "SimDataset":
        rows = np.asarray(rows)
        return replace(self, curves=tuple(c[rows] for c in self.curves),
                       y=self.y[rows],
                       contamination_mask=self.contamination_mask[rows],
                       kappa=self.kappa[rows])


def generate_clean(n: int, seed: int) -> SimDataset:
    """Draw ``n`` clean observations of the three-predictor model."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    grid = np.linspace(0.0, 1.0, GRID_POINTS)
    grids = tuple(grid.copy() for _ in range(NUM_PREDICTORS))
    kappa, y, *curves = _draw(np.random.default_rng(seed), n, grids, False, 1.0)
    return SimDataset(grids=grids, curves=tuple(curves), y=y,
                      beta_true=true_coefficient_functions(grid),
                      contamination_mask=np.zeros(n, dtype=bool),
                      level=0.0, seed=seed, kappa=kappa)


def contaminate(dataset: SimDataset, level: float, seed: int) -> SimDataset:
    """Replace a random ``round(level * n)`` of the observations.

    Selected rows get fresh scores on the amplified harmonics and
    responses whose noise has standard deviation 10; all other rows are
    untouched.
    """
    if not (0.0 < level < 0.5):
        raise ValueError(f"level must be in (0, 0.5), got {level}")
    if dataset.contamination_mask.any():
        raise ValueError("dataset is already contaminated")
    rng = np.random.default_rng(seed)
    idx = rng.choice(dataset.n, size=int(round(level * dataset.n)), replace=False)
    # Copy every per-row field (the mask is all False) and write the drawn rows into it.
    mask, kappa, y, *curves = (a.copy() for a in (dataset.contamination_mask, dataset.kappa,
                                                   dataset.y, *dataset.curves))
    drawn = _draw(rng, idx.size, dataset.grids, True, CONTAMINATION_NOISE_STD)
    for block, new in zip((mask, kappa, y, *curves), (True, *drawn)):
        block[idx] = new
    return replace(dataset, curves=tuple(curves), y=y, contamination_mask=mask,
                   level=level, seed=seed, kappa=kappa)


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one Monte Carlo experiment."""

    methods: tuple[str, ...] = ("fpc", "fpls", "rfpls")
    contamination_levels: tuple[float, ...] = (0.0, 0.01, 0.05, 0.10)
    replications: int = 100
    n_train: int = 200
    n_test: int = 200
    num_basis: int = 20
    max_components: int = 5
    cv_folds: int = 5
    trim_alpha: float = 0.1
    seed: int = 1
    workers: int = 1

    def __post_init__(self):
        unknown = [m for m in self.methods if m not in _FITTERS]
        if unknown or not self.methods:
            raise ConfigError(f"methods must be a nonempty subset of {sorted(_FITTERS)}, "
                              f"got {list(self.methods)}")
        for lv in self.contamination_levels:
            if not (0.0 <= lv < 0.5):
                raise ConfigError(f"contamination levels must lie in [0, 0.5), got {lv}")
        if not self.contamination_levels:
            raise ConfigError("contamination_levels must be nonempty")
        for name in ("methods", "contamination_levels"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} must not repeat a value, got {list(values)}")
        for name in ("replications", "n_train", "n_test", "num_basis",
                     "max_components", "cv_folds", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.cv_folds < 2:
            raise ConfigError(f"cv_folds must be at least 2, got {self.cv_folds}")
        if not (0.0 <= self.trim_alpha < 1.0):
            raise ConfigError(f"trim_alpha must be in [0, 1), got {self.trim_alpha}")
        if self.cv_folds > self.n_train:
            raise ConfigError(f"cv_folds = {self.cv_folds} exceeds n_train = {self.n_train}")
        if self.num_basis > GRID_POINTS:
            raise ConfigError(f"num_basis = {self.num_basis} exceeds the {GRID_POINTS} grid points")
        try:
            build_bspline_system((0.0, 1.0), self.num_basis)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for rows, least, what in ((self.n_test, 2, "test set (trimmed R^2 needs 2)"),
                                  (self.n_train // self.cv_folds, 1, "smallest CV test part")):
            if rows - math.ceil(self.trim_alpha * rows) < least:
                raise ConfigError(f"trim_alpha = {self.trim_alpha} keeps under {least} of the "
                                  f"{rows} rows of the {what}")


class ResultRow(NamedTuple):
    replication: int
    method: str
    level: float
    metric: str
    target: str
    value: float


class FailureRow(NamedTuple):
    replication: int
    method: str
    level: float
    message: str


def _replication_seeds(config: ExperimentConfig, rep: int) -> tuple[int, int, list[int]]:
    """Generator, fold and per-level contamination seeds for one replication."""
    state = np.random.SeedSequence([config.seed, rep]).generate_state(
        2 + len(config.contamination_levels))
    return int(state[0]), int(state[1]), [int(s) for s in state[2:]]


def _run_replication(config: ExperimentConfig,
                     rep: int) -> tuple[list[ResultRow], list[FailureRow]]:
    gen_seed, cv_seed, cont_seeds = _replication_seeds(config, rep)
    pool = generate_clean(config.n_train + config.n_test, gen_seed)
    train = pool.take(np.arange(config.n_train))
    test = pool.take(np.arange(config.n_train, pool.n))
    systems = [build_bspline_system((0.0, 1.0), config.num_basis)
               for _ in range(NUM_PREDICTORS)]
    test_design = build_design(test.curves, test.grids, systems)

    rows: list[ResultRow] = []
    failures: list[FailureRow] = []
    for li, level in enumerate(config.contamination_levels):
        sample = train if level == 0.0 else contaminate(train, level, cont_seeds[li])
        design = build_design(sample.curves, sample.grids, systems)
        for method in config.methods:
            try:
                report = select_num_components(design, sample.y,
                                               config.max_components,
                                               folds=config.cv_folds,
                                               alpha=config.trim_alpha,
                                               method=method, seed=cv_seed)
                fit = _FITTERS[method](design, sample.y, report.chosen_h)
                pred = predict_from_design(fit, test_design.D)
                beta_hat = coefficient_functions(fit, test.grids)
            except NumericalError as exc:
                failures.append(FailureRow(rep, method, level, str(exc)))
                continue
            rows.append(ResultRow(rep, method, level, "trimmed_mspe", "",
                                  trimmed_mspe(test.y, pred, config.trim_alpha)))
            rows.append(ResultRow(rep, method, level, "trimmed_r2", "",
                                  trimmed_r2(test.y, pred, config.trim_alpha)))
            for m in range(NUM_PREDICTORS):
                rows.append(ResultRow(rep, method, level, "risee", f"beta{m + 1}",
                                      risee(test.beta_true[m], beta_hat[m])))
            rows.append(ResultRow(rep, method, level, "chosen_h", "",
                                  float(report.chosen_h)))
    return rows, failures


def _openblas_libraries() -> list[ctypes.CDLL]:
    """Every OpenBLAS shared library mapped into this process that loads; none
    if the maps file is unreadable.  A path is all of a maps line after its 5th
    field, spaces included; a replaced file reads ``<path> (deleted)`` and won't load."""
    try:
        with _open_input("/proc/self/maps") as handle:
            paths = sorted({line.rstrip("\n").split(maxsplit=5)[-1] for line in handle
                            if "openblas" in line.lower() and "/" in line})
    except InputError:
        return []
    libraries = []
    for path in paths:
        with contextlib.suppress(OSError):
            libraries.append(ctypes.CDLL(path))
    return libraries


_SET_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                "openblas_set_num_threads")


def _one_blas_thread() -> None:
    """Pool initializer: run every loaded OpenBLAS on one thread.

    Each worker already runs one replication per core, so BLAS threads
    of their own would only contend with the other workers.  In a forked
    worker, setting the count restarts the helpers that the fork handler
    stopped, each spinning for about 0.1 s of CPU before it sleeps; shut
    down again, they stay down, as single-threaded calls never start them.
    """
    for lib in _openblas_libraries():
        for symbol in _SET_THREADS:
            if hasattr(lib, symbol):
                set_threads = getattr(lib, symbol)
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                set_threads(1)
                if hasattr(lib, "blas_thread_shutdown_"):
                    lib.blas_thread_shutdown_.argtypes = []
                    lib.blas_thread_shutdown_.restype = ctypes.c_int
                    lib.blas_thread_shutdown_()
                break


@dataclass
class ExperimentResult:
    """All metric rows of an experiment plus any per-cell failures."""

    config: ExperimentConfig
    rows: list[ResultRow] = field(default_factory=list)
    failures: list[FailureRow] = field(default_factory=list)

    def values(self, method: str, level: float, metric: str,
               target: str = "") -> np.ndarray:
        """Metric values across replications for one experiment cell."""
        out = [r.value for r in self.rows
               if r.method == method and r.level == level
               and r.metric == metric and r.target == target]
        return np.asarray(out)

    def median(self, method: str, level: float, metric: str,
               target: str = "") -> float:
        vals = self.values(method, level, metric, target)
        if vals.size == 0:
            raise ValueError(f"no rows for ({method}, {level}, {metric}, {target!r})")
        return float(np.median(vals))

    def write_csv(self, path: str) -> None:
        """Long-format rows, one per metric value."""
        _write_table(path, ResultRow._fields,
                     ([r.replication, r.method, float(r.level), r.metric, r.target,
                       float(r.value)] for r in self.rows))

    def write_summary_csv(self, path: str) -> None:
        """Median of every (method, level, metric, target) cell."""
        cells: dict[tuple[str, float, str, str], list[float]] = {}
        for r in self.rows:
            cells.setdefault((r.method, r.level, r.metric, r.target), []).append(r.value)
        _write_table(path, ["method", "level", "metric", "target", "median", "replications"],
                     ([method, float(level), metric, target, float(np.median(vals)), len(vals)]
                      for (method, level, metric, target), vals in sorted(cells.items())))


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every replication and collect rows in replication order.

    With ``workers > 1`` replications run in a process pool whose
    workers each use one BLAS thread; results are gathered in submission
    order, so the row stream (and any CSV written from it) is identical
    for every pool size.
    """
    result = ExperimentResult(config=config)
    with contextlib.ExitStack() as stack:
        map_ = map
        if config.workers > 1:
            map_ = stack.enter_context(ProcessPoolExecutor(max_workers=config.workers,
                                                           initializer=_one_blas_thread)).map
        for rows, failures in map_(_run_replication, itertools.repeat(config),
                                   range(config.replications)):
            result.rows.extend(rows)
            result.failures.extend(failures)
    return result
