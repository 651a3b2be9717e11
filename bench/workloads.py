"""The benchmark's three workloads: seeded inputs, one operation, and its checks.

Every workload makes its inputs from the run seed alone and hands the
program only those inputs.  An operation returns the program's output in
a form the checks below can compare: against fixed statistical limits
that any correct robust estimator meets, against outputs recorded at the
baseline commit (``reference.json``), and, in a traced run, bit for bit
against the same operation run untraced.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
import time
import zlib
from dataclasses import replace

import numpy as np

from rfpls import cli, simulation
from rfpls.fileio import CurveTable, write_curves, write_response
from rfpls.simulation import ExperimentConfig, contaminate, generate_clean

NUM_PREDICTORS = 3
TRAIN_ROWS = 200
PREDICT_ROWS = 200
BULK_ROWS = 2000
CONTAMINATION = 0.10
TRIM_ALPHA = 0.1

# Relative tolerance of a reference comparison, as a share of the
# compared output's scale.  Tightening the spatial median's stopping
# tolerance from 1e-8 to 1e-12 (a last-digit change of the kind a
# warm start makes) moved these outputs by at most 8e-9; skipping the
# cutoff tuning (a fixed c = 4.685) moved CLI predictions by 1e-2.
REFERENCE_RTOL = 1e-5

# Statistical limits every correct robust fit meets on these inputs
# (noise variance 1; 10% of training rows are leverage and response
# outliers with noise sd 10).
MAX_CLEAN_TRIMMED_MSPE = 1.5
MIN_DOWNWEIGHTED_SHARE = 0.5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _stream(seed: int, workload: str, count: int) -> list[int]:
    """``count`` seeds for one workload's inputs, derived from the run seed."""
    state = np.random.SeedSequence([seed, zlib.crc32(workload.encode())]).generate_state(count)
    return [int(s) for s in state]


def _trimmed_mspe(y: np.ndarray, pred: np.ndarray) -> float:
    sq = np.sort((y - pred) ** 2)
    return float(sq[: sq.size - math.ceil(TRIM_ALPHA * sq.size)].mean())


def prediction_fingerprint(pred: np.ndarray) -> dict:
    """Mean, RMS and eight evenly spaced entries of a prediction vector."""
    probe = np.linspace(0, pred.size - 1, 8).astype(int)
    return {"n": int(pred.size), "mean": float(pred.mean()),
            "rms": float(np.sqrt(np.mean(pred ** 2))),
            "probe": [float(pred[i]) for i in probe]}


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= REFERENCE_RTOL * scale


def compare_predictions(got: dict, want: dict) -> list[str]:
    if got["n"] != want["n"]:
        return [f"{got['n']} predictions, reference has {want['n']}"]
    scale = max(want["rms"], 1.0)
    pairs = [("mean", got["mean"], want["mean"]), ("rms", got["rms"], want["rms"])]
    pairs += [(f"probe[{i}]", g, w) for i, (g, w) in enumerate(zip(got["probe"], want["probe"]))]
    return [f"{name}: {g!r} vs reference {w!r}" for name, g, w in pairs
            if not _close(g, w, scale)]


def _write_tables(directory: str, prefix: str, curves, grids, ids) -> list[str]:
    paths = []
    for m in range(NUM_PREDICTORS):
        path = os.path.join(directory, f"{prefix}{m + 1}.csv")
        write_curves(path, CurveTable(tuple(ids), grids[m], curves[m]))
        paths.append(path)
    return paths


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _read_predictions(path: str) -> np.ndarray:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    return np.array([float(row[1]) for row in rows])


class TrainingSet:
    """A contaminated training set as curve and response CSVs; ``fit`` runs ``rfpls fit``."""

    def __init__(self, directory: str, train_seed: int, cont_seed: int):
        os.makedirs(directory, exist_ok=True)
        train = contaminate(generate_clean(TRAIN_ROWS, train_seed), CONTAMINATION, cont_seed)
        ids = [f"t{i}" for i in range(train.n)]
        self.curves = _write_tables(directory, "train_x", train.curves, train.grids, ids)
        self.response = os.path.join(directory, "train_y.csv")
        write_response(self.response, ids, train.y)
        self.contaminated = int(train.contamination_mask.sum())
        self.model = os.path.join(directory, "model.json")

    def fit(self) -> dict:
        code, text = _run_cli(["fit", "--method", "rfpls", "--curves", ",".join(self.curves),
                               "--response", self.response, "--max-components", "5",
                               "--cv-folds", "5", "--out", self.model])
        if code != 0:
            raise RuntimeError(f"rfpls fit exited with {code}")
        flagged = re.search(r"downweighted samples \(weight < 0\.5\): (\d+)", text)
        components = re.search(r"components=(\d+)", text)
        if flagged is None or components is None:
            raise RuntimeError("rfpls fit printed no robust summary")
        return {"downweighted": int(flagged.group(1)),
                "components": int(components.group(1))}

    def check_fit(self, summary: dict) -> list[str]:
        need = math.ceil(MIN_DOWNWEIGHTED_SHARE * self.contaminated)
        if summary["downweighted"] < need:
            return [f"{summary['downweighted']} rows downweighted, expected at least "
                    f"{need} of the {self.contaminated} contaminated"]
        return []


class PredictionSet:
    """Clean curves as CSVs with their responses; ``predict`` runs ``rfpls predict``."""

    def __init__(self, directory: str, seed: int, rows: int):
        os.makedirs(directory, exist_ok=True)
        new = generate_clean(rows, seed)
        self.curves = _write_tables(directory, "new_x", new.curves, new.grids,
                                    [f"p{i}" for i in range(new.n)])
        self.y = new.y
        self.out = os.path.join(directory, "predictions.csv")

    def predict(self, model: str) -> np.ndarray:
        code, _ = _run_cli(["predict", "--model", model, "--curves", ",".join(self.curves),
                            "--out", self.out])
        if code != 0:
            raise RuntimeError(f"rfpls predict exited with {code}")
        return _read_predictions(self.out)

    def check(self, pred: np.ndarray) -> list[str]:
        if pred.size != self.y.size or not np.isfinite(pred).all():
            return [f"expected {self.y.size} finite predictions"]
        mspe = _trimmed_mspe(self.y, pred)
        if mspe > MAX_CLEAN_TRIMMED_MSPE:
            return [f"trimmed MSPE {mspe:.4g} on clean curves exceeds "
                    f"{MAX_CLEAN_TRIMMED_MSPE}"]
        return []


class Workload:
    """An operation on seeded inputs; ``op`` returns ``(output, phase seconds)``."""

    name = ""
    period = 1  # ops cycle through this many distinct inputs

    def setup(self, seed: int, workdir: str, inputs=None) -> None:
        """Make the inputs from ``seed``: all of them, or only the indices in ``inputs``."""
        raise NotImplementedError

    def op(self, index: int, tracer=None):
        raise NotImplementedError

    def items(self) -> int:
        """Work items completed by one operation."""
        return 1

    def attempts(self) -> int:
        """Units counted in ``attempted`` per operation."""
        return 1

    def fingerprint(self, index: int, output):
        """The part of ``output`` kept in ``reference.json``."""
        raise NotImplementedError

    def exact(self, output):
        """A value equal for two outputs exactly when they are bit-identical."""
        raise NotImplementedError

    def check(self, index: int, output, reference) -> tuple[int, list[str]]:
        """Failed units and their reasons; ``reference`` may be None."""
        raise NotImplementedError


class MonteCarlo(Workload):
    """The acceptance Monte Carlo design, a fixed number of replications per op.

    Ops cycle through ``period`` experiment seeds made from the run seed,
    so a run times about as many distinct replications as fit in it.  A
    replication's cost varies by about 19% (one standard deviation) with
    its data, so one fixed batch would tie the run's figure to one draw.
    """

    name = "mc_robust"
    period = 16
    REPLICATIONS = 2
    METHODS = ("fpls", "rfpls")
    LEVELS = (0.0, 0.01, 0.05, 0.10)

    def setup(self, seed: int, workdir: str, inputs=None) -> None:
        self.configs = [ExperimentConfig(
            methods=self.METHODS, contamination_levels=self.LEVELS,
            replications=self.REPLICATIONS, n_train=200, n_test=200, num_basis=20,
            max_components=5, cv_folds=5, trim_alpha=TRIM_ALPHA,
            seed=experiment_seed, workers=nproc())
            for experiment_seed in _stream(seed, self.name, self.period)]

    def op(self, index: int, tracer=None, workers: int | None = None):
        config = self.configs[index % self.period]
        if workers is not None:
            config = replace(config, workers=workers)
        # Through the module, so a traced run sees the call.
        return simulation.run_experiment(config), {}

    def items(self) -> int:
        return self.REPLICATIONS

    def attempts(self) -> int:
        return self.REPLICATIONS * len(self.METHODS) * len(self.LEVELS)

    def fingerprint(self, index: int, output) -> dict:
        cells: dict[str, list[float]] = {}
        for r in output.rows:
            cells.setdefault(f"{r.method}|{r.level!r}|{r.metric}|{r.target}", []).append(r.value)
        return {key: float(np.median(vals)) for key, vals in sorted(cells.items())}

    def exact(self, output):
        return tuple(output.rows), tuple(output.failures)

    def check(self, index: int, output, reference) -> tuple[int, list[str]]:
        problems = [f"replication {f.replication} {f.method} level={f.level}: {f.message}"
                    for f in output.failures]
        failed = len(output.failures)
        medians = self.fingerprint(index, output)
        bad = [f"{key}: {v!r}" for key, v in medians.items()
               if not math.isfinite(v) or key.endswith("|chosen_h|") and not 1 <= v <= 5]
        bad += [f"{key}: trimmed MSPE {v:.4g} on clean test curves exceeds "
                f"{MAX_CLEAN_TRIMMED_MSPE}" for key, v in medians.items()
                if key.startswith("rfpls|") and "|trimmed_mspe|" in key
                and v > MAX_CLEAN_TRIMMED_MSPE]
        if reference is not None:
            for key, want in reference[index % self.period].items():
                got = medians.get(key)
                if got is None or not _close(got, want, max(abs(want), 1.0)):
                    bad.append(f"{key}: {got!r} vs reference {want!r}")
        problems += bad
        if bad:
            failed = self.attempts()
        return failed, problems


class CliFit(Workload):
    """``rfpls fit --method rfpls`` with CV over h = 1..5, then ``rfpls predict``.

    Each run makes ``period`` training sets from its seed and cycles
    through them.  Fit time depends on the data (a PRM loop that hits its
    iteration cap costs several times a converged one), so the median
    over several training sets is steadier than any one set's time.  A
    50 s run fits each set about nine times, so each set's fastest time
    is one that machine noise did not slow.
    """

    name = "cli_fit"
    period = 8

    def setup(self, seed: int, workdir: str, inputs=None) -> None:
        seeds = _stream(seed, self.name, 2 * self.period + 1)
        self.train = {k: TrainingSet(os.path.join(workdir, f"train{k}"), *seeds[2 * k:2 * k + 2])
                      for k in (range(self.period) if inputs is None else inputs)}
        self.new = PredictionSet(os.path.join(workdir, "new"), seeds[-1], PREDICT_ROWS)

    def op(self, index: int, tracer=None):
        train = self.train[index % self.period]
        start = time.perf_counter()
        with _span(tracer, "cli.main.fit"):
            summary = train.fit()
        middle = time.perf_counter()
        with _span(tracer, "cli.main.predict"):
            pred = self.new.predict(train.model)
        end = time.perf_counter()
        return {"pred": pred, **summary}, {"fit_s": middle - start, "predict_s": end - middle}

    def fingerprint(self, index: int, output) -> dict:
        return {"downweighted": output["downweighted"], "components": output["components"],
                "predictions": prediction_fingerprint(output["pred"])}

    def exact(self, output):
        return output["pred"].tobytes(), output["downweighted"], output["components"]

    def check(self, index: int, output, reference) -> tuple[int, list[str]]:
        problems = self.new.check(output["pred"])
        problems += self.train[index % self.period].check_fit(output)
        if reference is not None:
            want = reference[index % self.period]
            for key in ("downweighted", "components"):
                if output[key] != want[key]:
                    problems.append(f"{key}={output[key]} vs reference {want[key]}")
            problems += compare_predictions(prediction_fingerprint(output["pred"]),
                                            want["predictions"])
        return (1 if problems else 0), problems


class CliPredictBulk(Workload):
    """``rfpls predict`` of 2000 curves per predictor with a model saved at setup."""

    name = "cli_predict_bulk"

    def setup(self, seed: int, workdir: str, inputs=None) -> None:
        train_seed, cont_seed, new_seed = _stream(seed, self.name, 3)
        self.train = TrainingSet(os.path.join(workdir, "train"), train_seed, cont_seed)
        self.new = PredictionSet(os.path.join(workdir, "new"), new_seed, BULK_ROWS)
        self.train.fit()

    def op(self, index: int, tracer=None):
        with _span(tracer, "cli.main.predict"):
            pred = self.new.predict(self.train.model)
        return pred, {}

    def items(self) -> int:
        return BULK_ROWS

    def fingerprint(self, index: int, output) -> dict:
        return prediction_fingerprint(output)

    def exact(self, output):
        return output.tobytes()

    def check(self, index: int, output, reference) -> tuple[int, list[str]]:
        problems = self.new.check(output)
        if reference is not None:
            problems += compare_predictions(prediction_fingerprint(output), reference)
        return (1 if problems else 0), problems


def _span(tracer, name: str):
    """Inside a traced run, record the benchmark's own call into the CLI as a span."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


WORKLOADS = {w.name: w for w in (MonteCarlo, CliFit, CliPredictBulk)}
