"""Command line tool: fit, predict, cv and simulate subcommands.

Exit codes: 0 on success, 2 for unusable input (files, tables, flags),
3 for numerical breakdown during estimation, 4 for a bad experiment
configuration.  Errors are reported as a single stderr line of the form
``rfpls: <kind> error: <message>``.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import fields, replace

import numpy as np

from .basis import build_bspline_system, build_design
from .errors import ConfigError, InputError, NumericalError, SpatialMedianCapWarning
from .evaluation import select_num_components
from .fileio import (_open_input, _write_table, load_model, read_curves, read_response,
                     save_model, write_predictions)
from .regression import _FITTERS, predict


def _config_parser(default):
    """Parser of an INI value into the type of an ``ExperimentConfig`` default.

    Tuple fields are comma-separated lists of their first item's type.
    """
    if isinstance(default, tuple):
        item = type(default[0])
        return lambda s: tuple(item(part.strip()) for part in s.split(",") if part.strip())
    return type(default)


def _load_tables(curves_arg: str):
    paths = [p.strip() for p in curves_arg.split(",") if p.strip()]
    if not paths:
        raise InputError("--curves needs at least one file")
    tables = [read_curves(p) for p in paths]
    ids = tables[0].sample_ids
    for path, table in zip(paths[1:], tables[1:]):
        if table.sample_ids != ids:
            raise InputError(f"{path}: sample ids differ from {paths[0]}")
    return paths, tables, ids


def _build_cli_design(tables, num_basis: int):
    systems = [build_bspline_system((float(t.grid[0]), float(t.grid[-1])), num_basis)
               for t in tables]
    return build_design([t.values for t in tables], [t.grid for t in tables], systems)


def _match_response(ids, response_path: str):
    resp_ids, y = read_response(response_path)
    if resp_ids != ids:
        raise InputError(f"{response_path}: sample ids differ from the curve tables")
    return y


@contextmanager
def _median_caps_counted():
    """Report the spatial medians stopped at their iteration cap as one
    ``rfpls: warning:`` line with their count, not as a warning each; show
    every other warning as Python shows it."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", SpatialMedianCapWarning)
            yield
    finally:
        capped = 0
        for w in caught:
            if issubclass(w.category, SpatialMedianCapWarning):
                capped += 1
            else:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
        if capped:
            print(f"rfpls: warning: spatial median stopped at its iteration cap in {capped} "
                  f"call{'s' if capped > 1 else ''}", file=sys.stderr)


def _print_cv_table(report) -> None:
    for h, score in zip(report.grid, report.scores):
        marker = "  <- chosen" if h == report.chosen_h else ""
        shown = "failed" if not np.isfinite(score) else f"{score:.6g}"
        print(f"  h={h}  trimmed_mspe={shown}{marker}")
    if report.skipped:
        cells = " ".join(f"(h={h},fold={k})" for h, k in report.skipped)
        print(f"  skipped cells: {cells}")


@_median_caps_counted()
def cmd_fit(args) -> int:
    _, tables, ids = _load_tables(args.curves)
    y = _match_response(ids, args.response)
    design = _build_cli_design(tables, args.num_basis)
    report = None
    if args.components is not None:
        if args.components < 1:
            raise InputError(f"--components must be at least 1, got {args.components}")
        h = args.components
    else:
        report = select_num_components(design, y, args.max_components,
                                       folds=args.cv_folds, alpha=args.trim_alpha,
                                       method=args.method, seed=args.seed)
        h = report.chosen_h
    fit = _FITTERS[args.method](design, y, h)
    if fit.h < h:
        print(f"rfpls: warning: extracted {fit.h} of the {h} components asked for",
              file=sys.stderr)
    save_model(args.out, fit)
    print(f"method={fit.method} samples={design.n} predictors={len(tables)} "
          f"num_basis={args.num_basis} components={fit.h}")
    if report is not None:
        print(f"cross-validated over h=1..{args.max_components} "
              f"({report.folds} folds, trim alpha={report.alpha}):")
        _print_cv_table(report)
    print(f"intercept={fit.intercept:.6g}")
    if fit.robust_report is not None:
        rep = fit.robust_report
        print(f"robust: c={rep.c:.3g} reweighting_iterations={rep.prm_iterations} "
              f"converged={rep.prm_converged} m_iterations={rep.m_iterations} "
              f"m_converged={rep.m_converged} scale={rep.scale:.6g}")
        for stage, iterations, converged in (
                ("reweighting", rep.prm_iterations, rep.prm_converged),
                ("M-step", rep.m_iterations, rep.m_converged)):
            if not converged:
                print(f"rfpls: warning: {stage} stopped at its iteration cap "
                      f"({iterations}) without converging", file=sys.stderr)
        flagged = [ids[i] for i in np.flatnonzero(rep.weights < 0.5)]
        print(f"downweighted samples (weight < 0.5): {len(flagged)}"
              + (" [" + " ".join(flagged) + "]" if flagged else ""))
    print(f"model written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    fit = load_model(args.model)
    paths, tables, ids = _load_tables(args.curves)
    if len(tables) != len(fit.systems):
        raise InputError(f"model expects {len(fit.systems)} curve files, "
                         f"got {len(tables)}")
    preds = predict(fit, [t.values for t in tables], [t.grid for t in tables])
    write_predictions(args.out, ids, preds)
    print(f"wrote {preds.size} predictions to {args.out}")
    return 0


@_median_caps_counted()
def cmd_cv(args) -> int:
    _, tables, ids = _load_tables(args.curves)
    y = _match_response(ids, args.response)
    design = _build_cli_design(tables, args.num_basis)
    report = select_num_components(design, y, args.max_components,
                                   folds=args.folds, alpha=args.trim_alpha,
                                   method=args.method, seed=args.seed)
    print(f"method={args.method} samples={design.n} folds={report.folds} "
          f"trim_alpha={report.alpha}")
    _print_cv_table(report)
    print(f"chosen_h={report.chosen_h}")
    if args.out:
        _write_table(args.out, ["h", "trimmed_mspe"], zip(report.grid, report.scores.tolist()))
        print(f"scores written to {args.out}")
    return 0


def load_experiment_config(path: str) -> ExperimentConfig:
    """Parse an INI experiment file with a single [experiment] section."""
    import configparser  # here and not at the top, so that fit, predict and cv start faster
    from .simulation import ExperimentConfig
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with _open_input(path) as handle:
            parser.read_file(handle, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if "experiment" not in parser:
        raise ConfigError(f"{path}: missing [experiment] section")
    items = dict(parser["experiment"])
    parsers = {f.name: _config_parser(f.default) for f in fields(ExperimentConfig)}
    unknown = sorted(set(items) - set(parsers))
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    kwargs = {}
    for key, raw in items.items():
        try:
            kwargs[key] = parsers[key](raw)
        except ValueError:
            raise ConfigError(f"{path}: invalid value for {key}: {raw!r}") from None
    return ExperimentConfig(**kwargs)


def cmd_simulate(args) -> int:
    from .simulation import run_experiment
    config = load_experiment_config(args.config)
    if args.workers is not None:
        config = replace(config, workers=args.workers)
    result = run_experiment(config)
    result.write_csv(args.out)
    base, ext = os.path.splitext(args.out)
    summary_path = f"{base}_summary{ext or '.csv'}"
    result.write_summary_csv(summary_path)
    cells = (len(config.methods) * len(config.contamination_levels)
             * config.replications)
    print(f"replications={config.replications} workers={config.workers} "
          f"completed_cells={cells - len(result.failures)}/{cells}")
    print(f"results written to {args.out}")
    print(f"summary written to {summary_path}")
    for failure in result.failures:
        print(f"rfpls: warning: replication {failure.replication} "
              f"method={failure.method} level={failure.level}: {failure.message}",
              file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfpls",
        description="Scalar-on-function regression with classical and robust "
                    "partial least squares.")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--method", required=True, choices=sorted(_FITTERS))
    shared.add_argument("--curves", required=True,
                        help="comma-separated curve CSV files, one per predictor")
    shared.add_argument("--response", required=True, help="response CSV file (id,y)")
    shared.add_argument("--num-basis", type=int, default=20)
    shared.add_argument("--max-components", type=int, default=5)
    shared.add_argument("--trim-alpha", type=float, default=0.1)
    shared.add_argument("--seed", type=int, default=0, help="fold-assignment seed")

    fit = sub.add_parser("fit", parents=[shared],
                         help="fit a model from curve and response tables")
    fit.add_argument("--components", type=int, default=None,
                     help="fixed component count (skips cross-validation)")
    fit.add_argument("--cv-folds", type=int, default=5)
    fit.add_argument("--out", required=True, help="model output path")
    fit.set_defaults(func=cmd_fit)

    pred = sub.add_parser("predict", help="predict responses for new curves")
    pred.add_argument("--model", required=True)
    pred.add_argument("--curves", required=True)
    pred.add_argument("--out", required=True)
    pred.set_defaults(func=cmd_predict)

    cv = sub.add_parser("cv", parents=[shared], help="cross-validate the component count")
    cv.add_argument("--folds", type=int, default=5)
    cv.add_argument("--out", default=None, help="optional per-h score CSV")
    cv.set_defaults(func=cmd_cv)

    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    sim.add_argument("--config", required=True, help="experiment INI file")
    sim.add_argument("--out", required=True, help="results CSV path")
    sim.add_argument("--workers", type=int, default=None,
                     help="override the worker count from the config")
    sim.set_defaults(func=cmd_simulate)
    return parser


def _fail(code: int, kind: str, exc: Exception) -> int:
    message = " ".join(str(exc).split())
    print(f"rfpls: {kind} error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        return _fail(2, "input", exc)
    except ConfigError as exc:
        return _fail(4, "config", exc)
    except NumericalError as exc:
        return _fail(3, "numerical", exc)
    except (ValueError, OSError) as exc:
        return _fail(2, "input", exc)


if __name__ == "__main__":
    sys.exit(main())
