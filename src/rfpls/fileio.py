"""CSV and model-file formats used by the command line tool.

Curve tables are CSV with header ``id,<t1>,<t2>,...`` where the numeric
header cells are the strictly increasing observation grid; each row is
one sample's curve.  Responses are two-column ``id,y`` files.  Models
are JSON documents with a schema version so older files fail loudly
rather than silently misload.
"""

from __future__ import annotations

import csv
import json
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .basis import build_bspline_system
from .errors import InputError
from .regression import _FITTERS, FittedSofr, RobustReport

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CurveTable:
    """Curves observed on a shared grid, with per-sample identifiers."""

    sample_ids: tuple[str, ...]
    grid: np.ndarray
    values: np.ndarray


def _parse_float(text: str, path: str, line: int, column: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"{path}: line {line}, column {column}: "
                         f"{text!r} is not a number") from None
    if not np.isfinite(value):
        raise InputError(f"{path}: line {line}, column {column}: "
                         f"{text!r} is not finite")
    return value


def _parse_cells(path: str, rows: list[tuple[int, list[str]]], start: int) -> np.ndarray:
    """Cells ``start:`` of equally wide numbered rows as a 2-D array of finite floats.

    The whole table goes through Python's ``float`` in one pass, so the
    values are the bits a per-cell parse gives.  Only a table with a bad
    cell is parsed again cell by cell, which names the first bad cell in
    row-major order.
    """
    shape = (len(rows), len(rows[0][1]) - start)
    cells = chain.from_iterable(row[start:] for _, row in rows)
    try:
        values = np.fromiter(map(float, cells), float, shape[0] * shape[1])
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        values = np.array([[_parse_float(cell, path, i, j + start + 1)
                            for j, cell in enumerate(row[start:])] for i, row in rows])
    return values.reshape(shape)


@contextmanager
def _open_output(path: str, newline: str | None = None):
    """Open ``path`` to write UTF-8 text, overwriting an existing file in place.

    ext4 (``auto_da_alloc``) writes a file back at close when it was
    truncated to zero length and rewritten, which costs tens of
    milliseconds per overwrite.  So the file is opened without
    ``O_TRUNC``, and a regular file is cut at the end of what was written
    when the block exits, also on an error; a cut above zero length does
    not trigger the writeback.  It stays the same file: its mode, hard
    links, write protection and symlinks behave as with ``open(path, "w")``.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    regular = stat.S_ISREG(os.fstat(fd).st_mode)
    with open(fd, "w", encoding="utf-8", newline=newline) as handle:
        try:
            yield handle
        finally:
            try:
                handle.flush()
            finally:
                if regular:
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _read_rows(path: str) -> tuple[list[str], tuple[str, ...], list[tuple[int, list[str]]]]:
    """Header, sample ids and numbered data rows of a CSV table.

    Blank rows are skipped.  Every data row must have as many cells as
    the header, and the ids in the first cells must be unique.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise InputError(f"{path}: file is empty")
    header = rows[0]
    body = [(i, row) for i, row in enumerate(rows[1:], start=2)
            if any(cell.strip() for cell in row)]
    for i, row in body:
        if len(row) != len(header):
            raise InputError(f"{path}: line {i}: expected {len(header)} cells, "
                             f"got {len(row)}")
    ids = tuple(row[0].strip() for _, row in body)
    if not ids:
        raise InputError(f"{path}: no data rows")
    if len(set(ids)) != len(ids):
        raise InputError(f"{path}: sample ids are not unique")
    return header, ids, body


def read_curves(path: str) -> CurveTable:
    """Read one predictor's curve table."""
    header, ids, body = _read_rows(path)
    if len(header) < 3:
        raise InputError(f"{path}: need a header 'id,<t1>,<t2>,...' with at "
                         "least 2 grid points")
    if header[0].strip() != "id":
        raise InputError(f"{path}: first header cell must be 'id', got {header[0]!r}")
    grid = _parse_cells(path, [(1, header)], 1)[0]
    if (np.diff(grid) <= 0).any():
        raise InputError(f"{path}: grid header values must be strictly increasing")
    return CurveTable(sample_ids=ids, grid=grid, values=_parse_cells(path, body, 1))


def write_curves(path: str, table: CurveTable) -> None:
    with _open_output(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id"] + [repr(float(t)) for t in table.grid])
        for sid, row in zip(table.sample_ids, table.values):
            writer.writerow([sid] + [repr(float(v)) for v in row])


def read_response(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Read an ``id,y`` response table."""
    header, ids, body = _read_rows(path)
    if [cell.strip() for cell in header] != ["id", "y"]:
        raise InputError(f"{path}: header must be 'id,y', got {','.join(header)!r}")
    return ids, _parse_cells(path, body, 1).ravel()


def write_response(path: str, ids, y: np.ndarray) -> None:
    with _open_output(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "y"])
        for sid, value in zip(ids, y):
            writer.writerow([sid, repr(float(value))])


def write_predictions(path: str, ids, predictions: np.ndarray) -> None:
    with _open_output(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sample_id", "prediction"])
        for sid, value in zip(ids, predictions):
            writer.writerow([sid, repr(float(value))])


def save_model(path: str, fit: FittedSofr) -> None:
    """Serialize a fitted model (basis layout, coefficients, diagnostics)."""
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "method": fit.method,
        "h": fit.h,
        "intercept": fit.intercept,
        "predictors": [
            {"domain": [s.domain[0], s.domain[1]], "num_basis": s.num_basis,
             "order": s.order}
            for s in fit.systems
        ],
        "beta_coefs": [float(v) for v in fit.beta_coefs],
        "robust": None,
    }
    if fit.robust_report is not None:
        rep = fit.robust_report
        doc["robust"] = {
            "weights": [float(w) for w in rep.weights],
            "c": rep.c,
            "prm_iterations": rep.prm_iterations,
            "prm_converged": rep.prm_converged,
            "m_iterations": rep.m_iterations,
            "m_converged": rep.m_converged,
            "scale": rep.scale,
        }
    with _open_output(path) as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def _is_int(value) -> bool:
    """True for a JSON integer; ``true`` and ``2.0`` are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _domain(path: str, value) -> tuple[float, float]:
    """A predictor domain, which ``save_model`` writes as two JSON numbers."""
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise InputError(f"{path}: a predictor domain must be two numbers [a, b], "
                         f"got {value!r}")
    return value[0], value[1]


def _check_robust(path: str, rep: RobustReport, h: int) -> None:
    """Reject diagnostics that no robust fit can have produced."""
    w = rep.weights
    if w.ndim != 1 or w.size < h + 2:
        raise InputError(f"{path}: robust weights need one entry per training "
                         f"sample, at least h + 2 = {h + 2}; got shape {w.shape}")
    if not (np.isfinite(w).all() and ((w >= 0.0) & (w <= 1.0)).all()):
        raise InputError(f"{path}: robust weights must be finite and in [0, 1]")
    if not (np.isfinite(rep.c) and rep.c > 0.0):
        raise InputError(f"{path}: robust c must be finite and positive, got {rep.c}")
    if not (np.isfinite(rep.scale) and rep.scale >= 0.0):
        raise InputError(f"{path}: robust scale must be finite and nonnegative, "
                         f"got {rep.scale}")
    for name in ("prm_iterations", "m_iterations"):
        count = getattr(rep, name)
        if not _is_int(count) or count < 1:
            raise InputError(f"{path}: robust {name} must be an integer of at "
                             f"least 1, got {count!r}")
    for name in ("prm_converged", "m_converged"):
        flag = getattr(rep, name)
        if not isinstance(flag, bool):
            raise InputError(f"{path}: robust {name} must be true or false, "
                             f"got {flag!r}")


def load_model(path: str) -> FittedSofr:
    """Rebuild a fitted model saved by ``save_model``.

    Values that no fit can produce are rejected.  The Gram geometry is
    not stored: predictions derive it from the basis layout.
    """
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not a model file ({exc})") from None
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise InputError(f"{path}: not a model file (missing schema_version)")
    if doc["schema_version"] != MODEL_SCHEMA_VERSION:
        raise InputError(f"{path}: model schema version {doc['schema_version']} "
                         f"is not supported (expected {MODEL_SCHEMA_VERSION})")
    try:
        systems = tuple(
            build_bspline_system(_domain(path, p["domain"]), p["num_basis"], p["order"])
            for p in doc["predictors"]
        )
        beta = np.asarray(doc["beta_coefs"], dtype=float)
        report = None
        if doc.get("robust") is not None:
            rb = doc["robust"]
            report = RobustReport(weights=np.asarray(rb["weights"], dtype=float),
                                  c=float(rb["c"]),
                                  prm_iterations=rb["prm_iterations"],
                                  prm_converged=rb["prm_converged"],
                                  m_iterations=rb["m_iterations"],
                                  m_converged=rb["m_converged"],
                                  scale=float(rb["scale"]))
        method = doc["method"]
        h = doc["h"]
        intercept = float(doc["intercept"])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise InputError(f"{path}: malformed model file ({exc!r})") from None
    if not isinstance(method, str) or method not in _FITTERS:
        raise InputError(f"{path}: unknown method {method!r}")
    total = sum(s.num_basis for s in systems)
    if beta.size != total:
        raise InputError(f"{path}: coefficient length {beta.size} does not match "
                         f"the basis layout ({total})")
    if not np.isfinite(beta).all():
        raise InputError(f"{path}: beta_coefs must be finite")
    if not np.isfinite(intercept):
        raise InputError(f"{path}: intercept must be finite, got {intercept}")
    if not _is_int(h):
        raise InputError(f"{path}: h must be an integer, got {h!r}")
    if h < 1:
        raise InputError(f"{path}: h must be at least 1, got {h}")
    if h > total:
        raise InputError(f"{path}: h = {h} exceeds the {total} basis functions")
    if report is not None:
        if method != "rfpls":
            raise InputError(f"{path}: a {method} model has no robust block")
        _check_robust(path, report, h)
    elif method == "rfpls":
        raise InputError(f"{path}: an rfpls model needs its robust block")
    return FittedSofr(method=method, systems=systems, beta_coefs=beta,
                      intercept=intercept, h=h, robust_report=report)
