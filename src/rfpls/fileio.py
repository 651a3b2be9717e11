"""File formats, and every open of a file the package reads or writes.

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
import reprlib
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from .basis import BasisSystem, _finite
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
def _open_input(path: str):
    """Open ``path`` to stream UTF-8 text, ignoring a leading byte-order mark.

    Failing to open, read or decode it, also inside the block, raises
    ``InputError`` naming the path."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            yield handle
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


@contextmanager
def _open_output(path: str):
    """Open ``path`` to write UTF-8 text, overwriting an existing file in place.

    ext4 (``auto_da_alloc``) writes a file back at close when it was
    truncated to zero length and rewritten, which costs tens of
    milliseconds per overwrite.  So the file is opened without
    ``O_TRUNC``, and a regular file is cut at the end of what was written
    when the block exits, also on an error; a cut above zero length does
    not trigger the writeback.  It stays the same file: its mode, hard
    links, write protection and symlinks behave as with ``open(path, "w")``.
    Newlines are written as given, so the bytes are the same on every platform.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    regular = stat.S_ISREG(os.fstat(fd).st_mode)
    with open(fd, "w", encoding="utf-8", newline="") as handle:
        try:
            yield handle
        finally:
            try:
                handle.flush()
            finally:
                if regular:
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _write_table(path: str, header, rows) -> None:
    """Write a CSV table.  Float cells must be Python floats, as ``tolist()``
    gives them: ``csv`` writes their shortest repr, which reads back bit for bit."""
    with _open_output(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _read_rows(path: str) -> tuple[list[str], tuple[str, ...], list[tuple[int, list[str]]]]:
    """Header, sample ids and numbered data rows of a CSV table.

    Blank rows are skipped.  Every data row must have as many cells as
    the header, and the ids in the first cells must be unique.
    """
    with _open_input(path) as handle:
        rows = list(csv.reader(handle))
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
    values = np.asarray(table.values, dtype=float).tolist()
    _write_table(path, ["id", *np.asarray(table.grid, dtype=float).tolist()],
                 ([sid, *row] for sid, row in zip(table.sample_ids, values)))


def read_response(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Read an ``id,y`` response table."""
    header, ids, body = _read_rows(path)
    if [cell.strip() for cell in header] != ["id", "y"]:
        raise InputError(f"{path}: header must be 'id,y', got {','.join(header)!r}")
    return ids, _parse_cells(path, body, 1).ravel()


def write_response(path: str, ids, y: np.ndarray) -> None:
    _write_table(path, ["id", "y"], zip(ids, np.asarray(y, dtype=float).tolist()))


def write_predictions(path: str, ids, predictions: np.ndarray) -> None:
    _write_table(path, ["sample_id", "prediction"],
                 zip(ids, np.asarray(predictions, dtype=float).tolist()))


class _Type(NamedTuple):
    """A JSON type: its name in messages, its test, and the conversion on load."""

    name: str
    check: Callable[[object], bool]
    load: Callable = lambda value: value


# JSON numbers decode to exactly int or float, so ``true`` is not a number.
_NUMBER = _Type("a number", lambda v: type(v) in (int, float), float)
_COUNT = _Type("an integer", lambda v: type(v) is int)
_BOOLEAN = _Type("true or false", lambda v: type(v) is bool)
_STRING = _Type("a string", lambda v: type(v) is str)
_NUMBERS = _Type("a list of numbers", lambda v: type(v) is list and all(map(_NUMBER.check, v)),
                 lambda v: np.array(v, dtype=float))
_INTERVAL = _Type("two numbers [a, b]", lambda v: _NUMBERS.check(v) and len(v) == 2, tuple)
_OBJECTS = _Type("a list of objects", lambda v: type(v) is list and all(type(p) is dict for p in v))
_OBJECT_OR_NULL = _Type("an object or null", lambda v: v is None or type(v) is dict)


class _Key(NamedTuple):
    """A key of a model-file block, the rule its value meets beyond its type
    and the message if not, and the attribute that holds it if not ``name``."""

    name: str
    type: _Type
    ok: Callable[[object], bool] = lambda value: True
    rule: str = ""
    attr: str | None = None


_must = "{{key}} must be {}, got {{value}}".format

# The model file, declared once: ``save_model`` writes these keys in this order and
# ``load_model`` checks every value before it uses any.  The predictor and robust
# blocks hold the fields of ``BasisSystem`` and ``RobustReport``.
_PREDICTOR = (_Key("domain", _INTERVAL), _Key("num_basis", _COUNT), _Key("order", _COUNT))
_ROBUST = (
    _Key("weights", _NUMBERS, lambda v: all(_finite(w) and 0 <= w <= 1 for w in v),
         _must("finite and in [0, 1]")),
    _Key("c", _NUMBER, lambda v: _finite(v) and v > 0, _must("finite and positive")),
    _Key("prm_iterations", _COUNT, lambda v: v >= 1, _must("at least 1")),
    _Key("prm_converged", _BOOLEAN),
    _Key("m_iterations", _COUNT, lambda v: v >= 1, _must("at least 1")),
    _Key("m_converged", _BOOLEAN),
    _Key("scale", _NUMBER, lambda v: _finite(v) and v >= 0, _must("finite and nonnegative")),
)
_MODEL = (
    _Key("method", _STRING, _FITTERS.__contains__, "unknown {key} {value}"),
    _Key("h", _COUNT, lambda v: v >= 1, _must("at least 1")),
    _Key("intercept", _NUMBER, _finite, _must("finite")),
    _Key("predictors", _OBJECTS, attr="systems"),
    _Key("beta_coefs", _NUMBERS, lambda v: all(map(_finite, v)), _must("finite")),
    _Key("robust", _OBJECT_OR_NULL, attr="robust_report"),
)
_VERSION = _Key("schema_version", _COUNT, lambda v: v == MODEL_SCHEMA_VERSION,
                f"unsupported model schema version {{value}} (expected {MODEL_SCHEMA_VERSION})")
_BLOCKS = {FittedSofr: _MODEL, BasisSystem: _PREDICTOR, RobustReport: _ROBUST}


def _to_json(obj):
    """The JSON form of a model, of one of its blocks or of an array in one."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return {key.name: getattr(obj, key.attr or key.name) for key in _BLOCKS[type(obj)]}


def _read(path: str, where: str, block: dict, keys=_MODEL) -> dict:
    """The checked values of one block, converted from JSON, by attribute name."""
    values = {}
    for key in keys:
        name = where + key.name
        if key.name not in block:
            raise InputError(f"{path}: malformed model file: {name} is missing")
        value = block[key.name]
        for test, rule in ((key.type.check, _must(key.type.name)), (key.ok, key.rule)):
            if not test(value):
                raise InputError(f"{path}: " + rule.format(key=name, value=reprlib.repr(value)))
        values[key.attr or key.name] = key.type.load(value)
    return values


def save_model(path: str, fit: FittedSofr) -> None:
    """Serialize a fitted model (basis layout, coefficients, diagnostics)."""
    doc = {"schema_version": MODEL_SCHEMA_VERSION, **_to_json(fit)}
    with _open_output(path) as handle:
        json.dump(doc, handle, indent=2, default=_to_json)
        handle.write("\n")


def load_model(path: str) -> FittedSofr:
    """Rebuild a fitted model saved by ``save_model``.

    Values that no fit can produce are rejected.  The Gram geometry is
    not stored: predictions derive it from the basis layout.
    """
    try:
        with _open_input(path) as handle:
            doc = json.load(handle)
    except ValueError as exc:  # not JSON; a decoding error is an InputError already
        raise InputError(f"{path}: not a model file ({exc})") from None
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise InputError(f"{path}: not a model file (missing schema_version)")
    _read(path, "", doc, (_VERSION,))
    top = _read(path, "", {"robust": None, **doc})
    layout = [_read(path, f"predictors[{i}].", p, _PREDICTOR)
              for i, p in enumerate(top["systems"])]
    method, h, total = top["method"], top["h"], sum(p["num_basis"] for p in layout)
    # Checked before any BasisSystem is built: building one lays out its
    # num_basis knots, so a file's claimed count is bounded by its coefficients.
    if top["beta_coefs"].size != total:
        raise InputError(f"{path}: coefficient length {top['beta_coefs'].size} does not "
                         f"match the basis layout ({total})")
    systems = []
    for i, p in enumerate(layout):
        try:
            systems.append(BasisSystem(**p))
        except ValueError as exc:
            raise InputError(f"{path}: predictors[{i}].{exc}") from None
    rb = top["robust_report"]
    report = None if rb is None else RobustReport(**_read(path, "robust.", rb, _ROBUST))
    if h > total:
        raise InputError(f"{path}: h = {h} exceeds the {total} basis functions")
    if (report is None) == (method == "rfpls"):
        raise InputError(f"{path}: an rfpls model needs its robust block" if report is None
                         else f"{path}: a {method} model has no robust block")
    if report is not None and report.weights.size < h + 2:
        raise InputError(f"{path}: robust weights need one entry per training sample, "
                         f"at least h + 2 = {h + 2}; got {report.weights.size}")
    return FittedSofr(**{**top, "systems": tuple(systems), "robust_report": report})
