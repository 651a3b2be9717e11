"""CSV table formats, output files and the JSON model file."""

import ast
import json
import os
import re
import tracemalloc
from dataclasses import astuple, fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rfpls
from rfpls import cli, fileio
from rfpls.basis import BasisSystem, build_bspline_system, build_design, evaluate_basis
from rfpls.cli import main
from rfpls.errors import InputError
from rfpls.evaluation import CVReport
from rfpls.fileio import (CurveTable, load_model, read_curves, read_response,
                          save_model, write_curves, write_predictions,
                          write_response)
from rfpls.regression import (_FITTERS, FittedSofr, RobustReport, fit_fpls, fit_rfpls,
                              predict_from_design)
from rfpls.simulation import ExperimentConfig, ExperimentResult, ResultRow


class TestCurveTables:
    def test_round_trip_is_exact(self, tmp_path):
        """repr-formatted floats survive a write/read cycle bitwise."""
        rng = np.random.default_rng(0)
        table = CurveTable(sample_ids=("a", "b", "c"),
                           grid=np.linspace(0.0, 1.0, 7),
                           values=rng.normal(size=(3, 7)))
        path = tmp_path / "curves.csv"
        write_curves(path, table)
        back = read_curves(path)
        assert back.sample_ids == table.sample_ids
        np.testing.assert_array_equal(back.grid, table.grid)
        np.testing.assert_array_equal(back.values, table.values)

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,0.0,1.0\n\nu,1,2\n,,\nv,3,4\n")
        table = read_curves(path)
        assert table.sample_ids == ("u", "v")
        np.testing.assert_array_equal(table.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_error_messages_locate_the_cell(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,0.0,1.0\nu,1,oops\n")
        with pytest.raises(InputError, match=r"line 2, column 3"):
            read_curves(path)

    @pytest.mark.parametrize("text,pattern", [
        ("", "empty"),
        ("id,0.5\nu,1\n", "at least 2 grid points"),
        ("time,0.0,1.0\nu,1,2\n", "must be 'id'"),
        ("id,0.0,x\nu,1,2\n", "not a number"),
        ("id,1.0,0.5\nu,1,2\n", "strictly increasing"),
        ("id,0.0,1.0\nu,1\n", "expected 3 cells"),
        ("id,0.0,1.0\n", "no data rows"),
        ("id,0.0,1.0\nu,1,2\nu,3,4\n", "not unique"),
        ("id,0.0,inf\nu,1,2\n", "not finite"),
    ])
    def test_malformed_tables_rejected(self, tmp_path, text, pattern):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=pattern):
            read_curves(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="nope.csv"):
            read_curves(str(tmp_path / "nope.csv"))

    def test_byte_order_mark_is_ignored(self, tmp_path):
        """Spreadsheet exports often start with a UTF-8 byte-order mark."""
        path = tmp_path / "c.csv"
        path.write_bytes(b"\xef\xbb\xbfid,0.0,0.5,1.0\nu,1,2,3\nv,4,5,6\nw,7,8,9\n")
        table = read_curves(path)
        assert table.sample_ids == ("u", "v", "w")
        np.testing.assert_array_equal(table.grid, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(table.values, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])


    def test_input_that_is_not_utf8_is_named(self, tmp_path):
        """CSV input is read as UTF-8; a Latin-1 export fails with its path."""
        path = tmp_path / "latin1.csv"
        path.write_bytes("id,0.0,1.0\ncaf\u00e9,1,2\n".encode("latin-1"))
        with pytest.raises(InputError, match=r"latin1\.csv: not UTF-8 text"):
            read_curves(path)


class TestResponseTables:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "y.csv"
        y = np.array([0.25, -1.75, 3.5])
        write_response(path, ("a", "b", "c"), y)
        ids, back = read_response(path)
        assert ids == ("a", "b", "c")
        np.testing.assert_array_equal(back, y)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_bytes(b"\xef\xbb\xbfid,y\na,0.25\nb,-1.75\n")
        ids, y = read_response(path)
        assert ids == ("a", "b")
        np.testing.assert_array_equal(y, [0.25, -1.75])

    @pytest.mark.parametrize("text,pattern", [
        ("id,value\na,1\n", "header must be 'id,y'"),
        ("id,y\na,1,2\n", "expected 2 cells"),
        ("id,y\na,what\n", "not a number"),
        ("id,y\na,1\na,2\n", "not unique"),
        ("id,y\n", "no data rows"),
    ])
    def test_malformed_responses_rejected(self, tmp_path, text, pattern):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=pattern):
            read_response(path)

    def test_predictions_format(self, tmp_path):
        path = tmp_path / "pred.csv"
        write_predictions(path, ("s1", "s2"), np.array([1.5, -0.5]))
        assert path.read_text() == "sample_id,prediction\ns1,1.5\ns2,-0.5\n"


_TABLE_BYTES = {
    "curves": b"id,0.0,0.1,0.5,1.0\r\na,0.1,-0.1,1e-300,1.1\r\nb,-0.0,0.0,-0.0,1.0\r\n"
              b"c,1e-300,-1e-300,0.1,1.0\r\n",
    "response": b"id,y\r\na,0.1\r\nb,-0.0\r\nc,1e-300\r\n",
    "predictions": b"sample_id,prediction\r\na,0.1\r\nb,-0.0\r\nc,1e-300\r\n",
    "scores": b"h,trimmed_mspe\r\n1,0.1\r\n2,-0.0\r\n3,1e-300\r\n4,inf\r\n",
    "results": b"replication,method,level,metric,target,value\r\n"
               b"0,fpls,0.1,trimmed_mspe,,0.1\r\n0,fpls,0.1,risee,beta1,-0.0\r\n"
               b"1,fpls,0.1,risee,beta1,1e-300\r\n0,rfpls,0.0,chosen_h,,2.0\r\n",
    "summary": b"method,level,metric,target,median,replications\r\n"
               b"fpls,0.1,risee,beta1,5e-301,2\r\nfpls,0.1,trimmed_mspe,,0.1,1\r\n"
               b"rfpls,0.0,chosen_h,,2.0,1\r\n",
}


class TestTableBytes:
    def test_every_table_keeps_its_bytes(self, tmp_path, monkeypatch, capsys):
        """All six CSV tables write a float as the shortest repr that reads back
        bit for bit, -0.0, 1e-300 and inf included, and an integer level as a float."""
        ids, v = ("a", "b", "c"), np.array([0.1, -0.0, 1e-300])
        write_curves(tmp_path / "curves.csv", CurveTable(
            ids, np.array([0.0, 0.1, 0.5, 1.0]), np.column_stack([v, -v, v[::-1], v + 1])))
        write_response(tmp_path / "response.csv", ids, v)
        write_predictions(tmp_path / "predictions.csv", ids, v)
        report = CVReport(grid=(1, 2, 3, 4), scores=np.array([0.1, -0.0, 1e-300, np.inf]),
                          chosen_h=3, folds=2, alpha=0.1, skipped=((4, 0), (4, 1)))
        monkeypatch.setattr(cli, "select_num_components", lambda *args, **kwargs: report)
        assert main(["cv", "--method", "fpls", "--curves", str(tmp_path / "curves.csv"),
                     "--response", str(tmp_path / "response.csv"), "--num-basis", "4",
                     "--out", str(tmp_path / "scores.csv")]) == 0
        capsys.readouterr()
        result = ExperimentResult(ExperimentConfig(), [
            ResultRow(0, "fpls", 0.1, "trimmed_mspe", "", 0.1),
            ResultRow(0, "fpls", 0.1, "risee", "beta1", -0.0),
            ResultRow(1, "fpls", 0.1, "risee", "beta1", 1e-300),
            ResultRow(0, "rfpls", 0, "chosen_h", "", 2.0)])
        result.write_csv(tmp_path / "results.csv")
        result.write_summary_csv(tmp_path / "summary.csv")
        assert {name: (tmp_path / f"{name}.csv").read_bytes()
                for name in _TABLE_BYTES} == _TABLE_BYTES


def _per_cell(path, cells):
    """Reference parse of a table's numeric cells, header row first, one
    ``float`` per cell: the values, or the message naming the first bad cell."""
    values = []
    for line, row in enumerate(cells, start=1):
        values.append([])
        for column, text in enumerate(row, start=2):
            try:
                value = float(text)
            except ValueError:
                return f"{path}: line {line}, column {column}: {text!r} is not a number"
            if not np.isfinite(value):
                return f"{path}: line {line}, column {column}: {text!r} is not finite"
            values[-1].append(value)
    return np.array(values, dtype=float)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_CELLS = st.one_of(
    _FINITE.map(repr),
    st.floats(-1e300, 1e300).map("{:.3e}".format),
    st.integers(-10**20, 10**20).map(str),
    st.integers(0, 10**12).map("+{:_}".format),
    _FINITE.map(lambda v: f"  {v!r} "),
    _FINITE.map(lambda v: "+" + repr(abs(v))),
    st.integers(-2**52 + 1, 2**52 - 1).map(lambda k: repr(k * 5e-324)),
)
_GRID_FORMS = st.sampled_from([str, "{:.3e}".format, " +{} ".format, "{}.0".format,
                               "{:_}".format])
_BAD_CELLS = st.sampled_from(["nan", "NaN", "inf", "-inf", "+Infinity", "1e400",
                              "-1e999", "oops", "", " ", "1.2.3", "0x10", "1__0", "--1"])


@st.composite
def _cell_grids(draw):
    """Header and body cells of a curve table: a grid of 2-6 points, 1-6 rows."""
    width = draw(st.integers(2, 6))
    header = [draw(_GRID_FORMS)(10 * j) for j in range(width)]
    body = [[draw(_CELLS) for _ in range(width)] for _ in range(draw(st.integers(1, 6)))]
    return [header] + body


def _write_table(path, cells):
    lines = [",".join(["id"] + cells[0])]
    lines += [",".join([f"s{i}"] + row) for i, row in enumerate(cells[1:])]
    path.write_text("\n".join(lines) + "\n")


class TestBulkParsing:
    """Bulk parsing gives the values and the errors of a per-cell parse."""

    @settings(max_examples=150, deadline=None)
    @given(_cell_grids())
    def test_values_equal_per_cell_floats_bit_for_bit(self, tmp_path_factory, cells):
        path = tmp_path_factory.mktemp("table") / "c.csv"
        _write_table(path, cells)
        expected = _per_cell(path, cells)
        table = read_curves(path)
        assert table.grid.tobytes() == expected[0].tobytes()
        assert table.values.tobytes() == expected[1:].tobytes()

        response = path.with_name("y.csv")
        response.write_text("id,y\n" + "".join(f"s{i},{row[0]}\n"
                                               for i, row in enumerate(cells[1:])))
        _, y = read_response(response)
        assert y.tobytes() == expected[1:, 0].tobytes()

    @settings(max_examples=150, deadline=None)
    @given(_cell_grids(), st.data())
    def test_first_bad_cell_is_named(self, tmp_path_factory, cells, data):
        width = len(cells[0])
        flat = data.draw(st.integers(0, len(cells) * width - 1))
        cells[flat // width][flat % width] = data.draw(_BAD_CELLS)
        if flat + 1 < len(cells) * width and data.draw(st.booleans()):
            later = data.draw(st.integers(flat + 1, len(cells) * width - 1))
            cells[later // width][later % width] = data.draw(_BAD_CELLS)
        path = tmp_path_factory.mktemp("table") / "c.csv"
        _write_table(path, cells)
        message = _per_cell(path, cells)
        assert f"line {flat // width + 1}, column {flat % width + 2}:" in message
        with pytest.raises(InputError) as info:
            read_curves(path)
        assert str(info.value) == message


def _floats_or_none(cells):
    """``float`` of each cell, or None if one is not a finite number."""
    try:
        values = np.array([float(cell) for cell in cells])
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _assert_parsed_like_float(cells, width):
    """The decimal parser gives ``float``'s bits for cells on lines of ``width``,
    or None where ``float`` fails or gives a value that is not finite; with the
    extended-precision path, where the platform has one, and without it."""
    text = "\n".join(",".join(cells[i:i + width]) for i in range(0, len(cells), width))
    expected = _floats_or_none(cells)
    for extended in sorted({fileio._EXTENDED, False}):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fileio, "_EXTENDED", extended)
            got = fileio._parse_decimals(text, width)
        if expected is None:
            assert got is None
        else:
            assert got.shape == (len(cells) // width, width)
            assert got.tobytes() == expected.tobytes(), (extended, cells)


def _near_midpoints(draws, seed):
    """19-significant-digit decimals within 2**-64 of the midpoint d + 2**-53
    of two neighbouring doubles, for d drawn from [1, 2)."""
    rng = np.random.default_rng(seed)
    cells = []
    for k in rng.integers(0, 2**52, size=draws).tolist():
        scaled = (1 + Fraction(2 * k + 1, 2**53)) * 10**18
        mantissa = round(scaled)
        if abs(mantissa - scaled) < Fraction(10**18, 2**64):
            cells.append(f"{mantissa // 10**18}.{mantissa % 10**18:018d}")
    return cells


@st.composite
def _decimal_cells(draw):
    """``[+-]digits[.digits]`` of 1-22 digits, the dot anywhere or absent,
    leading zeros included, sometimes with an exponent."""
    digits = draw(st.text("0123456789", min_size=1, max_size=22))
    dot = draw(st.integers(0, len(digits)))
    return (draw(st.sampled_from(["", "+", "-"])) + digits[:dot]
            + draw(st.sampled_from([".", ""])) + digits[dot:]
            + draw(st.sampled_from(["", "", "", "e5", "E-7", "e+300", "e-330"])))


_LONG_CELLS = st.one_of(
    st.integers(2**63 - 2, 10**30).map(str),
    st.integers(-10**30, -(2**63 - 2)).map(str),
    st.builds("{}.{}".format, st.integers(0, 99), st.text("0123456789", min_size=28,
                                                           max_size=40)),
    st.text("0123456789", min_size=1, max_size=5).map(lambda d: "0." + "0" * 25 + d),
)
_SIGNED_ZEROS = ["-0.0", "-0", "+0.000", "0", "-.0", "0.", "-000.000"]
_OTHER_FORMS = [" 1.5 ", "1_000", "\t2", "-.5", "5.", "+.25", "1e5"]
_NOT_NUMBERS = ["", "+", "-", ".", "-.", "1.2.3", "--1", "1-2", "+-1", "1e", "nan",
                "inf", "-Infinity", "0x10", " ", "1__0", "1e400", "\x1c1"]


class TestDecimalParser:
    """The vectorized decimal parser gives the bits ``float`` gives."""

    def test_decimals_next_to_a_midpoint_round_once(self):
        cells = _near_midpoints(3000, seed=0)
        assert len(cells) >= 200
        cells = cells[:len(cells) // 10 * 10]
        _assert_parsed_like_float(cells, 10)
        if fileio._EXTENDED:
            # the cells do catch a parser that rounds twice without the midpoint guard
            mantissas = np.array([int(cell.replace(".", "")) for cell in cells])
            twice = (mantissas.astype(np.longdouble) / np.longdouble(10**18)).astype(float)
            assert (twice != _floats_or_none(cells)).sum() > len(cells) // 4

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_decimal_cells(), _LONG_CELLS, st.sampled_from(_SIGNED_ZEROS),
                              st.sampled_from(_OTHER_FORMS)), min_size=1, max_size=40),
           st.integers(1, 4))
    def test_cells_equal_float_bit_for_bit(self, cells, width):
        _assert_parsed_like_float(cells * width, width)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_decimal_cells(), min_size=1, max_size=12), st.data())
    def test_a_cell_that_is_not_a_number_fails_the_text(self, cells, data):
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(st.sampled_from(_NOT_NUMBERS))
        assert fileio._parse_decimals(",".join(cells), len(cells)) is None

    @pytest.mark.parametrize("text,width", [
        ("1,2\n3", 2), ("1,2\n3,4,5", 2), ("1,2,3\n4", 2), ("1\n2,3", 1), ("1,2\n\n3,4", 2),
    ])
    def test_lines_of_another_width_fail_the_text(self, text, width):
        assert fileio._parse_decimals(text, width) is None


def _read_outcome(read, path):
    """What ``read(path)`` gives, as bytes and ids, or the text of its input error."""
    try:
        ids, *arrays = astuple(read(path)) if read is read_curves else read(path)
    except InputError as exc:
        return str(exc)
    return ids, [(a.shape, a.tobytes()) for a in arrays]


def _read_both_ways(read, path):
    """``_read_outcome`` as the reader runs, and with every table on the csv path."""
    plain = _read_outcome(read, path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "_read_plain", lambda lines: None)
        return plain, _read_outcome(read, path)


_ID_FORMS = st.sampled_from(["s{}", " s{} ", "s{}\x0c", "\x1cs{}", "s-{}"])
_TABLE_CELLS = st.one_of(*[_FINITE.map(repr)] * 6, _decimal_cells(),
                         st.sampled_from([" 2.5 ", "3\x0c", "1_0", "+4", "-0.0"]))
_FLAWS = st.sampled_from(["blank row", "short row", "long row", "line end", "CR in a cell",
                          "quoted cell", "quoted comma", "non-ASCII id", "non-ASCII cell",
                          "repeated id", "blank id", "bad cell"])


@st.composite
def _table_texts(draw, header):
    """A table of ``header`` and 0-5 rows, with LF or CRLF line ends and with or
    without a final newline; ids with spaces, ``\x0c`` and ``\x1c``.  Half the
    tables have up to two flaws that send them to the csv path: blank,
    whitespace-only, comma-only, short and long rows, a mixed line end or a
    lone CR at a line end or in a cell, quoted and non-ASCII cells, repeated
    and blank ids, a bad cell."""
    width = len(header) - 1
    rows = [list(header)]
    for i in range(draw(st.integers(0, 5))):
        rows.append([draw(_ID_FORMS).format(i)] + [draw(_TABLE_CELLS) for _ in range(width)])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [end] * len(rows)
    for flaw in draw(st.lists(_FLAWS, max_size=2)) if draw(st.booleans()) else []:
        at = draw(st.integers(0, len(rows) - 1))
        cell = draw(st.integers(0, len(rows[at]) - 1))
        if flaw == "blank row":
            blank = draw(st.sampled_from(["", "   ", " "]))
            rows.insert(at + 1, [blank] * draw(st.integers(1, width + 1)))
            ends.insert(at + 1, end)
        elif flaw == "short row":
            rows[at] = rows[at][:-1]
        elif flaw == "long row":
            rows[at] = rows[at] + ["1.0"]
        elif flaw == "line end":
            ends[at] = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        elif flaw == "CR in a cell":
            rows[at][cell] += "\r" + draw(st.sampled_from(["", "5", ",5"]))
        elif flaw == "quoted cell":
            rows[at][cell] = f'"{rows[at][cell]}"'
        elif flaw == "quoted comma":
            rows[at][cell] = '"1,5"'
        elif flaw == "non-ASCII id":
            rows[at][0] = "café" + rows[at][0]
        elif flaw == "non-ASCII cell":
            rows[at][cell] = "½"
        elif flaw == "repeated id":
            rows[at][0] = rows[-1][0]
        elif flaw == "blank id":
            rows[at][0] = " "
        else:
            rows[at][cell] = draw(st.sampled_from(["", "oops", "inf", "1e400", "nan", "1.2.3"]))
    text = "".join(",".join(row) + sep for row, sep in zip(rows, ends))
    return text if draw(st.booleans()) else text.removesuffix(ends[-1])


_GRIDS = st.sampled_from([["id", "0.0", "0.5", "1.0"], ["id", "0", "1"], [" id ", "0.25", "2.5"]]
                         * 3 + [["time", "0.0", "1.0"], ["id", "1.0", "0.5"], ["id", "0.5"],
                                ["id", "0.0", "x", "1.0"]])


class TestPlainReader:
    """Tables read without ``csv`` give the bytes, or the error text, of the ``csv`` path."""

    @settings(max_examples=300, deadline=None)
    @given(_GRIDS.flatmap(_table_texts))
    def test_curve_tables_read_as_the_csv_path_reads_them(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("table") / "c.csv"
        path.write_bytes(text.encode("utf-8"))
        plain, general = _read_both_ways(read_curves, path)
        assert plain == general

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([["id", "y"], [" id", "y "], ["id", "value"]]).flatmap(_table_texts))
    def test_responses_read_as_the_csv_path_reads_them(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("table") / "y.csv"
        path.write_bytes(text.encode("utf-8"))
        plain, general = _read_both_ways(read_response, path)
        assert plain == general

    @pytest.mark.parametrize("text", [
        "id,0,1\r\ns1,1\r,2\r\n", "id,0,1\r\ns1,1,2\r", "id,0,1\ns1,1,2\r",
        "id,0,1\r\ns1,1,2\ns2,3,4\r\n", "id,0,1\ns1,\"1\",2\n", "id,0,1\ns1,\"1,5\"\n",
        "id,0,1\ns1,1,2\n\ns2,3,4\n", "id,0,1\ns1,1,2\n , , \n", "id,0,1\ns1,1,2\n,,\n",
        "id,0,1\ncaf\u00e9,1,2\n", "id,0,1\ns1,1,2\ns1,3,4\n", "id,0,1\n ,1,2\n",
        "id,0,1\ns1,1,2,3\n", "id,0,1\ns1,1\n", "id,0,1\n", "", "\n", "id\ns1\n",
        "id,0,1\ns1,1,\x0c2\n", "id,0,1\ns1,1,\x1c2\n", "id,0,1\ns1,1,2\x00\n",
    ])
    def test_tables_csv_splits_otherwise_read_as_it_reads_them(self, tmp_path, text):
        path = tmp_path / "c.csv"
        path.write_bytes(text.encode())
        plain, general = _read_both_ways(read_curves, path)
        assert plain == general

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    @pytest.mark.parametrize("final", [True, False])
    def test_plain_tables_are_read_without_csv(self, tmp_path, monkeypatch, end, final):
        path = tmp_path / "c.csv"
        text = end.join(["id,0.0,0.5", "a,-0.0,1e-300", "b,0.1,+7"]) + (end if final else "")
        path.write_bytes(text.encode())
        monkeypatch.setattr(fileio.csv, "reader", None)
        table = read_curves(path)
        assert table.sample_ids == ("a", "b")
        assert table.values.tobytes() == np.array([[-0.0, 1e-300], [0.1, 7.0]]).tobytes()

    def test_plain_reader_peaks_below_the_csv_path(self, tmp_path, monkeypatch):
        """The decimal parser works in chunks, so reading a 200x200 table holds
        less memory at its peak than the csv path's rows of cells do."""
        path = tmp_path / "c.csv"
        write_curves(path, CurveTable(tuple(f"s{i}" for i in range(200)),
                                      np.linspace(0.0, 1.0, 200),
                                      np.random.default_rng(0).normal(size=(200, 200))))

        def peak():
            read_curves(path)
            tracemalloc.start()
            try:
                read_curves(path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        plain = peak()
        monkeypatch.setattr(fileio, "_read_plain", lambda lines: None)
        assert plain <= peak()


def _fitted_pair(seed=4, n=40):
    rng = np.random.default_rng(seed)
    systems = [build_bspline_system((0.0, 1.0), 6, 4),
               build_bspline_system((0.0, 2.0), 5, 4)]
    grids = [np.linspace(0.0, 1.0, 60), np.linspace(0.0, 2.0, 50)]
    curves = [(evaluate_basis(s, g) @ rng.normal(size=(s.num_basis, n))).T
              for s, g in zip(systems, grids)]
    design = build_design(curves, grids, systems)
    y = design.A @ rng.normal(size=design.total_basis) + 0.2 * rng.normal(size=n)
    return design, y


class TestModelFiles:
    def test_plain_round_trip(self, tmp_path):
        design, y = _fitted_pair()
        fit = fit_fpls(design, y, 3)
        path = tmp_path / "model.json"
        save_model(path, fit)
        back = load_model(path)
        assert back.method == "fpls"
        assert back.h == fit.h
        assert back.robust_report is None
        np.testing.assert_array_equal(back.beta_coefs, fit.beta_coefs)
        assert back.intercept == fit.intercept
        assert [s.domain for s in back.systems] == [s.domain for s in fit.systems]
        np.testing.assert_allclose(back.Psi, fit.Psi, atol=1e-15)
        np.testing.assert_allclose(predict_from_design(back, design.D),
                                   predict_from_design(fit, design.D), atol=1e-12)

    def test_robust_round_trip_keeps_diagnostics(self, tmp_path):
        design, y = _fitted_pair(5)
        fit = fit_rfpls(design, y, 2)
        path = tmp_path / "model.json"
        save_model(path, fit)
        back = load_model(path)
        assert back.method == "rfpls"
        rep, orig = back.robust_report, fit.robust_report
        np.testing.assert_array_equal(rep.weights, orig.weights)
        assert (rep.c, rep.scale) == (orig.c, orig.scale)
        assert (rep.prm_iterations, rep.m_iterations) \
            == (orig.prm_iterations, orig.m_iterations)
        assert (rep.prm_converged, rep.m_converged) \
            == (orig.prm_converged, orig.m_converged)

    def test_schema_version_is_enforced(self, tmp_path):
        design, y = _fitted_pair(6)
        path = tmp_path / "model.json"
        save_model(path, fit_fpls(design, y, 2))
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="schema version 99"):
            load_model(path)

    @pytest.mark.parametrize("mutate,pattern", [
        (lambda d: d.pop("schema_version"), "missing schema_version"),
        (lambda d: d.pop("beta_coefs"), "malformed"),
        (lambda d: d.update(method="ols"), "unknown method"),
        (lambda d: d.update(beta_coefs=[1.0, 2.0]), "does not match"),
    ])
    def test_malformed_documents_rejected(self, tmp_path, mutate, pattern):
        design, y = _fitted_pair(7)
        path = tmp_path / "model.json"
        save_model(path, fit_fpls(design, y, 2))
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=pattern):
            load_model(path)

    @pytest.mark.parametrize("field,value,pattern", [
        ("beta_coefs", float("nan"), "beta_coefs must be finite"),
        ("intercept", float("inf"), "intercept must be finite"),
        ("h", -7, "h must be at least 1"),
        ("h", 2.7, "h must be an integer"),
        ("h", 2.0, "h must be an integer"),
        ("h", True, "h must be an integer"),
        ("h", 99, "h = 99 exceeds the 11 basis functions"),
    ])
    def test_out_of_range_fields_rejected(self, tmp_path, capsys, field, value, pattern):
        """A non-finite coefficient or intercept, or a component count that
        is not an integer from 1 to the basis size, fails to load;
        ``rfpls predict`` exits with code 2."""
        design, y = _fitted_pair(8)
        path = tmp_path / "model.json"
        save_model(path, fit_fpls(design, y, 2))
        doc = json.loads(path.read_text())
        if field == "beta_coefs":
            doc["beta_coefs"][3] = value
        else:
            doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=pattern):
            load_model(path)
        rc = main(["predict", "--model", str(path), "--curves", "unused.csv",
                   "--out", str(tmp_path / "pred.csv")])
        assert rc == 2
        assert pattern in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()

    @pytest.mark.parametrize("mutate,pattern", [
        (lambda d: d["robust"]["weights"].__setitem__(0, float("nan")),
         "weights must be finite"),
        (lambda d: d["robust"]["weights"].__setitem__(0, 1.5), r"in \[0, 1\]"),
        (lambda d: d["robust"]["weights"].__setitem__(0, -0.5), r"in \[0, 1\]"),
        (lambda d: d["robust"].update(weights=[0.5]), "one entry per training sample"),
        (lambda d: d["robust"].update(c=-1.0), "c must be finite and positive"),
        (lambda d: d["robust"].update(c=0.0), "c must be finite and positive"),
        (lambda d: d["robust"].update(c=float("inf")), "c must be finite and positive"),
        (lambda d: d["robust"].update(scale=-1.0), "scale must be finite"),
        (lambda d: d["robust"].update(scale=float("nan")), "scale must be finite"),
        (lambda d: d["robust"].update(prm_iterations=0), "prm_iterations"),
        (lambda d: d["robust"].update(m_iterations=2.5), "m_iterations"),
        (lambda d: d["robust"].update(m_iterations=True), "m_iterations"),
        (lambda d: d["robust"].update(prm_converged="yes"), "prm_converged"),
        (lambda d: d.update(method="fpls"), "fpls model has no robust block"),
    ], ids=["weight-nan", "weight-above-1", "weight-negative", "one-weight",
            "c-negative", "c-zero", "c-inf", "scale-negative", "scale-nan",
            "prm-iterations-0", "m-iterations-float", "m-iterations-bool",
            "converged-string", "robust-on-fpls"])
    def test_implausible_robust_block_rejected(self, tmp_path, capsys, mutate, pattern):
        """A robust block that no rfpls fit can produce fails to load;
        ``rfpls predict`` exits with code 2 and writes nothing."""
        design, y = _fitted_pair(9)
        path = tmp_path / "model.json"
        save_model(path, fit_rfpls(design, y, 2))
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=pattern):
            load_model(path)
        rc = main(["predict", "--model", str(path), "--curves", "unused.csv",
                   "--out", str(tmp_path / "pred.csv")])
        assert rc == 2
        assert "rfpls: input error:" in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()

    @pytest.mark.parametrize("mutate,pattern", [
        (lambda d: d["predictors"][0].update(domain=["0", "1"]),
         "domain must be two numbers"),
        (lambda d: d["predictors"][1].update(domain=[0.0, 1.0, 7.0]),
         "domain must be two numbers"),
        (lambda d: d["predictors"][0].update(domain=[True, 1.0]),
         "domain must be two numbers"),
        (lambda d: d.update(robust=None), "rfpls model needs its robust block"),
        (lambda d: d.pop("robust"), "rfpls model needs its robust block"),
    ], ids=["domain-strings", "domain-three-entries", "domain-bool",
            "robust-null", "robust-missing"])
    def test_malformed_layout_or_missing_diagnostics_rejected(self, tmp_path, capsys,
                                                              mutate, pattern):
        """A predictor domain that is not two JSON numbers, or an rfpls
        model without its robust block, fails to load; ``rfpls predict``
        exits with code 2 and writes nothing."""
        design, y = _fitted_pair(10)
        path = tmp_path / "model.json"
        save_model(path, fit_rfpls(design, y, 2))
        assert load_model(path).robust_report is not None
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=pattern):
            load_model(path)
        rc = main(["predict", "--model", str(path), "--curves", "unused.csv",
                   "--out", str(tmp_path / "pred.csv")])
        assert rc == 2
        assert pattern in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()

    def test_integer_domains_still_load(self, tmp_path):
        """JSON integers are numbers: a hand-written ``[0, 1]`` domain loads."""
        design, y = _fitted_pair(11)
        path = tmp_path / "model.json"
        save_model(path, fit_fpls(design, y, 2))
        doc = json.loads(path.read_text())
        for p in doc["predictors"]:
            p["domain"] = [int(v) for v in p["domain"]]
        path.write_text(json.dumps(doc))
        back = load_model(path)
        assert [s.domain for s in back.systems] == [(0.0, 1.0), (0.0, 2.0)]

    def test_byte_order_mark_is_ignored(self, tmp_path):
        """A model file is read as CSV and INI input are: UTF-8, with a
        leading byte-order mark ignored."""
        fit = fit_fpls(*_fitted_pair(12), 2)
        path = tmp_path / "model.json"
        save_model(path, fit)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        _assert_fields_equal(load_model(path), fit)

    def test_model_that_is_not_utf8_is_named(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"schema_version": 1, "method": "caf\u00e9"}'.encode("latin-1"))
        rc = main(["predict", "--model", str(path), "--curves", "unused.csv",
                   "--out", str(tmp_path / "pred.csv")])
        assert rc == 2
        assert "latin1.json: not UTF-8 text" in capsys.readouterr().err

    def test_non_json_and_missing_files(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("this is not json")
        with pytest.raises(InputError, match="not a model file"):
            load_model(path)
        with pytest.raises(InputError):
            load_model(str(tmp_path / "absent.json"))


def _assert_fields_equal(back: FittedSofr, fit: FittedSofr) -> None:
    """Every field of two fits is equal, arrays bit for bit."""
    for field in fields(FittedSofr):
        got, want = getattr(back, field.name), getattr(fit, field.name)
        if field.name == "beta_coefs":
            assert got.tobytes() == want.tobytes()
        elif field.name == "robust_report" and want is not None:
            for item in fields(RobustReport):
                a, b = getattr(got, item.name), getattr(want, item.name)
                assert (a.tobytes() == b.tobytes() if item.name == "weights"
                        else (a, type(a)) == (b, type(b))), item.name
        else:
            assert got == want, field.name


@st.composite
def _small_fits(draw):
    """A fit by one of the three methods on a small random design of 1-2 predictors."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(16, 30))
    rng = np.random.default_rng(seed)
    systems = [build_bspline_system((0.0, draw(st.sampled_from([1.0, 2.5]))),
                                    draw(st.integers(4, 6)), draw(st.sampled_from([3, 4])))
               for _ in range(draw(st.integers(1, 2)))]
    grids = [np.linspace(*s.domain, 30) for s in systems]
    curves = [(evaluate_basis(s, g) @ rng.normal(size=(s.num_basis, n))).T
              for s, g in zip(systems, grids)]
    design = build_design(curves, grids, systems)
    y = design.A @ rng.normal(size=design.total_basis) + 0.3 * rng.normal(size=n)
    method = draw(st.sampled_from(sorted(_FITTERS)))
    return _FITTERS[method](design, y, draw(st.integers(1, 3)))


def _schema_model(tmp_path):
    """An rfpls model saved by ``rfpls fit`` and the curve files it was fitted on."""
    rng = np.random.default_rng(12)
    ids = tuple(f"s{i}" for i in range(30))
    grid = np.linspace(0.0, 1.0, 25)
    paths = []
    for m in range(2):
        paths.append(str(tmp_path / f"x{m}.csv"))
        write_curves(paths[-1], CurveTable(ids, grid, rng.normal(size=(30, 25)).cumsum(axis=1)))
    write_response(tmp_path / "y.csv", ids, rng.normal(size=30))
    model = tmp_path / "model.json"
    assert main(["fit", "--method", "rfpls", "--curves", ",".join(paths),
                 "--response", str(tmp_path / "y.csv"), "--num-basis", "6",
                 "--components", "2", "--out", str(model)]) == 0
    return model, ",".join(paths)


class TestModelSchema:
    """One declaration of the model file drives both save and load."""

    @settings(max_examples=30, deadline=None)
    @given(_small_fits())
    def test_round_trip_is_exact(self, tmp_path_factory, fit):
        """Loading a saved fit gives it back field for field, and saving the
        loaded model again writes the same bytes."""
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(path, fit)
        back = load_model(path)
        _assert_fields_equal(back, fit)
        first = path.read_bytes()
        save_model(path, back)
        assert path.read_bytes() == first

    def test_blocks_hold_the_fields_in_file_order(self, tmp_path, capsys):
        model, _ = _schema_model(tmp_path)
        capsys.readouterr()
        doc = json.loads(model.read_text())
        assert list(doc) == ["schema_version", "method", "h", "intercept", "predictors",
                             "beta_coefs", "robust"]
        assert [list(p) for p in doc["predictors"]] == [[f.name for f in fields(BasisSystem)]] * 2
        assert list(doc["robust"]) == [f.name for f in fields(RobustReport)]

    @pytest.mark.parametrize("mutate,pattern", [
        (lambda d: d.update(intercept="1e3"), "intercept must be a number"),
        (lambda d: d.update(intercept=True), "intercept must be a number"),
        (lambda d: d.update(schema_version=True), "schema_version must be an integer"),
        (lambda d: d["beta_coefs"].__setitem__(0, "0.5"), "beta_coefs must be a list of numbers"),
        (lambda d: d["beta_coefs"].__setitem__(0, False), "beta_coefs must be a list of numbers"),
        (lambda d: d.update(beta_coefs=[[b] for b in d["beta_coefs"]]),
         "beta_coefs must be a list of numbers"),
        (lambda d: d["robust"]["weights"].__setitem__(0, "1"),
         "robust.weights must be a list of numbers"),
        (lambda d: d["robust"]["weights"].__setitem__(0, True),
         "robust.weights must be a list of numbers"),
        (lambda d: d["robust"].update(c="1.5"), "robust.c must be a number"),
        (lambda d: d["robust"].update(scale=True), "robust.scale must be a number"),
        (lambda d: d["predictors"][0].update(num_basis=10**13),
         "does not match the basis layout"),
    ], ids=["intercept-string", "intercept-bool", "schema-version-bool", "beta-string",
            "beta-bool", "beta-nested", "weight-string", "weight-bool", "c-string",
            "scale-bool", "num-basis-huge"])
    def test_mistyped_values_rejected(self, tmp_path, capsys, mutate, pattern):
        """A value of the wrong JSON type fails to load; ``rfpls predict``
        exits with code 2 and writes no predictions."""
        model, curves = _schema_model(tmp_path)
        doc = json.loads(model.read_text())
        mutate(doc)
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        with pytest.raises(InputError, match=pattern):
            load_model(model)
        rc = main(["predict", "--model", str(model), "--curves", curves,
                   "--out", str(tmp_path / "pred.csv")])
        assert rc == 2
        assert pattern in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()

    @pytest.mark.parametrize("mutate,pattern", [
        (lambda d: d["predictors"][0].update(order=7), "num_basis must be at least its order"),
        (lambda d: d["predictors"][0].update(domain=[1.0, 1.0]), "finite with a < b"),
        (lambda d: d["predictors"][0].update(domain=[0.0, float("inf")]), "finite with a < b"),
        (lambda d: d["predictors"][0].pop("order"), "predictors[0].order is missing"),
        (lambda d: d.update(predictors={}), "predictors must be a list of objects"),
        (lambda d: d.update(robust=[]), "robust must be an object or null"),
        (lambda d: d.update(intercept=10**400), "intercept must be finite"),
        (lambda d: d["predictors"][0].update(domain=[-1e308, 1e308]), "finite with a < b"),
        (lambda d: d["predictors"][0].update(domain=[0, 10**400]), "finite with a < b"),
        (lambda d: d["predictors"][0].update(domain=[1.0, float(np.nextafter(1.0, 2.0))]),
         "needs distinct knots"),
    ], ids=["order-above-num-basis", "domain-empty", "domain-infinite", "order-missing",
            "predictors-object", "robust-list", "intercept-huge", "domain-length-overflows",
            "domain-huge-integer", "domain-too-narrow"])
    def test_values_no_fit_can_have_rejected(self, tmp_path, capsys, mutate, pattern):
        model, _ = _schema_model(tmp_path)
        doc = json.loads(model.read_text())
        mutate(doc)
        model.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=re.escape(pattern)):
            load_model(model)


_NEW_BYTES = b"sample_id,prediction\r\ns1,1.5\r\n"


def _write_one_prediction(path):
    write_predictions(path, ("s1",), np.array([1.5]))


class TestOutputFiles:
    def test_shorter_output_replaces_a_longer_file(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("sample_id,prediction\n" + "s0,0.25\n" * 1000)
        _write_one_prediction(path)
        assert path.read_bytes() == _NEW_BYTES

    def test_existing_file_is_overwritten_in_place(self, tmp_path):
        """The same file takes the new bytes: its mode and hard links are kept."""
        path = tmp_path / "pred.csv"
        path.write_text("an older and longer file\n" * 50)
        path.chmod(0o600)
        os.link(path, tmp_path / "other.csv")
        inode = path.stat().st_ino
        _write_one_prediction(path)
        assert path.read_bytes() == _NEW_BYTES
        assert (tmp_path / "other.csv").read_bytes() == _NEW_BYTES
        assert path.stat().st_ino == inode
        assert path.stat().st_mode & 0o777 == 0o600

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
    def test_write_protected_file_is_refused(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("old\n")
        path.chmod(0o444)
        with pytest.raises(PermissionError):
            _write_one_prediction(path)
        assert path.read_text() == "old\n"

    def test_symlink_is_kept_and_its_target_rewritten(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("an older and longer file\n" * 50)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        _write_one_prediction(link)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == _NEW_BYTES

    def test_file_is_cut_at_its_final_length(self, tmp_path, monkeypatch):
        """Never cut to zero: on ext4 that is what forces a writeback at close."""
        path = tmp_path / "pred.csv"
        path.write_text("an older and longer file\n" * 50)
        cuts, real_ftruncate = [], os.ftruncate

        def ftruncate(fd, length):
            cuts.append(length)
            real_ftruncate(fd, length)

        monkeypatch.setattr(fileio.os, "ftruncate", ftruncate)
        _write_one_prediction(path)
        assert cuts == [len(_NEW_BYTES)]

    def test_error_while_writing_leaves_no_old_bytes(self, tmp_path):
        """A failed write leaves what was written, as a truncating open did."""
        path = tmp_path / "pred.csv"
        path.write_text("an older and longer file\n" * 50)
        with pytest.raises(RuntimeError):
            with fileio._open_output(path) as handle:
                handle.write("partial")
                raise RuntimeError
        assert path.read_text() == "partial"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_descriptor_path_writes_the_open_file(self, tmp_path):
        """``--out /dev/stdout`` with stdout sent to a file writes that file."""
        path = tmp_path / "redirected.csv"
        with open(path, "wb") as handle:
            _write_one_prediction(f"/proc/self/fd/{handle.fileno()}")
        assert path.read_bytes() == _NEW_BYTES

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            _write_one_prediction(fifo)
            assert os.read(reader, 4096) == _NEW_BYTES
        finally:
            os.close(reader)
        assert fifo.is_fifo()

    def test_output_is_utf8_without_byte_order_mark(self, tmp_path):
        path = tmp_path / "y.csv"
        write_response(path, ("\u00e9",), np.array([2.0]))
        assert path.read_bytes() == "id,y\r\n\u00e9,2.0\r\n".encode("utf-8")


def _calls(source: str) -> list[tuple[str, ast.Call, str | None, ast.expr | None]]:
    """Each call in ``source``: the function it is in, the call, the name it
    calls, and the mode argument if it is an ``open`` or ``fdopen`` call."""
    found = []

    class Visitor(ast.NodeVisitor):
        scope = ["<module>"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if (name == "open" and isinstance(func, ast.Attribute)
                    and getattr(func.value, "id", None) == "os"):
                name = "os.open"
            mode = None
            if name in ("open", "fdopen"):
                position = 1 if isinstance(func, ast.Name) else 0
                mode = next((k.value for k in node.keywords if k.arg == "mode"),
                            node.args[position] if len(node.args) > position else None)
            found.append((self.scope[-1], node, name, mode))
            self.generic_visit(node)

    Visitor().visit(ast.parse(source))
    return found


def _write_opens(source: str) -> list[str]:
    """Names of the functions in ``source`` that open a file for writing."""
    found = []
    for scope, _, name, mode in _calls(source):
        if name in ("os.open", "write_text", "write_bytes", "truncate", "ftruncate"):
            found.append(scope)
        elif name in ("open", "fdopen"):
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and not set(str(mode.value)) & set("wax+")):
                found.append(scope)
    return found


def _read_opens(source: str) -> list[str]:
    """Names of the functions in ``source`` that open a file for reading, or
    may: every open but those with a constant write-only mode or flags."""
    found = []
    for scope, node, name, mode in _calls(source):
        if name in ("read_text", "read_bytes"):
            found.append(scope)
        elif name == "os.open":
            if "O_WRONLY" not in ast.unparse(node.args[1]):
                found.append(scope)
        elif name in ("open", "fdopen"):
            if not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax")
                    and "+" not in str(mode.value)):
                found.append(scope)
    return found


def _csv_users(source: str) -> list[str]:
    """Names of the functions in ``source`` that make a ``csv`` writer, and
    ``<import>`` for each import of ``csv``."""
    imports = [node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "csv"]
    return (["<import>"] * len(imports)
            + [scope for scope, _, name, _ in _calls(source) if name in ("writer", "DictWriter")])


def _text_opens_without_encoding(source: str) -> list[str]:
    """Names of the functions in ``source`` that open a file as text and
    leave its encoding to the locale."""
    return [scope for scope, node, name, mode in _calls(source)
            if name in ("open", "fdopen")
            and not (isinstance(mode, ast.Constant) and "b" in str(mode.value))
            and not any(k.arg == "encoding" for k in node.keywords)]


class TestOutputOwner:
    def test_scan_finds_writing_opens(self):
        source = ("import os\n"
                  "def a(p): open(p)\n"
                  "def b(p): open(p, newline='')\n"
                  "def c(p): open(p, 'w')\n"
                  "def d(p, m): open(p, mode=m)\n"
                  "def e(p): p.open('a')\n"
                  "def f(p): p.write_text('x')\n"
                  "def g(p): os.open(p, os.O_WRONLY)\n"
                  "def h(p): open(p, 'rb')\n"
                  "def i(fd): os.ftruncate(fd, 0)\n")
        assert _write_opens(source) == ["c", "d", "e", "f", "g", "i"]

    def test_only_the_output_helper_opens_files_for_writing(self):
        """Every output file of the package goes through ``fileio._open_output``."""
        package = Path(rfpls.__file__).parent
        found = {(source.name, name) for source in sorted(package.glob("*.py"))
                 for name in _write_opens(source.read_text())}
        assert found == {("fileio.py", "_open_output")}


class TestInputOwner:
    def test_scan_finds_reading_opens(self):
        source = ("import os\n"
                  "def a(p): open(p)\n"
                  "def b(p): open(p, 'w')\n"
                  "def c(p, m): open(p, mode=m)\n"
                  "def d(p): p.open()\n"
                  "def e(p): p.read_text()\n"
                  "def f(p): os.open(p, os.O_RDONLY)\n"
                  "def g(p): os.open(p, os.O_WRONLY | os.O_CREAT)\n"
                  "def h(p): open(p, 'rb')\n"
                  "def i(p): open(p, 'w+')\n"
                  "def j(fd): os.fdopen(fd, mode='a')\n")
        assert _read_opens(source) == ["a", "c", "d", "e", "f", "h", "i"]

    def test_only_the_input_helper_opens_files_for_reading(self):
        """Every input file of the package goes through ``fileio._open_input``."""
        package = Path(rfpls.__file__).parent
        found = {(source.name, name) for source in sorted(package.glob("*.py"))
                 for name in _read_opens(source.read_text(encoding="utf-8"))}
        assert found == {("fileio.py", "_open_input")}


class TestTableOwner:
    def test_scan_finds_csv_writers_and_imports(self):
        source = ("import csv\n"
                  "from csv import writer\n"
                  "def a(h): csv.writer(h)\n"
                  "def b(h): writer(h)\n"
                  "def c(h): csv.reader(h)\n"
                  "def d(h): csv.DictWriter(h, ['x'])\n")
        assert _csv_users(source) == ["<import>", "<import>", "a", "b", "d"]

    def test_only_the_table_writer_uses_csv_to_write(self):
        """``fileio._write_table`` alone decides the bytes of a CSV table, and
        no other module imports ``csv``."""
        package = Path(rfpls.__file__).parent
        found = {(source.name, name) for source in sorted(package.glob("*.py"))
                 for name in _csv_users(source.read_text(encoding="utf-8"))}
        assert found == {("fileio.py", "<import>"), ("fileio.py", "_write_table")}


class TestInputEncoding:
    def test_scan_finds_text_opens_without_encoding(self):
        source = ("import os\n"
                  "def a(p): open(p)\n"
                  "def b(p): open(p, newline='')\n"
                  "def c(p): open(p, 'w', encoding='utf-8')\n"
                  "def d(p): open(p, 'rb')\n"
                  "def e(p): p.open('r')\n"
                  "def f(p): os.open(p, os.O_RDONLY)\n"
                  "def g(fd): os.fdopen(fd, mode='w')\n"
                  "def h(p, m): open(p, m, encoding='latin-1')\n")
        assert _text_opens_without_encoding(source) == ["a", "b", "e", "g"]

    def test_every_text_open_names_its_encoding(self):
        """Text files are decoded as the file format says, not as the locale says."""
        package = Path(rfpls.__file__).parent
        found = {(source.name, name) for source in sorted(package.glob("*.py"))
                 for name in _text_opens_without_encoding(source.read_text(encoding="utf-8"))}
        assert found == set()
