"""CSV table formats and the JSON model file."""

import json

import numpy as np
import pytest

from rfpls.basis import build_bspline_system, build_design, evaluate_basis
from rfpls.cli import main
from rfpls.errors import InputError
from rfpls.fileio import (CurveTable, load_model, read_curves, read_response,
                          save_model, write_curves, write_predictions,
                          write_response)
from rfpls.regression import fit_fpls, fit_rfpls, predict_from_design


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


class TestResponseTables:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "y.csv"
        y = np.array([0.25, -1.75, 3.5])
        write_response(path, ("a", "b", "c"), y)
        ids, back = read_response(path)
        assert ids == ("a", "b", "c")
        np.testing.assert_array_equal(back, y)

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

    def test_non_json_and_missing_files(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("this is not json")
        with pytest.raises(InputError, match="not a model file"):
            load_model(path)
        with pytest.raises(InputError):
            load_model(str(tmp_path / "absent.json"))
