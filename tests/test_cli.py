"""Command line behavior: round trips, printed reports, and exit codes."""

import csv
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rfpls
from rfpls import cli, robust, robust_pls, simulation
from rfpls.basis import build_bspline_system, evaluate_basis
from rfpls.cli import load_experiment_config, main
from rfpls.errors import ConfigError
from rfpls.fileio import CurveTable, load_model, read_response, write_curves, write_response
from rfpls.regression import predict


def _make_tables(dirpath, n=40, seed=0, predictors=2, y_shift=None, scale=1.0,
                 same_curves=False):
    """Write curve and response CSVs for a smooth synthetic sample; the
    written curves are multiplied by ``scale``, and with ``same_curves``
    every sample of a predictor is written as its first sample's curve."""
    rng = np.random.default_rng(seed)
    ids = tuple(f"s{i:02d}" for i in range(n))
    curve_paths = []
    signal = np.zeros(n)
    for m in range(predictors):
        system = build_bspline_system((0.0, 1.0), 8, 4)
        grid = np.linspace(0.0, 1.0, 50)
        coefs = rng.normal(size=(n, 8))
        values = coefs @ evaluate_basis(system, grid).T
        signal += coefs @ rng.normal(size=8)
        if same_curves:
            values = np.tile(values[0], (n, 1))
        path = dirpath / f"curves{m + 1}.csv"
        write_curves(path, CurveTable(sample_ids=ids, grid=grid, values=values * scale))
        curve_paths.append(str(path))
    y = signal + 0.3 * rng.normal(size=n)
    if y_shift is not None:
        y = y + y_shift
    response = dirpath / "response.csv"
    write_response(response, ids, y)
    return ",".join(curve_paths), str(response), ids


class TestFitPredictRoundTrip:
    def test_fixed_components(self, tmp_path, capsys):
        curves, response, ids = _make_tables(tmp_path)
        model = tmp_path / "model.json"
        rc = main(["fit", "--method", "fpls", "--curves", curves,
                   "--response", response, "--num-basis", "8",
                   "--components", "3", "--out", str(model)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "method=fpls samples=40 predictors=2" in out
        assert "components=3" in out
        assert "cross-validated" not in out

        pred_path = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(model), "--curves", curves,
                   "--out", str(pred_path)])
        assert rc == 0
        assert f"wrote 40 predictions to {pred_path}" in capsys.readouterr().out
        with open(pred_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["sample_id", "prediction"]
        assert [r[0] for r in rows[1:]] == list(ids)

        fit = load_model(model)
        tables = [path for path in curves.split(",")]
        from rfpls.fileio import read_curves
        loaded = [read_curves(p) for p in tables]
        expected = predict(fit, [t.values for t in loaded],
                           [t.grid for t in loaded])
        np.testing.assert_array_equal([float(r[1]) for r in rows[1:]], expected)

    def test_cross_validated_fit_prints_table(self, tmp_path, capsys):
        curves, response, _ = _make_tables(tmp_path, seed=1)
        model = tmp_path / "model.json"
        rc = main(["fit", "--method", "fpls", "--curves", curves,
                   "--response", response, "--num-basis", "8",
                   "--max-components", "3", "--cv-folds", "4",
                   "--seed", "2", "--out", str(model)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cross-validated over h=1..3 (4 folds" in out
        assert out.count("trimmed_mspe=") == 3
        assert "<- chosen" in out
        assert load_model(model).h >= 1

    def test_robust_fit_reports_downweighted_samples(self, tmp_path, capsys):
        shift = np.zeros(40)
        shift[[4, 29]] = [35.0, -35.0]
        curves, response, ids = _make_tables(tmp_path, seed=2, y_shift=shift)
        model = tmp_path / "model.json"
        rc = main(["fit", "--method", "rfpls", "--curves", curves,
                   "--response", response, "--num-basis", "8",
                   "--components", "2", "--out", str(model)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "robust: c=" in out
        flagged_line = [ln for ln in out.splitlines()
                        if ln.startswith("downweighted samples")][0]
        assert "s04" in flagged_line and "s29" in flagged_line
        assert load_model(model).robust_report is not None

    @pytest.mark.parametrize("stage", ["reweighting", "M-step"])
    def test_robust_fit_warns_on_a_capped_loop(self, tmp_path, capsys, monkeypatch, stage):
        """The robust line reports both loops' iterations and convergence;
        a loop stopped at its cap adds one warning line on stderr."""
        curves, response, _ = _make_tables(tmp_path, seed=2)
        argv = ["fit", "--method", "rfpls", "--curves", curves, "--response", response,
                "--num-basis", "8", "--components", "2",
                "--out", str(tmp_path / "model.json")]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "rfpls: warning" not in captured.err
        assert " converged=True m_iterations=" in captured.out
        assert " m_converged=True scale=" in captured.out

        if stage == "reweighting":
            monkeypatch.setattr(robust_pls, "_PRM_MAX_ITER", 1)
            flag = " converged=False m_iterations="
        else:
            monkeypatch.setattr(robust, "_M_MAX_ITER", 1)
            flag = " m_converged=False scale="
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert flag in captured.out
        warnings = [ln for ln in captured.err.splitlines() if ln]
        assert warnings == [f"rfpls: warning: {stage} stopped at its iteration cap (1) "
                            "without converging"]

    @pytest.mark.parametrize("command", ["fit", "cv"])
    def test_capped_spatial_medians_are_counted_on_one_line(self, tmp_path, capsys,
                                                            monkeypatch, command):
        """Spatial medians stopped at their cap add one ``rfpls: warning:`` line
        with their count, not Python's warning per call; other warnings pass."""
        curves, response, _ = _make_tables(tmp_path, seed=2)
        calls = []
        monkeypatch.setattr(robust, "_L1_MAX_ITER", 1)
        monkeypatch.setattr(robust_pls, "l1_median",
                            lambda points: calls.append(1) or robust.l1_median(points))
        select = cli.select_num_components

        def select_with_a_warning(*args, **kwargs):
            warnings.warn("unrelated", UserWarning)
            return select(*args, **kwargs)

        monkeypatch.setattr(cli, "select_num_components", select_with_a_warning)
        argv = [command, "--method", "rfpls", "--curves", curves, "--response", response,
                "--num-basis", "8", "--max-components", "2"]
        with pytest.warns(UserWarning, match="unrelated") as shown:
            assert main(argv + (["--out", str(tmp_path / "model.json")]
                                if command == "fit" else [])) == 0
        assert [w.category for w in shown] == [UserWarning]
        err = capsys.readouterr().err
        lines = [ln for ln in err.splitlines() if "spatial median" in ln or "Warning" in ln]
        assert len(lines) == 1, err
        count = re.fullmatch(r"rfpls: warning: spatial median stopped at its iteration cap "
                             r"in (\d+) calls?", lines[0])
        assert count and 1 <= int(count[1]) <= len(calls)

    @pytest.mark.parametrize("method", ["fpls", "rfpls", "fpc"])
    def test_component_shortfall_warns(self, tmp_path, capsys, method):
        """Two predictors in 4 B-splines support 8 components, not the 20
        asked for: the fit says so on stderr and still writes its model."""
        curves, response, _ = _make_tables(tmp_path)
        model = tmp_path / "model.json"
        rc = main(["fit", "--method", method, "--curves", curves, "--response", response,
                   "--num-basis", "4", "--components", "20", "--out", str(model)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "components=8" in captured.out
        assert captured.err.splitlines() == [
            "rfpls: warning: extracted 8 of the 20 components asked for"]
        assert load_model(model).h == 8

    @pytest.mark.parametrize("method", ["fpls", "rfpls", "fpc"])
    def test_component_shortfall_model_predicts(self, tmp_path, capsys, method):
        """The model written after a shortfall is one ``predict`` accepts."""
        curves, response, ids = _make_tables(tmp_path)
        model, pred = tmp_path / "model.json", tmp_path / "pred.csv"
        assert main(["fit", "--method", method, "--curves", curves, "--response", response,
                     "--num-basis", "4", "--components", "20", "--out", str(model)]) == 0
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--curves", curves,
                     "--out", str(pred)]) == 0
        assert capsys.readouterr().err == ""
        with open(pred, newline="") as handle:
            rows = list(csv.reader(handle))
        assert [r[0] for r in rows[1:]] == list(ids)
        assert np.isfinite([float(r[1]) for r in rows[1:]]).all()

    def test_rerun_into_the_same_outputs_is_byte_identical(self, tmp_path, capsys):
        """A re-run replaces its outputs with the same bytes, not appended or mixed ones."""
        curves, response, _ = _make_tables(tmp_path, seed=5)
        model, pred = tmp_path / "model.json", tmp_path / "pred.csv"
        runs = []
        for _ in range(2):
            assert main(["fit", "--method", "rfpls", "--curves", curves,
                         "--response", response, "--num-basis", "8",
                         "--components", "2", "--out", str(model)]) == 0
            assert main(["predict", "--model", str(model), "--curves", curves,
                         "--out", str(pred)]) == 0
            runs.append((model.read_bytes(), pred.read_bytes()))
        capsys.readouterr()
        assert runs[0] == runs[1]
        assert runs[0][1].startswith(b"sample_id,prediction\r\n")


class TestCvCommand:
    def test_prints_scores_and_writes_csv(self, tmp_path, capsys):
        curves, response, _ = _make_tables(tmp_path, seed=3)
        out_csv = tmp_path / "scores.csv"
        rc = main(["cv", "--method", "fpls", "--curves", curves,
                   "--response", response, "--num-basis", "8",
                   "--max-components", "4", "--folds", "4",
                   "--seed", "1", "--out", str(out_csv)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chosen_h=" in out
        with open(out_csv, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["h", "trimmed_mspe"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4"]
        chosen = int(out.split("chosen_h=")[1].split()[0])
        scores = [float(r[1]) for r in rows[1:]]
        assert scores[chosen - 1] == min(scores)


class TestSimulateCommand:
    def _config(self, tmp_path, **overrides):
        base = dict(methods="fpls", contamination_levels="0.0",
                    replications=1, n_train=30, n_test=30, num_basis=8,
                    max_components=2, cv_folds=3, trim_alpha=0.1, seed=2)
        base.update(overrides)
        lines = "\n".join(f"{k} = {v}" for k, v in base.items())
        path = tmp_path / "experiment.ini"
        path.write_text(f"[experiment]\n{lines}\n")
        return str(path)

    def test_runs_and_writes_results_and_summary(self, tmp_path, capsys):
        config = self._config(tmp_path)
        out = tmp_path / "results.csv"
        rc = main(["simulate", "--config", config, "--out", str(out)])
        printed = capsys.readouterr().out
        assert rc == 0
        assert "replications=1 workers=1 completed_cells=1/1" in printed
        assert out.exists()
        assert (tmp_path / "results_summary.csv").exists()
        first = out.read_bytes()
        rc = main(["simulate", "--config", config, "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        assert out.read_bytes() == first

    def test_config_parsing(self, tmp_path):
        config = self._config(tmp_path, methods="fpls, rfpls",
                              contamination_levels="0.0, 0.1")
        cfg = load_experiment_config(config)
        assert cfg.methods == ("fpls", "rfpls")
        assert cfg.contamination_levels == (0.0, 0.1)
        assert cfg.replications == 1

    def test_config_errors(self, tmp_path):
        bad_key = tmp_path / "a.ini"
        bad_key.write_text("[experiment]\nbogus = 1\n")
        with pytest.raises(ConfigError, match="unknown config keys: bogus"):
            load_experiment_config(str(bad_key))
        no_section = tmp_path / "b.ini"
        no_section.write_text("[other]\nreplications = 1\n")
        with pytest.raises(ConfigError, match="missing"):
            load_experiment_config(str(no_section))
        bad_value = tmp_path / "c.ini"
        bad_value.write_text("[experiment]\nreplications = many\n")
        with pytest.raises(ConfigError, match="invalid value for replications"):
            load_experiment_config(str(bad_value))

    def test_config_with_byte_order_mark(self, tmp_path, capsys):
        """Editors on Windows often save INI files with a UTF-8 byte-order mark."""
        path = Path(self._config(tmp_path, methods="fpls, rfpls"))
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_experiment_config(str(path)).methods == ("fpls", "rfpls")
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "r.csv")])
        capsys.readouterr()
        assert rc == 0


class TestExitCodes:
    def _assert_fail(self, capsys, argv, code, kind, fragment):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == code
        lines = [ln for ln in err.splitlines() if ln]
        assert len(lines) == 1
        assert lines[0].startswith(f"rfpls: {kind} error: ")
        assert fragment in lines[0]

    def test_malformed_curve_cell(self, tmp_path, capsys):
        curves, response, _ = _make_tables(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("id,0.0,1.0\nu,1,oops\n")
        self._assert_fail(capsys,
                          ["fit", "--method", "fpls", "--curves", str(bad),
                           "--response", response, "--components", "1",
                           "--out", str(tmp_path / "m.json")],
                          2, "input", "line 2, column 3")

    def test_mismatched_sample_ids(self, tmp_path, capsys):
        curves, _, _ = _make_tables(tmp_path)
        other = tmp_path / "other.csv"
        write_response(other, ("x1", "x2"), np.array([1.0, 2.0]))
        self._assert_fail(capsys,
                          ["fit", "--method", "fpls", "--curves", curves,
                           "--response", str(other), "--components", "1",
                           "--out", str(tmp_path / "m.json")],
                          2, "input", "sample ids differ")

    def test_oversized_quoted_field(self, tmp_path, capsys):
        """A table that needs the csv module and holds a field past its size
        limit is an input error, not a traceback."""
        _, response, _ = _make_tables(tmp_path)
        big = tmp_path / "big.csv"
        big.write_text('"id",0.0,1.0\ns00,1,' + "1" * 200_000 + "\n")
        self._assert_fail(capsys,
                          ["cv", "--method", "fpls", "--curves", str(big),
                           "--response", response],
                          2, "input", f"{big}: field larger than field limit")

    @pytest.mark.parametrize("alpha", ["-0.5", "nan"])
    def test_trim_alpha_outside_unit_interval(self, tmp_path, capsys, alpha):
        curves, response, _ = _make_tables(tmp_path)
        self._assert_fail(capsys,
                          ["cv", "--method", "fpls", "--curves", curves,
                           "--response", response, "--num-basis", "8",
                           "--trim-alpha", alpha],
                          2, "input", f"alpha must be in [0, 1), got {float(alpha)}")

    def test_missing_file(self, tmp_path, capsys):
        self._assert_fail(capsys,
                          ["predict", "--model", str(tmp_path / "no.json"),
                           "--curves", "whatever.csv",
                           "--out", str(tmp_path / "p.csv")],
                          2, "input", "no.json")

    def test_predict_into_a_directory(self, tmp_path, capsys):
        curves, response, _ = _make_tables(tmp_path)
        model = tmp_path / "m.json"
        assert main(["fit", "--method", "fpls", "--curves", curves,
                     "--response", response, "--num-basis", "8",
                     "--components", "1", "--out", str(model)]) == 0
        capsys.readouterr()
        target = tmp_path / "outdir"
        target.mkdir()
        (target / "keep.txt").write_text("kept\n")
        self._assert_fail(capsys,
                          ["predict", "--model", str(model), "--curves", curves,
                           "--out", str(target)],
                          2, "input", "outdir")
        assert target.is_dir()
        assert (target / "keep.txt").read_text() == "kept\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_predict_to_a_descriptor_path(self, tmp_path, capsys):
        """``--out /dev/stdout`` with stdout sent to a file fills that file."""
        curves, response, _ = _make_tables(tmp_path)
        model, direct = tmp_path / "m.json", tmp_path / "direct.csv"
        assert main(["fit", "--method", "fpls", "--curves", curves,
                     "--response", response, "--num-basis", "8",
                     "--components", "1", "--out", str(model)]) == 0
        assert main(["predict", "--model", str(model), "--curves", curves,
                     "--out", str(direct)]) == 0
        redirected = tmp_path / "redirected.csv"
        redirected.write_text("an older and longer file\n" * 50)
        with open(redirected, "r+b") as handle:
            assert main(["predict", "--model", str(model), "--curves", curves,
                         "--out", f"/proc/self/fd/{handle.fileno()}"]) == 0
        capsys.readouterr()
        assert redirected.read_bytes() == direct.read_bytes()

    def test_wrong_predictor_count(self, tmp_path, capsys):
        curves, response, _ = _make_tables(tmp_path)
        model = tmp_path / "model.json"
        assert main(["fit", "--method", "fpls", "--curves", curves,
                     "--response", response, "--num-basis", "8",
                     "--components", "2", "--out", str(model)]) == 0
        capsys.readouterr()
        one_file = curves.split(",")[0]
        self._assert_fail(capsys,
                          ["predict", "--model", str(model),
                           "--curves", one_file,
                           "--out", str(tmp_path / "p.csv")],
                          2, "input", "model expects 2 curve files")

    def test_constant_response_is_numerical_failure(self, tmp_path, capsys):
        curves, _, ids = _make_tables(tmp_path)
        flat = tmp_path / "flat.csv"
        write_response(flat, ids, np.full(len(ids), 7.0))
        self._assert_fail(capsys,
                          ["fit", "--method", "rfpls", "--curves", curves,
                           "--response", str(flat), "--num-basis", "8",
                           "--components", "1", "--out", str(tmp_path / "m.json")],
                          3, "numerical", "")

    @pytest.mark.parametrize("n", [7, 40, 60])
    @pytest.mark.parametrize("tables", [{"scale": 2.0 ** -332}, {"scale": 0.0},
                                        {"same_curves": True}], ids=["tiny", "zero", "same"])
    @pytest.mark.parametrize("method", ["fpls", "rfpls"])
    def test_fit_without_components_writes_no_model(self, tmp_path, capsys, method, tables, n):
        """Curves scaled by 2^-332 leave no component to extract, and curves
        that are all zero or all the same have no variation.  The fit fails
        with exit 3 and keeps the file at ``--out``, instead of writing a
        model that ``predict`` refuses."""
        curves, response, _ = _make_tables(tmp_path, n=n, **tables)
        model = tmp_path / "m.json"
        model.write_bytes(b"an earlier model\n")
        self._assert_fail(capsys,
                          ["fit", "--method", method, "--curves", curves,
                           "--response", response, "--num-basis", "8",
                           "--components", "2", "--out", str(model)],
                          3, "numerical", "extracted no component of the 2 asked for")
        assert model.read_bytes() == b"an earlier model\n"

    @pytest.mark.parametrize("n", [7, 40, 60])
    @pytest.mark.parametrize("tables", [{"scale": 0.0}, {"same_curves": True}],
                             ids=["zero", "same"])
    def test_fpc_fit_without_components_writes_no_model(self, tmp_path, capsys, tables, n):
        """Curves that are all zero or all the same give principal components
        no direction: the fpc fit fails as fpls does without a component,
        with exit 3 and no model written."""
        curves, response, _ = _make_tables(tmp_path, n=n, **tables)
        self._assert_fail(capsys,
                          ["fit", "--method", "fpc", "--curves", curves,
                           "--response", response, "--num-basis", "8",
                           "--components", "17", "--out", str(tmp_path / "m.json")],
                          3, "numerical", "extracted no component of the 17 asked for")
        assert not (tmp_path / "m.json").exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[experiment]\nnope = 3\n")
        self._assert_fail(capsys,
                          ["simulate", "--config", str(config),
                           "--out", str(tmp_path / "r.csv")],
                          4, "config", "unknown config keys")

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "latin1.ini"
        config.write_bytes("[experiment]\n# caf\u00e9\nreplications = 1\n".encode("latin-1"))
        self._assert_fail(capsys,
                          ["simulate", "--config", str(config),
                           "--out", str(tmp_path / "r.csv")],
                          2, "input", "latin1.ini: not UTF-8 text")
        assert not (tmp_path / "r.csv").exists()

    def test_zero_workers_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "ok.ini"
        config.write_text("[experiment]\nreplications = 1\n")
        self._assert_fail(capsys,
                          ["simulate", "--config", str(config),
                           "--out", str(tmp_path / "r.csv"), "--workers", "0"],
                          4, "config", "workers must be at least 1, got 0")

    def test_config_that_cannot_run_is_a_config_error(self, tmp_path, capsys):
        """Five folds of 8 training rows leave CV test parts of one row,
        which trimming empties: refused before any data is generated."""
        config = tmp_path / "small.ini"
        config.write_text("[experiment]\nreplications = 2\nn_train = 8\n")
        self._assert_fail(capsys,
                          ["simulate", "--config", str(config),
                           "--out", str(tmp_path / "r.csv")],
                          4, "config", "smallest CV test part")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("lines, name", [
        ("methods = fpls, fpls\ncontamination_levels = 0.0", "methods"),
        ("contamination_levels = 0.1, 0.10", "contamination_levels"),
    ])
    def test_repeated_method_or_level_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                        lines, name):
        """A method or level named twice would run its cells twice and count
        them twice in the summary: refused before any data is generated."""
        monkeypatch.setattr(simulation, "generate_clean",
                            lambda *args: pytest.fail("data was generated"))
        config = tmp_path / "twice.ini"
        config.write_text("[experiment]\nreplications = 1\nn_train = 60\nn_test = 40\n"
                          f"num_basis = 8\nmax_components = 2\n{lines}\n")
        self._assert_fail(capsys,
                          ["simulate", "--config", str(config),
                           "--out", str(tmp_path / "r.csv")],
                          4, "config", f"{name} must not repeat a value")
        assert not (tmp_path / "r.csv").exists()

    def test_argparse_failures_use_exit_two(self, capsys):
        assert main(["unknown-command"]) == 2
        capsys.readouterr()
        assert main(["fit", "--method", "fpls"]) == 2
        capsys.readouterr()

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "fit" in capsys.readouterr().out


# The entry points run in child processes. They import the package from the
# source tree that this process imported, so no installation is needed and an
# installed copy elsewhere cannot stand in for the tree under test.
_SRC_DIR = Path(rfpls.__file__).resolve().parent.parent
_PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _child_env(path_prefix=None):
    """Environment for a child that imports rfpls from the source tree under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC_DIR), env.get("PYTHONPATH")]))
    if path_prefix is not None:
        env["PATH"] = os.pathsep.join(filter(None, [str(path_prefix), env.get("PATH")]))
    return env


class TestInstalledEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "rfpls.cli", "--help"],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert "simulate" in proc.stdout

    def test_console_script(self, tmp_path):
        """The `rfpls` script that pyproject.toml declares runs `--help`.

        The launcher is the one an installer writes for a console script,
        built here from the declared `module:attr` target.
        """
        tomllib = pytest.importorskip("tomllib")
        with open(_PYPROJECT, "rb") as handle:
            scripts = tomllib.load(handle)["project"].get("scripts", {})
        assert "rfpls" in scripts, "pyproject.toml declares no rfpls console script"
        module, attr = scripts["rfpls"].split(":")
        launcher = tmp_path / "rfpls"
        launcher.write_text(f"#!{sys.executable}\n"
                            "import sys\n"
                            f"from {module} import {attr}\n"
                            f"sys.exit({attr}())\n")
        launcher.chmod(0o755)

        proc = subprocess.run(["rfpls", "--help"], capture_output=True, text=True,
                              env=_child_env(path_prefix=tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "predict" in proc.stdout
