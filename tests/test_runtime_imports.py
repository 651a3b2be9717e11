"""What each process imports: numpy is the package's only runtime
dependency, so scipy stays out of every path, and ``fit``, ``predict`` and
``cv`` start without the Monte Carlo harness that only ``simulate`` runs."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import rfpls
from rfpls import robust
from rfpls.basis import build_bspline_system, evaluate_basis
from rfpls.fileio import CurveTable, write_curves, write_response

# Loaded only by ``simulate``: the process pool and the INI parser.
_DEFERRED = ("rfpls.simulation", "concurrent.futures", "multiprocessing", "configparser")


def _imports(source: str) -> list[tuple[int, str, bool]]:
    """``(line, module, in_function)`` for each module an import names.

    ``from a import b`` names both ``a`` and ``a.b``, relative imports
    resolve inside ``rfpls``, and ``in_function`` marks an import that runs
    only when its function is called.
    """
    tree = ast.parse(source)
    in_function = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["rfpls" if node.level else None, node.module]))
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [(node.lineno, name, id(node) in in_function) for name in names]
    return found


def _within(name: str, *packages: str) -> bool:
    return any(name == p or name.startswith(p + ".") for p in packages)


def _scipy_imports(source: str) -> list[int]:
    """Line numbers of every ``import scipy...`` and ``from scipy... import``."""
    return sorted({line for line, name, _ in _imports(source) if _within(name, "scipy")})


def _start_up_imports(filename: str, source: str) -> list[int]:
    """Lines that would put the process pool or the INI parser on the path of
    ``import rfpls.cli``: only ``simulation.py`` may import the pool modules,
    and ``simulation`` and ``configparser`` are imported inside functions only."""
    return sorted({line for line, name, in_function in _imports(source)
                   if (_within(name, "concurrent.futures", "multiprocessing")
                       and filename != "simulation.py")
                   or (_within(name, "rfpls.simulation", "configparser") and not in_function)})


def _package_sources():
    package = Path(rfpls.__file__).parent
    return [(source.name, source.read_text(encoding="utf-8"))
            for source in sorted(package.glob("*.py"))]


class TestNoScipyImport:
    def test_scan_finds_scipy_imports(self):
        source = ("import scipy\n"
                  "import numpy, scipy.linalg as la\n"
                  "from scipy.interpolate import BSpline\n"
                  "from . import scipy_like\n"
                  "import scipyx\n"
                  "def f():\n"
                  "    from scipy import integrate\n")
        assert _scipy_imports(source) == [1, 2, 3, 7]

    def test_package_never_imports_scipy(self):
        """Not at module level and not lazily inside a function."""
        found = {(name, line) for name, source in _package_sources()
                 for line in _scipy_imports(source)}
        assert found == set()


class TestStartUpImports:
    def test_scan_finds_start_up_imports(self):
        source = ("import configparser\n"
                  "from .simulation import run_experiment\n"
                  "from . import simulation, basis\n"
                  "import rfpls.simulation as sim\n"
                  "from concurrent import futures\n"
                  "import multiprocessing.pool\n"
                  "from .simulation_like import x\n"
                  "import concurrent\n"
                  "def f():\n"
                  "    import configparser\n"
                  "    from .simulation import ExperimentConfig\n"
                  "    from concurrent.futures import ProcessPoolExecutor\n"
                  "class C:\n"
                  "    import configparser\n")
        assert _start_up_imports("cli.py", source) == [1, 2, 3, 4, 5, 6, 12, 14]
        assert _start_up_imports("simulation.py", source) == [1, 2, 3, 4, 14]

    def test_package_keeps_the_start_up_path_lean(self):
        found = {(name, line) for name, source in _package_sources()
                 for line in _start_up_imports(name, source)}
        assert found == set()


class TestExportTable:
    """``rfpls`` exports every public name from the module that defines it,
    importing that module the first time one of its names is used."""

    def test_names_resolve_to_their_definitions(self):
        for name in rfpls.__all__:
            value = getattr(rfpls, name)
            module = sys.modules[value.__module__]
            assert module.__name__.startswith("rfpls."), name
            assert getattr(module, name) is value, name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from rfpls import *", namespace)
        assert [name for name in rfpls.__all__
                if namespace.get(name) is not getattr(rfpls, name)] == []

    def test_listing(self):
        assert len(set(rfpls.__all__)) == len(rfpls.__all__)
        assert set(rfpls.__all__) <= set(dir(rfpls))
        with pytest.raises(AttributeError, match="no_such_name"):
            rfpls.no_such_name  # noqa: B018

    def test_retired_names_are_gone(self):
        """Names that only tests called were removed, not just unexported."""
        from rfpls import basis, evaluation, simpls
        from rfpls.basis import MultiFunctionalDesign
        retired = {basis: ("sqrt_gram", "inv_sqrt_gram"), evaluation: ("iqr_outliers",),
                   robust: ("bisquare_weight",), simpls: ("pls_predict",)}
        for module, names in retired.items():
            for name in names:
                assert name not in rfpls.__all__, name
                assert not hasattr(module, name), name
                with pytest.raises(AttributeError, match=name):
                    getattr(rfpls, name)
        assert not hasattr(MultiFunctionalDesign, "block_slices")

    def test_rebinding_in_the_module_is_seen(self, monkeypatch):
        monkeypatch.setattr(robust, "l1_median", sum)
        assert rfpls.l1_median is sum


# Loaded by every Python process that gets the environment below, pool
# workers included: it logs each attempt to import scipy and lets it go on.
_SITECUSTOMIZE = textwrap.dedent("""\
    import os
    import sys


    class _ScipyImportLog:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] == "scipy":
                with open(os.environ["SCIPY_IMPORT_LOG"], "a", encoding="utf-8") as handle:
                    handle.write(f"{os.getpid()} {name}\\n")
            return None


    sys.meta_path.insert(0, _ScipyImportLog())
""")

_DRIVER = textwrap.dedent("""\
    import json
    import sys

    from rfpls.cli import main

    DEFERRED = json.loads(sys.argv[4])
    loaded = {"import": [m for m in DEFERRED if m in sys.modules]}
    shared = ["--curves", sys.argv[1], "--response", sys.argv[2], "--num-basis", "8",
              "--max-components", "3"]
    runs = [["fit", "--method", "rfpls", *shared, "--cv-folds", "3", "--out", "model.json"],
            ["predict", "--model", "model.json", "--curves", sys.argv[1],
             "--out", "predictions.csv"],
            ["cv", "--method", "fpls", *shared, "--folds", "3"],
            ["simulate", "--config", sys.argv[3], "--out", "results.csv", "--workers", "2"]]
    for argv in runs:
        if main(argv) != 0:
            sys.exit(f"{argv[0]} failed")
        loaded[argv[0]] = [m for m in DEFERRED if m in sys.modules]
    print("deferred modules:", json.dumps(loaded))
    print("scipy modules:", sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
""")


@pytest.fixture(scope="module")
def command_run(tmp_path_factory):
    """``fit``, ``predict``, ``cv`` and a two-worker ``simulate`` in one fresh
    interpreter, with every attempt to import scipy logged."""
    tmp_path = tmp_path_factory.mktemp("commands")
    rng = np.random.default_rng(0)
    ids = tuple(f"s{i:02d}" for i in range(40))
    grid = np.linspace(0.0, 1.0, 50)
    bmat = evaluate_basis(build_bspline_system((0.0, 1.0), 8), grid)
    coefs = [rng.normal(size=(40, 8)) for _ in range(2)]
    curve_paths = []
    for m, block in enumerate(coefs):
        curve_paths.append(str(tmp_path / f"curves{m + 1}.csv"))
        write_curves(curve_paths[-1], CurveTable(ids, grid, block @ bmat.T))
    y = sum(block @ rng.normal(size=8) for block in coefs) + 0.3 * rng.normal(size=40)
    write_response(tmp_path / "response.csv", ids, y)
    (tmp_path / "experiment.ini").write_text(
        "[experiment]\nmethods = fpls, rfpls\ncontamination_levels = 0.0, 0.1\n"
        "replications = 2\nn_train = 30\nn_test = 30\nnum_basis = 8\n"
        "max_components = 2\ncv_folds = 3\nseed = 4\n", encoding="utf-8")
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(_SITECUSTOMIZE, encoding="utf-8")
    (tmp_path / "driver.py").write_text(_DRIVER, encoding="utf-8")
    log = tmp_path / "scipy_imports.log"
    src = Path(rfpls.__file__).parent.parent
    env = {**os.environ, "SCIPY_IMPORT_LOG": str(log),
           "PYTHONPATH": os.pathsep.join([str(site), str(src)])}
    proc = subprocess.run([sys.executable, "driver.py", ",".join(curve_paths),
                           str(tmp_path / "response.csv"), str(tmp_path / "experiment.ini"),
                           json.dumps(_DEFERRED)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "workers=2 completed_cells=8/8" in proc.stdout
    return proc, log


def test_no_command_loads_scipy(command_run):
    """``fit``, ``predict``, ``cv`` and a two-worker ``simulate`` run in a
    fresh interpreter without loading scipy, in the CLI process or in any
    pool worker."""
    proc, log = command_run
    assert "scipy modules: []" in proc.stdout
    assert not log.exists(), log.read_text(encoding="utf-8")


def test_only_simulate_loads_the_monte_carlo_harness(command_run):
    """``import rfpls.cli``, then ``fit`` with cross-validation, ``predict``
    and ``cv`` leave the harness, its process pool and the INI parser
    unloaded; ``simulate`` loads them."""
    proc, _ = command_run
    line, = (ln for ln in proc.stdout.splitlines() if ln.startswith("deferred modules: "))
    loaded = json.loads(line.removeprefix("deferred modules: "))
    assert loaded == {"import": [], "fit": [], "predict": [], "cv": [],
                      "simulate": list(_DEFERRED)}
