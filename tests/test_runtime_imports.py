"""numpy is the package's only runtime dependency: scipy stays out of every path."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import rfpls
from rfpls.basis import build_bspline_system, evaluate_basis
from rfpls.fileio import CurveTable, write_curves, write_response


def _scipy_imports(source: str) -> list[str]:
    """Line numbers of every ``import scipy...`` and ``from scipy... import``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.partition(".")[0] == "scipy" for name in names):
            found.append(node.lineno)
    return found


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
        package = Path(rfpls.__file__).parent
        found = {(source.name, line) for source in sorted(package.glob("*.py"))
                 for line in _scipy_imports(source.read_text(encoding="utf-8"))}
        assert found == set()


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
    import sys

    from rfpls.cli import main

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
    print("scipy modules:", sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
""")


def test_no_command_loads_scipy(tmp_path):
    """``fit``, ``predict``, ``cv`` and a two-worker ``simulate`` run in a
    fresh interpreter without loading scipy, in the CLI process or in any
    pool worker."""
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
                           str(tmp_path / "response.csv"), str(tmp_path / "experiment.ini")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "workers=2 completed_cells=8/8" in proc.stdout
    assert "scipy modules: []" in proc.stdout
    assert not log.exists(), log.read_text(encoding="utf-8")
