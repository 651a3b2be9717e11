"""Every layer that the benchmark's tracer wraps exists in the package.

``bench/tracer.py`` lists its layers as ``(module, function)`` pairs in
``TRACED`` and rebinds ``rfpls.<module>.<function>`` while it traces; a
renamed or deleted function breaks ``bench/run.py --trace 1``."""

import importlib
import importlib.util
import sys
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_layer_is_a_package_function(monkeypatch):
    spec = importlib.util.spec_from_file_location("_bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while it loads.
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    missing = [f"rfpls.{module}.{name}" for module, name, _ in tracer.TRACED
               if not callable(getattr(importlib.import_module(f"rfpls.{module}"), name, None))]
    assert tracer.TRACED
    assert missing == []
