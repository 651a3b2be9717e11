"""Tests of the benchmark harness: self time, the median rule, rebinding
and transparency of the tracer, the interleaved measuring loop, the
reference canary, and agreement with BENCHMARK.json.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import rfpls  # noqa: E402
import rfpls.cli  # noqa: E402,F401  (the tracer must also rebind the CLI's references)

import layers  # noqa: E402
import run  # noqa: E402
from tracer import TRACED, Span, Tracer, references, self_times, summarize  # noqa: E402


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent, 0)


def test_self_time_subtracts_nested_children_once():
    spans = [_span("root", 0.0, 10.0), _span("child", 1.0, 4.0, 0),
             _span("grandchild", 2.0, 3.0, 1)]
    assert self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [_span("root", 0.0, 10.0), _span("a", 1.0, 5.0, 0), _span("b", 3.0, 7.0, 0),
             _span("c", 6.5, 6.8, 0), _span("d", 9.0, 12.0, 0)]
    # covered: [1, 7] and [9, 10]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([_span("leaf", 2.0, 2.5)]) == pytest.approx([0.5])


@pytest.mark.parametrize("n", [1, 2, 9, 1000])
def test_summary_reports_only_the_median_and_its_sample_count(n):
    values = [float(v) ** 2 for v in range(n)]
    assert summarize(values) == {"p50": pytest.approx(np.median(values)), "n": n}


def test_summary_of_no_samples_raises():
    with pytest.raises(ValueError):
        summarize([])


def _all_references():
    return {(module, name): list(references(getattr(sys.modules[f"rfpls.{module}"], name)))
            for module, name, _ in TRACED}


def test_tracer_rebinds_every_reference_and_restores_them():
    originals = {(m, n): getattr(sys.modules[f"rfpls.{m}"], n) for m, n, _ in TRACED}
    before = _all_references()
    fitter_dicts = [sys.modules[f"rfpls.{m}"]._FITTERS
                    for m in ("cli", "evaluation", "simulation")]
    assert all(len(refs) >= 1 for refs in before.values())
    tracer = Tracer()
    with tracer.installed():
        for key, refs in before.items():
            for namespace, name in refs:
                assert namespace[name] is not originals[key], key
                assert namespace[name].__wrapped__ is originals[key], key
        for registry in fitter_dicts:
            for fitter in registry.values():
                assert hasattr(fitter, "__wrapped__")
        assert rfpls.fit_rfpls is not originals[("regression", "fit_rfpls")]
    for key, refs in before.items():
        for namespace, name in refs:
            assert namespace[name] is originals[key], key
    after = _all_references()
    assert {k: len(v) for k, v in after.items()} == {k: len(v) for k, v in before.items()}
    for registry in fitter_dicts:
        assert all(not hasattr(f, "__wrapped__") for f in registry.values())


def _small_fit():
    # Calls go through module attributes, as the package's own calls do,
    # so that a traced run sees them.
    data = rfpls.simulation.contaminate(rfpls.simulation.generate_clean(60, 3), 0.1, 4)
    systems = [rfpls.basis.build_bspline_system((0.0, 1.0), 8) for _ in data.curves]
    design = rfpls.basis.build_design(data.curves, data.grids, systems)
    return rfpls.regression.fit_rfpls(design, data.y, 2)


def test_tracer_leaves_fit_rfpls_bit_identical_and_records_spans():
    plain = _small_fit()
    tracer = Tracer()
    with tracer.installed():
        traced = _small_fit()
    assert np.array_equal(plain.beta_coefs, traced.beta_coefs)
    assert plain.intercept == traced.intercept
    assert np.array_equal(plain.robust_report.weights, traced.robust_report.weights)
    names = {s.name for s in tracer.spans}
    assert {"regression.fit_rfpls", "robust_pls.prm_fit", "robust.l1_median",
            "robust.select_tuning", "robust.m_estimate", "basis.build_design"} <= names
    prm = [s for s in tracer.spans if s.name == "robust_pls.prm_fit"]
    assert prm[0].info["iterations"] == plain.robust_report.prm_iterations
    parent = tracer.spans[prm[0].parent]
    assert parent.name == "regression.fit_rfpls"
    assert all(s.end >= s.start for s in tracer.spans)


def test_per_layer_reports_every_metric_and_zero_for_idle_layers():
    spans = [_span("bench.op", 0.0, 4.0), _span("fileio.read_curves", 0.5, 1.5, 0)]
    spans[1].info["cells"] = 1000
    out = layers.per_layer(spans, units=1, efficiency=0.0, overhead=0.1)
    assert list(out) == [name for name, _, _ in layers.PER_LAYER]
    assert out["fileio.read_curves.self_s"]["value"] == pytest.approx(1.0)
    assert out["fileio.read_curves.cells_per_s"]["value"] == pytest.approx(1000.0)
    assert out["robust.l1_median.self_s"]["value"] == 0.0
    assert out["trace.coverage"]["value"] == pytest.approx(0.25)


class _Fake:
    """A workload whose output is ``(seed, input)`` and which logs each op."""

    name = "fake"
    period = 2

    def __init__(self):
        self.calls = []

    def setup(self, seed, workdir, inputs=None):
        self.seed = seed

    def attempts(self):
        return 1

    def op(self, index, tracer=None, **op_args):
        installed = hasattr(rfpls.regression.fit_rfpls, "__wrapped__")
        self.calls.append((index, tracer is not None, installed, op_args))
        return (self.seed, index % self.period), {}

    def exact(self, output):
        return output

    def check(self, index, output, reference):
        if reference is None or reference == output:
            return 0, []
        return 1, [f"{output} vs reference {reference}"]


def test_measure_runs_each_input_in_every_variant_back_to_back():
    workload = _Fake()
    workload.setup(0, None)
    tracer = Tracer()
    phases = run.measure(workload, 0.0, 4, None, [(None, {}), (tracer, {"workers": 1})])
    assert [len(p.walls) for p in phases] == [4, 4]
    assert [c[0] for c in workload.calls] == [0, 0, 1, 1, 2, 2, 3, 3]
    # The order rotates, and the tracer is installed only around its own op.
    assert [c[1] for c in workload.calls] == [False, True, True, False] * 2
    assert all(traced == installed for _, traced, installed, _ in workload.calls)
    assert all(c[3] == ({"workers": 1} if c[1] else {}) for c in workload.calls)
    assert not hasattr(rfpls.regression.fit_rfpls, "__wrapped__")
    assert {s.op for s in tracer.spans if s.name == "bench.op"} == {0, 1, 2, 3}
    assert run.transparency(*phases) == []


def test_best_per_input_median_takes_each_input_at_its_fastest():
    # Inputs 0, 1, 2 ran at 5/4, 3/6 and 1 s: their best are 4, 3 and 1.
    walls = [5.0, 3.0, 1.0, 4.0, 6.0]
    assert run.best_per_input_median(walls, 3) == 3.0
    assert run.best_per_input_median(walls, 1) == 1.0
    assert run.best_per_input_median(walls[:2], 8) == 4.0


def test_paired_ratio_is_the_median_of_per_input_ratios():
    a = run.Phase(walls=[1.0, 4.0, 30.0])
    b = run.Phase(walls=[1.0, 2.0, 3.0])
    assert run.paired_ratio(a, b) == pytest.approx(2.0)


def test_canary_checks_input_zero_of_a_recorded_seed(tmp_path):
    # Seed 5 maps to recorded seed 5 % 2 = 1, whose input 0 gives (1, 0).
    good = run.canary(_Fake, 5, {0: (0, 0), 1: (1, 0)}, str(tmp_path))
    assert (good.attempted, good.failed, good.problems) == (1, 0, [])
    bad = run.canary(_Fake, 5, {0: (0, 0), 1: (1, 1)}, str(tmp_path))
    assert (bad.attempted, bad.failed) == (1, 1)
    assert bad.problems[0].startswith("canary (seed 1) op 0:")


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == layers.PER_LAYER
    assert {m["name"] for m in doc["end_to_end"]} == {"setup_s", "peak_rss_mb",
                                                   "op_best_p50_s"}
    assert [w["name"] for w in doc["workloads"]] == ["mc_robust", "cli_fit"]
