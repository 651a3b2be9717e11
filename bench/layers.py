"""Per-layer metrics computed from the spans of a traced run.

Counts and self times are per unit of work: per replication on
``mc_robust`` and per operation on the CLI workloads.  A layer that does
not run on a workload reports 0.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from tracer import Span, self_times

ROOT = "bench.op"
FITTERS = ("regression.fit_rfpls", "regression.fit_fpls", "regression.fit_fpc")

# Spans whose call count and self time are reported, in layer order.
COUNTED = [
    "evaluation.select_num_components",
    "regression.fit_rfpls", "regression.fit_fpls",
    "regression.predict", "regression.predict_from_design",
    "robust_pls.prm_fit", "robust_pls.initial_weights",
    "robust.l1_median", "robust.select_tuning", "robust.m_estimate",
    "simpls.weighted_simpls_fit",
    "basis.build_design", "basis.smooth_curves", "basis.gram_matrix",
    "fileio.read_curves",
]
SELF_ONLY = [
    "fileio.read_response", "fileio.save_model", "fileio.load_model",
    "fileio.write_predictions", "cli.main.fit", "cli.main.predict",
]
# Inclusive share of one replication (of one op on the CLI workloads),
# the quantities of the cProfile table in ROADMAP.md.
SHARES = {
    "select_num_components": "evaluation.select_num_components",
    "prm_fit": "robust_pls.prm_fit",
    "l1_median": "robust.l1_median",
    "select_tuning": "robust.select_tuning",
    "m_estimate": "robust.m_estimate",
    "build_design": "basis.build_design",
}

# (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = (
    [("simulation.replication.p50_s", "s", "lower"),
     ("simulation.parallel_efficiency", "ratio", "higher"),
     ("evaluation.cv_fits", "count", "lower"),
     ("evaluation.cv_skipped_frac", "ratio", "lower")]
    + [(f"{span}.{kind}", unit, "lower") for span in COUNTED
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("robust_pls.prm_fit.iterations_mean", "count", "lower"),
       ("robust_pls.prm_fit.nonconverged", "count", "lower"),
       ("robust.m_estimate.iterations_mean", "count", "lower"),
       ("robust.efficiency_factor.calls", "count", "lower"),
       ("fileio.read_curves.cells_per_s", "1/s", "higher")]
    + [(f"{span}.self_s", "s", "lower") for span in SELF_ONLY]
    + [(f"share.{short}", "ratio", "lower") for short in SHARES]
    + [("trace.overhead_frac", "ratio", "lower"),
       ("trace.coverage", "ratio", "higher")]
)


def per_layer(spans: list[Span], units: int, efficiency: float,
              overhead: float) -> dict:
    """Every metric of ``PER_LAYER`` from the spans of ``units`` units of work."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    for span, own_s in zip(spans, own):
        calls[span.name] += 1
        self_s[span.name] += own_s
        inclusive[span.name] += span.end - span.start

    def of(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def mean(values: list[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    values: dict[str, float] = {}
    replications = [s.end - s.start for s in of("simulation.replication")]
    values["simulation.replication.p50_s"] = (statistics.median(replications)
                                              if replications else 0.0)
    values["simulation.parallel_efficiency"] = efficiency
    cv = of("evaluation.select_num_components")
    values["evaluation.cv_fits"] = sum(
        1 for s in spans if s.name in FITTERS and s.parent >= 0
        and spans[s.parent].name == "evaluation.select_num_components") / units
    cells = sum(s.info.get("cells", 0) for s in cv)
    values["evaluation.cv_skipped_frac"] = (
        sum(s.info.get("skipped", 0) for s in cv) / cells if cells else 0.0)
    for span in COUNTED:
        values[f"{span}.calls"] = calls[span] / units
        values[f"{span}.self_s"] = self_s[span] / units
    prm = [s.info for s in of("robust_pls.prm_fit") if "iterations" in s.info]
    values["robust_pls.prm_fit.iterations_mean"] = mean([i["iterations"] for i in prm])
    values["robust_pls.prm_fit.nonconverged"] = sum(not i["converged"] for i in prm) / units
    mest = [s.info["iterations"] for s in of("robust.m_estimate") if "iterations" in s.info]
    values["robust.m_estimate.iterations_mean"] = mean(mest)
    values["robust.efficiency_factor.calls"] = calls["robust.efficiency_factor"] / units
    read_s = inclusive["fileio.read_curves"]
    values["fileio.read_curves.cells_per_s"] = (
        sum(s.info.get("cells", 0) for s in of("fileio.read_curves")) / read_s
        if read_s else 0.0)
    for span in SELF_ONLY:
        values[f"{span}.self_s"] = self_s[span] / units
    base = sum(replications) if replications else inclusive[ROOT]
    for short, span in SHARES.items():
        values[f"share.{short}"] = inclusive[span] / base if base else 0.0
    values["trace.overhead_frac"] = overhead
    values["trace.coverage"] = 1.0 - self_s[ROOT] / inclusive[ROOT] if inclusive[ROOT] else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def write_spans(path: str, spans: list[Span]) -> None:
    """One JSON object per span: name, start, end, parent index, op id, counts."""
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps({"name": span.name, "start": span.start, "end": span.end,
                                     "parent": span.parent, "op": span.op,
                                     "info": span.info}) + "\n")
