"""Run one rfpls benchmark workload and print its metrics.

From the repository root:

    python3 bench/run.py --workload cli_fit --seed 7 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
per-layer trace and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import layers
from tracer import Tracer, summarize

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3
MIN_OPS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import rfpls.cli; "
                "print(repr(time.perf_counter() - t))")


@dataclass
class Phase:
    """Timed operations of one phase of a run and their checks."""

    walls: list[float] = field(default_factory=list)
    parts: list[dict] = field(default_factory=list)
    exact: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def absorb(self, other: "Phase") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def run_op(workload, phase: Phase, index: int, reference, tracer=None, **op_args) -> None:
    """Run and check input ``index`` once, adding its wall time and outcome to ``phase``."""
    if tracer is not None:
        tracer.op = index
    phase.attempted += workload.attempts()
    start = time.perf_counter()
    try:
        with contextlib.nullcontext() if tracer is None else tracer.span("bench.op"):
            output, parts = workload.op(index, tracer=tracer, **op_args)
    except Exception:
        output, parts = None, {}
        phase.problems.append(f"op {index} raised:\n{traceback.format_exc()}")
    phase.walls.append(time.perf_counter() - start)
    phase.parts.append(parts)
    if output is None:
        phase.failed += workload.attempts()
        return
    failed, problems = workload.check(index, output, reference)
    phase.failed += failed
    phase.problems += [f"op {index}: {p}" for p in problems]
    phase.exact[index % workload.period] = workload.exact(output)


def measure(workload, seconds: float, min_ops: int, reference, variants) -> list[Phase]:
    """Closed loop with one client: run ops until ``seconds`` pass and ``min_ops`` ran.

    ``variants`` is a list of ``(tracer or None, op keyword arguments)``.
    Every input runs once in each variant, one right after the other, so
    machine drift cancels in ratios between variants.  The order rotates
    from input to input, so no variant always runs first.  A tracer is
    installed only around its own op.
    """
    phases = [Phase() for _ in variants]
    deadline = time.perf_counter() + seconds
    index = 0
    while index < min_ops or time.perf_counter() < deadline:
        for k in range(len(variants)):
            j = (index + k) % len(variants)
            tracer, op_args = variants[j]
            with contextlib.nullcontext() if tracer is None else tracer.installed():
                run_op(workload, phases[j], index, reference, tracer, **op_args)
        index += 1
    return phases


def transparency(*phases: Phase) -> list[str]:
    """Outputs of the same input must be bit-identical in every phase."""
    problems = []
    first = phases[0]
    compared = 0
    for other in phases[1:]:
        for key in first.exact.keys() & other.exact.keys():
            compared += 1
            if first.exact[key] != other.exact[key]:
                problems.append(f"input {key}: outputs differ between phases")
    if compared == 0:
        problems.append("no input ran in more than one phase; transparency unchecked")
    return problems


def paired_ratio(a: Phase, b: Phase) -> float:
    """Median over inputs of ``a``'s wall time over ``b``'s on the same input.

    Both phases come from one ``measure`` call, so each pair ran back to
    back.
    """
    return statistics.median(x / y for x, y in zip(a.walls, b.walls))


def setup_seconds(src: str) -> list[float]:
    """Import time of ``rfpls.cli`` in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip()))
    return out


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times that of its largest child.

    Read before the set-up probes start, so the only children counted
    are the pool workers of ``mc_robust``, of which ``workers`` run at
    once.  The sum of peaks bounds the peak of the sum from above.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as handle:
            libs = sorted({line.split()[-1] for line in handle
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = fn()
                break
    return out


def machine_context(cores: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def recorded_references(workload: str) -> dict:
    """Reference outputs of ``workload`` by seed, as recorded in reference.json."""
    with open(os.path.join(BENCH_DIR, "reference.json")) as handle:
        doc = json.load(handle)
    return {int(seed): ref for seed, ref in doc["workloads"].get(workload, {}).items()}


def canary(workload_class, seed: int, recorded: dict, workdir: str) -> Phase:
    """Check input 0 of a recorded seed, for a run whose own seed has no reference.

    The statistical limits alone do not catch every wrong estimator, so
    every run compares at least one output with reference.json.  Untimed.
    """
    seeds = sorted(recorded)
    chosen = seeds[seed % len(seeds)]
    probe = workload_class()
    probe.setup(chosen, os.path.join(workdir, "canary"), inputs=[0])
    phase = Phase()
    run_op(probe, phase, 0, recorded[chosen])
    phase.problems = [f"canary (seed {chosen}) {p}" for p in phase.problems]
    return phase


def best_per_input_median(walls: list[float], period: int) -> float:
    """Median over the distinct inputs of the fastest time of each input.

    Op ``i`` ran input ``i % period``.  Noise on a shared machine is
    one-sided: bursts of contention slow operations by up to 1.8x for
    10-60 s at a time, and nothing makes one faster than the program
    allows.  An input's fastest time is therefore the one least
    disturbed, while the median across inputs keeps their cost mix.
    """
    best: dict[int, float] = {}
    for index, wall in enumerate(walls):
        key = index % period
        best[key] = min(wall, best.get(key, wall))
    return statistics.median(best.values())


def timing_row(name: str, values: list[float]) -> tuple:
    """The median with its sample count."""
    summary = summarize(values)
    return (f"{name}_p50_s", summary["p50"], "s", summary["n"])


def end_to_end(workload, setup: list[float], rss_mb: float, main: Phase, attempted: int,
               failed: int) -> tuple[dict, list[tuple]]:
    """Gated metrics, and the table rows that also show the per-workload names."""
    op_p50 = statistics.median(main.walls)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "op_best_p50_s": {"value": best_per_input_median(main.walls, workload.period),
                          "unit": "s"},
    }
    n = len(main.walls)
    rows = [("setup_s", metrics["setup_s"]["value"], "s", len(setup)),
            ("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB", 1),
            ("op_best_p50_s", metrics["op_best_p50_s"]["value"], "s",
             min(len(main.walls), workload.period)),
            timing_row("op", main.walls),
            ("error_rate", failed / attempted, "ratio", attempted)]
    if workload.name == "mc_robust":
        rows.append(("mc_reps_per_s", workload.items() / op_p50, "1/s", n))
    elif workload.name == "cli_fit":
        for part in ("fit", "predict"):
            times = [p[f"{part}_s"] for p in main.parts if f"{part}_s" in p]
            if times:
                rows.append(timing_row(part, times))
    elif workload.name == "cli_predict_bulk":
        rows.append(("bulk_curves_per_s", workload.items() / op_p50, "1/s", n))
    return metrics, rows


def run(args) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rfpls", "__init__.py")):
        print("bench: src/rfpls not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS, nproc

    workload = WORKLOADS[args.workload]()
    recorded = recorded_references(workload.name)
    reference = recorded.get(args.seed)
    out_dir = os.path.join(BENCH_DIR, "out")
    workdir = os.path.join(out_dir, f"work-{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        total = Phase()
        if reference is None:
            total.absorb(canary(WORKLOADS[args.workload], args.seed, recorded, workdir))
        workload.setup(args.seed, workdir)
        if not args.trace:
            main, = measure(workload, args.seconds, MIN_OPS, reference, [(None, {})])
            total.absorb(main)
            rss_mb = peak_rss_mb(nproc() if workload.name == "mc_robust" else 0)
            metrics, rows = end_to_end(workload, setup_seconds(src), rss_mb, main,
                                       total.attempted, total.failed)
            walls = main.walls
        else:
            walls = []
            metrics, rows = traced_run(workload, args, reference, total, out_dir, nproc())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in total.problems[:20]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print("context " + json.dumps(machine_context(nproc()), sort_keys=True))
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} reference={'recorded' if reference else 'canary'}")
    if walls:
        print("op seconds: " + " ".join(f"{w:.3f}" for w in walls))
    print(f"{'metric':<48} {'value':>14} {'unit':<8} samples")
    for name, value, unit, n in rows:
        print(f"{name:<48} {value:>14.6g} {unit:<8} {n}")
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0


def traced_run(workload, args, reference, total: Phase, out_dir: str,
               cores: int) -> tuple[dict, list[tuple]]:
    """Each input untraced, then traced (and on mc_robust also at nproc workers)."""
    tracer = Tracer()
    # Spans in pool children cannot be collected, so mc_robust traces serially.
    serial = {"workers": 1} if workload.name == "mc_robust" else {}
    variants = [(None, serial), (tracer, serial)]
    if workload.name == "mc_robust":
        variants.append((None, {}))
    phases = measure(workload, args.seconds, 1, reference, variants)
    untraced, traced = phases[:2]
    efficiency = paired_ratio(untraced, phases[2]) / cores if len(phases) > 2 else 0.0
    for phase in phases:
        total.absorb(phase)
    mismatch = transparency(*phases)
    if mismatch:
        total.failed += traced.attempted
        total.problems += mismatch
    overhead = paired_ratio(traced, untraced) - 1.0
    # Per replication on mc_robust, per operation on the CLI workloads.
    units = len(traced.walls) * (workload.items() if workload.name == "mc_robust" else 1)
    metrics = layers.per_layer(tracer.spans, units, efficiency, overhead)
    path = os.path.join(out_dir, f"trace-{workload.name}-seed{args.seed}.jsonl")
    layers.write_spans(path, tracer.spans)
    rows = [(name, m["value"], m["unit"], units) for name, m in metrics.items()]
    return metrics, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["mc_robust", "cli_fit", "cli_predict_bulk"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
