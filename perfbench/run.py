"""communityplan benchmark: time-to-plan and peak memory per workload.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload plan_24h --seed 0 --seconds 50 --trace 0

or every workload, each in a fresh child process::

    python3 perfbench/run.py --seed 0

``--trace 0`` reports the end-to-end metrics (wall_s, peak_rss_mb,
setup_s, ok_ratio); ``--trace 1`` reports the per-layer metrics from
in-memory spans.  The loop is closed: one process, one client, each
operation starts after the previous one ended.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("plan_24h", "year_pipeline")
SETUP_REPS = 3
MIN_REPEATS = 2

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_ratio": "ratio"}
PER_LAYER_UNITS = {
    "solvers.highs_s": "s", "solvers.highs_nodes": "count", "solvers.calls": "count",
    "solvers.optimal_ratio": "ratio", "solvers.assemble_s": "s", "solvers.verify_s": "s",
    "planner.build_s": "s", "milp.columns": "count", "milp.rows": "count",
    "milp.nonzeros": "count", "milp.binaries": "count", "milp.bytes_per_column": "B/column",
    "planner.extract_s": "s", "planner.coord_s": "s", "planner.subsolves": "count",
    "planner.sweeps": "count", "planner.objective_gap_pct": "%",
    "lpformat.export_s": "s", "lpformat.lp_mb": "MB",
    "scenarios.bootstrap_s": "s", "scenarios.features_s": "s", "scenarios.distance_s": "s",
    "scenarios.pam_s": "s", "scenarios.points": "count", "scenarios.feature_dims": "count",
    "io.save_scenarios_s": "s", "io.load_scenarios_s": "s", "io.bundle_mb": "MB",
    "io.emit_reports_s": "s", "io.ingest_s": "s",
    "process.cpu_s": "s", "trace.overhead_s": "s", "trace.coverage": "ratio",
}


def import_library() -> float:
    """Import the library from this checkout's ``src``; returns seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    # NumPy and SciPy each start an idle BLAS pool otherwise; the library
    # does no BLAS-heavy work, and this keeps the process to one thread
    # besides whatever HiGHS starts.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    t0 = time.perf_counter()
    try:
        import communityplan
        import spans  # noqa: F401  (imports the library's modules)
        import workloads  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import communityplan from {src}: {exc}")
    if not Path(communityplan.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: communityplan imported from {communityplan.__file__}, not {src}")
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy
    import scipy

    try:
        from scipy.optimize._highspy import _core

        highs = f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}.{_core.HIGHS_VERSION_PATCH}"
    except (ImportError, AttributeError):
        highs = "unknown"

    def proc_field(path: str, key: str) -> str:
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "threads_at_end": proc_field("/proc/self/status", "Threads"),
        "platform": platform.platform(),
    }


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _call(workload, index: int, tracer) -> dict:
    """One operation, timed from the library call to its checked result."""
    from workloads import CheckFailed

    inputs = workload.inputs(index)
    # Start every operation from the same collector state, as a fresh
    # process would, rather than paying for garbage the previous one left.
    gc.collect()
    if tracer is not None:
        tracer.group = index
        tracer.install()
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    try:
        if tracer is not None:
            outcome = tracer.root("bench.operation", workload.operation, inputs, index)
        else:
            outcome = workload.operation(inputs, index)
        error = None
    except Exception as exc:  # any failure of the operation counts against it
        outcome, error = None, f"{type(exc).__name__}: {exc}"
        if not isinstance(exc, CheckFailed):
            traceback.print_exc(file=sys.stderr)
    finally:
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
        if tracer is not None:
            tracer.uninstall()
    return {"index": index, "traced": tracer is not None, "wall": wall, "cpu": cpu,
            "outcome": outcome, "error": error}


def _count_models(tracer, group) -> None:
    """Replace the models a traced operation touched by their sizes."""
    counted: dict[int, dict] = {}
    for span in tracer.spans:
        model = span["attrs"].pop("model", None) if span["group"] == group else None
        if model is None:
            continue
        key = id(model)
        if key not in counted:
            counted[key] = {
                "columns": len(model.variables),
                "rows": len(model.constraints),
                "nonzeros": sum(len(c.expr.terms) for c in model.constraints),
                "binaries": model.stats()["binaries"],
            }
        span["attrs"]["counts"] = counted[key]


def _figures(group_spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced group (an operation, or set-up)."""
    from spans import LAYERS, layer_self_times, self_times

    own = self_times(group_spans)
    by_name: dict[str, list[dict]] = {}
    for s in group_spans:
        by_name.setdefault(s["name"], []).append(s)

    def spans_of(name):
        return by_name.get(name, [])

    def seconds(name):
        return sum(s["end"] - s["start"] for s in spans_of(name))

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans_of(name))

    f: dict[str, float] = {}
    if spans_of("solvers.solve"):
        highs, verify = seconds("solvers.highs"), seconds("solvers.verify")
        f["solvers.highs_s"] = highs
        f["solvers.highs_nodes"] = attr_sum("solvers.highs", "nodes")
        f["solvers.calls"] = len(spans_of("solvers.solve"))
        f["solvers.optimal"] = attr_sum("solvers.solve", "optimal")
        f["solvers.assemble_s"] = seconds("solvers.solve") - highs - verify
        f["solvers.verify_s"] = verify
    counts = [s["attrs"]["counts"] for s in group_spans if "counts" in s["attrs"]]
    if counts:
        largest = max(counts, key=lambda c: c["columns"])
        for key in ("columns", "rows", "nonzeros", "binaries"):
            f[f"milp.{key}"] = largest[key]
    if spans_of("planner.build"):
        f["planner.build_s"] = seconds("planner.build")
        growth = [s["attrs"]["rss_growth"] / s["attrs"]["counts"]["columns"]
                  for s in spans_of("planner.build") if "rss_growth" in s["attrs"]]
        if growth:
            f["milp.bytes_per_column"] = max(growth)
    if spans_of("planner.extract"):
        f["planner.extract_s"] = seconds("planner.extract")
    if spans_of("planner.distributed"):
        ids = {s["id"] for s in spans_of("planner.distributed")}
        f["planner.coord_s"] = sum(own[i] for i in ids)
        f["planner.subsolves"] = sum(1 for s in spans_of("solvers.solve") if s["parent"] in ids)
        f["planner.sweeps"] = attr_sum("planner.distributed", "sweeps")
    if spans_of("lpformat.export"):
        f["lpformat.export_s"] = seconds("lpformat.export")
        f["lpformat.lp_mb"] = attr_sum("lpformat.export", "lp_bytes") / 1e6
    if spans_of("scenarios.bootstrap"):
        f["scenarios.bootstrap_s"] = seconds("scenarios.bootstrap")
    if spans_of("scenarios.features"):
        f["scenarios.features_s"] = seconds("scenarios.features")
        f["scenarios.feature_dims"] = attr_sum("scenarios.features", "dims")
    if spans_of("scenarios.kmedoids"):
        f["scenarios.distance_s"] = seconds("scenarios.distance")
        f["scenarios.pam_s"] = sum(own[s["id"]] for s in spans_of("scenarios.kmedoids"))
        f["scenarios.points"] = attr_sum("scenarios.kmedoids", "points")
    if spans_of("io.save_scenarios"):
        f["io.save_scenarios_s"] = seconds("io.save_scenarios")
        f["io.bundle_mb"] = attr_sum("io.save_scenarios", "bundle_bytes") / 1e6
    for name, metric in (("io.load_scenarios", "io.load_scenarios_s"),
                         ("io.emit_reports", "io.emit_reports_s"),
                         ("io.ingest", "io.ingest_s")):
        if spans_of(name):
            f[metric] = seconds(name)
    if spans_of("bench.operation"):
        layer_own = layer_self_times(group_spans)
        f["trace.coverage"] = (
            sum(layer_own.get(layer, 0.0) for layer in LAYERS) / seconds("bench.operation")
        )
    return f


def per_layer_metrics(tracer, calls: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics: the median over traced operations of each figure.

    A figure no operation produces (the layer is not on the operation's
    path) is taken from the traced set-up, where the warm-up calls every
    layer once; such a figure predicts setup_s, not wall_s.
    """
    from spans import LAYERS, layer_self_times

    groups: dict[object, list[dict]] = {}
    for span in tracer.spans:
        groups.setdefault(span["group"], []).append(span)
    traced = [c for c in calls if c["traced"] and c["index"] in groups]
    setup = _figures(groups.get("setup", []))
    ops = [_figures(groups[c["index"]]) for c in traced]
    metrics: dict[str, float] = {}
    source: dict[str, str] = {}
    for name in PER_LAYER_UNITS:
        if name in ("process.cpu_s", "trace.overhead_s", "planner.objective_gap_pct"):
            continue
        key = "solvers.optimal" if name == "solvers.optimal_ratio" else name
        values = [f for f in ops if key in f]
        figures, source[name] = (values, "operation") if values else ([setup], "setup")
        if name == "solvers.optimal_ratio":
            calls_total = sum(f.get("solvers.calls", 0) for f in figures)
            metrics[name] = sum(f.get(key, 0) for f in figures) / calls_total if calls_total else 0.0
        elif name == "milp.bytes_per_column":
            metrics[name] = max((f.get(name, 0.0) for f in figures), default=0.0)
        elif PER_LAYER_UNITS[name] == "count":
            metrics[name] = statistics.median_low(f.get(name, 0) for f in figures)
        else:
            metrics[name] = statistics.median(f.get(name, 0.0) for f in figures)
    plain = {c["index"]: c for c in calls if not c["traced"]}
    metrics["process.cpu_s"] = statistics.median(c["cpu"] for c in plain.values())
    metrics["trace.overhead_s"] = statistics.median(
        c["wall"] - plain[c["index"]]["wall"] for c in traced if c["index"] in plain
    )
    gaps = [c["outcome"]["objective_gap_pct"] for c in calls
            if c["outcome"] and "objective_gap_pct" in c["outcome"]]
    metrics["planner.objective_gap_pct"] = statistics.median(gaps) if gaps else 0.0
    op_layers = [layer_self_times(groups[c["index"]]) for c in traced]
    layer_self = {
        layer: statistics.median(own.get(layer, 0.0) for own in op_layers)
        for layer in LAYERS + ("bench",)
    }
    return metrics, {"source": source, "layer_self_s": layer_self}


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float) -> int:
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[name](seed, work)
        tracer = spans.Tracer() if trace else None
        setup_times = []
        for rep in range(SETUP_REPS):
            last = rep == SETUP_REPS - 1
            if tracer is not None and last:
                tracer.group = "setup"
                tracer.install()
            t0 = time.perf_counter()
            try:
                workload.setup(rep)
            finally:
                setup_times.append(time.perf_counter() - t0)
                if tracer is not None and last:
                    tracer.uninstall()
        if tracer is not None:
            _count_models(tracer, "setup")

        calls: list[dict] = []
        started = time.perf_counter()
        deadline = started + seconds
        index = 0
        while True:
            index += 1
            order = [False] if tracer is None else [index % 2 == 1, index % 2 == 0]
            for traced in order:
                calls.append(_call(workload, index, tracer if traced else None))
                if traced:
                    _count_models(tracer, index)
            # Stop before a round that would end past the deadline, once every
            # pool input has had its minimum number of repeats.
            now = time.perf_counter()
            if index >= MIN_REPEATS * workload.pool and now + (now - started) / index > deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        errors = [f"operation {c['index']}: {c['error']}" for c in calls if c["error"]]
        attempted, failed = len(calls), len(errors)
        walls = [c["wall"] for c in calls if not c["traced"]]
        sizes = next((c["outcome"]["sizes"] for c in calls if c["outcome"]), {})
        report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "environment": environment(), "sizes": sizes, "errors": errors}
        if tracer is None:
            metrics = {
                # The mean, not the median: the host's speed shifts between
                # regimes for tens of seconds at a time, and the median of a
                # run that spans two regimes jumps between them, while the
                # mean follows the share of the run spent in each.
                "wall_s": statistics.mean(walls),
                "peak_rss_mb": peak_rss_mb,
                "setup_s": import_s + statistics.median(setup_times),
                "ok_ratio": (attempted - failed) / attempted,
            }
            units = END_TO_END_UNITS
            report.update(wall_samples=walls, setup_samples=setup_times, import_s=import_s)
        else:
            metrics, detail = per_layer_metrics(tracer, calls)
            units = PER_LAYER_UNITS
            report.update(detail, spans=tracer.spans)
        report["metrics"] = metrics
        results = OUT / "results"
        results.mkdir(exist_ok=True)
        result_path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
        result_path.write_text(json.dumps(report, indent=1, default=str) + "\n")

        print(f"workload {name} seed {seed} trace {int(trace)}: {attempted} operations "
              f"attempted, {failed} failed")
        print("environment " + json.dumps(report["environment"], sort_keys=True))
        print("sizes " + json.dumps(sizes, sort_keys=True))
        for error in errors:
            print(f"FAILED {error}")
        for metric, value in metrics.items():
            note = ""
            if metric == "wall_s":
                q = statistics.quantiles(walls, n=4) if len(walls) > 1 else [value] * 3
                note = (f"  (mean of {len(walls)} operations over {workload.pool} inputs; "
                        f"median {q[1]:.4f}, quartiles {q[0]:.4f} {q[2]:.4f})")
            elif tracer is not None and metric in detail["source"]:
                note = f"  ({detail['source'][metric]})"
            print(f"{metric} {value:.6g} {units[metric]}{note}")
        if tracer is not None:
            print("layer self time per operation (s): "
                  + json.dumps({k: round(v, 4) for k, v in detail["layer_self_s"].items()}))
        print(f"results in {result_path.relative_to(ROOT)}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own child process, then a summary table."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}")
            return 1
        results[name] = json.loads(lines[-1])
    print("\nworkload            metric                      value  unit")
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:19s} {metric:25s} {entry['value']:>9.4g}  {entry['unit']}")
        print(f"{name:19s} {'failed/attempted':25s} {result['failed']:>4d}/{result['attempted']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    import_s = import_library()
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)


if __name__ == "__main__":
    sys.exit(main())
