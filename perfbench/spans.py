"""In-memory spans around the library's public entry points.

A :class:`Tracer` replaces selected attributes of the library's modules
and classes with timing wrappers while it is installed, and puts the
originals back when it is removed.  Wrapping a name where the library
looks it up (``communityplan.solvers.milp``, ``communityplan.scenarios.cdist``)
times calls the library makes to it internally as well.  Spans stay in
memory with a parent link and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import os
import time
from pathlib import Path

import communityplan.io
import communityplan.lpformat
import communityplan.planner
import communityplan.scenarios
import communityplan.solvers
from communityplan.milp import Status

# The layers a traced operation's self time is attributed to (module names).
LAYERS = ("scenarios", "io", "planner", "milp", "lpformat", "solvers")


def current_rss_bytes() -> int | None:
    """Resident set size of this process now (Linux), else None."""
    try:
        resident_pages = int(Path("/proc/self/statm").read_text().split()[1])
    except (OSError, IndexError, ValueError):
        return None
    return resident_pages * os.sysconf("SC_PAGE_SIZE")


def _directory_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# Hooks run after the wrapped call returns, outside its span; they must stay
# cheap because their time lands in the parent span.
def _after_build(span, args, kwargs, result):
    span["attrs"]["model"] = result.model
    before, after = span["attrs"].pop("rss_before"), current_rss_bytes()
    if before is not None and after is not None:
        span["attrs"]["rss_growth"] = after - before


def _before_build(span, args, kwargs):
    span["attrs"]["rss_before"] = current_rss_bytes()


def _after_backend_solve(span, args, kwargs, result):
    span["attrs"]["model"] = args[1] if len(args) > 1 else kwargs["model"]
    span["attrs"]["optimal"] = result.status == Status.OPTIMAL


def _after_highs(span, args, kwargs, result):
    span["attrs"]["nodes"] = int(getattr(result, "mip_node_count", None) or 0)


def _after_distributed(span, args, kwargs, result):
    span["attrs"]["sweeps"] = int(result.solve_meta["iterations"])


def _after_export(span, args, kwargs, result):
    span["attrs"]["lp_bytes"] = len(result.encode())


def _after_features(span, args, kwargs, result):
    span["attrs"]["dims"] = int(result.shape[1])


def _after_kmedoids(span, args, kwargs, result):
    span["attrs"]["points"] = result.n_points


def _after_save(span, args, kwargs, result):
    span["attrs"]["bundle_bytes"] = _directory_bytes(Path(result).parent)


# (owner, attribute, span name, layer, before hook, after hook)
WRAPPED = (
    (communityplan.planner, "build_centralized", "planner.build", "planner",
     _before_build, _after_build),
    (communityplan.planner.BuiltModel, "extract", "planner.extract", "planner",
     None, None),
    (communityplan.planner, "solve_distributed", "planner.distributed", "planner",
     None, _after_distributed),
    (communityplan.solvers.ScipyBackend, "solve", "solvers.solve", "solvers",
     None, _after_backend_solve),
    (communityplan.solvers, "milp", "solvers.highs", "solvers", None, _after_highs),
    (communityplan.solvers, "constraint_violation", "solvers.verify", "milp",
     None, None),
    (communityplan.lpformat, "export_lp", "lpformat.export", "lpformat",
     None, _after_export),
    (communityplan.scenarios, "bootstrap_years", "scenarios.bootstrap", "scenarios",
     None, None),
    (communityplan.scenarios, "reduce_scenarios", "scenarios.reduce", "scenarios",
     None, None),
    (communityplan.scenarios, "scenario_feature_matrix", "scenarios.features",
     "scenarios", None, _after_features),
    (communityplan.scenarios, "kmedoids", "scenarios.kmedoids", "scenarios",
     None, _after_kmedoids),
    (communityplan.scenarios, "cdist", "scenarios.distance", "scenarios", None, None),
    (communityplan.io, "ingest_community", "io.ingest", "io", None, None),
    (communityplan.io, "save_scenarios", "io.save_scenarios", "io", None, _after_save),
    (communityplan.io, "load_scenarios", "io.load_scenarios", "io", None, None),
    (communityplan.io, "emit_reports", "io.emit_reports", "io", None, None),
)


class Tracer:
    """Collects spans; ``group`` tags each span with the run phase it
    belongs to (an operation number, or ``"setup"``)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.group: object = None

    def _open(self, name: str, layer: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "group": self.group,
            "name": name,
            "layer": layer,
            "start": 0.0,
            "end": 0.0,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span of the benchmark's own layer."""
        span = self._open(name, "bench")
        try:
            return fn(*args)
        finally:
            self._close(span)

    def _wrap(self, fn, name, layer, before, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, layer)
            if before is not None:
                before(span, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, layer, before, after in WRAPPED:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, layer, before, after))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the time its child spans cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Self time summed per layer, the benchmark's own layer included."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s["layer"]] = totals.get(s["layer"], 0.0) + own[s["id"]]
    return totals
