"""Pluggable MILP solve backends.

Two contracts are provided:

* :class:`ScipyBackend` runs HiGHS in process through
  ``scipy.optimize.milp`` and is the default.
* :class:`CommandBackend` is the portability guarantee: it writes the
  model to an LP file, invokes an arbitrary solver through a
  command template such as ``"mysolver {model} --out {sol}"`` and reads
  the solution back from a ``name value`` whitespace table.

Both give the solver the model's cost vector
(:meth:`~communityplan.milp.Model.cost`), as an array or as the LP
objective, and return a :class:`~communityplan.milp.SolveResult` whose
objective is the solver-reported optimum plus the model's objective
constant.  A returned solution is re-checked:
``solver_meta['max_violation']`` records the largest row violation and
``solver_meta['objective_recomputed']`` the objective
``cost @ x + constant`` at that point.  Both pass a solver only the rows
of :meth:`~communityplan.milp.Model.rows_with_terms`, and both return
``Status.INFEASIBLE`` without running one when a row without terms does
not hold.

:class:`ScipyBackend` passes HiGHS two options beyond SciPy's own keys,
fixed in :data:`HIGHS_OPTIONS`:

* ``mip_heuristic_run_feasibility_jump=False``.  Feasibility jump is a
  primal heuristic for integer programs whose first feasible point is
  hard to find.  Every model here is feasible through its priced grid
  slacks, and the heuristic was the largest share of a sub-model's MIP
  time beyond its LP relaxation.
* ``threads`` = the cores this process may run on.  HiGHS otherwise
  starts one worker on a 2-core machine; the second one shortens the
  central solve.

HiGHS keeps one thread scheduler per process, sized by the first run
that starts it.  A later run asking for another thread count fails
("HiGHS Status 0: Not Set", ``milp`` status 4), so every solve resets
the scheduler first (``_Highs.resetGlobalScheduler``, from SciPy's
private ``scipy.optimize._highspy._core``; SciPy >= 1.15).  The reset
takes microseconds, and it cannot race another solve because a HiGHS
run holds the GIL.  Neither setting changes the plans: on the
criterion-1 instances the solution vectors were bitwise equal to those
at HiGHS's defaults.
"""

from __future__ import annotations

import math
import os
import subprocess
import tempfile
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._highspy._core import _Highs

from .lpformat import export_lp, parse_solution_table
from .milp import (
    FEASIBILITY_TOL,
    Model,
    SolutionValues,
    SolveResult,
    Status,
    constraint_violation,
)

__all__ = [
    "SolveOptions",
    "SolverError",
    "ScipyBackend",
    "CommandBackend",
    "solve",
    "FEASIBILITY_TOL",
    "HIGHS_OPTIONS",
]

# design variables are compared across sensitivity runs and must be
# stable, hence the tight default gap
DEFAULT_MIP_GAP = 1e-6


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# raw HiGHS options of every ScipyBackend solve (see the module docstring)
HIGHS_OPTIONS = MappingProxyType({
    "mip_heuristic_run_feasibility_jump": False,
    "threads": _usable_cores(),
})

# scipy.optimize.milp status codes; 4 ("Other") is a HiGHS failure and
# has no entry, so it raises instead of passing for a limit
_MILP_STATUS = {0: Status.OPTIMAL, 1: Status.LIMIT, 2: Status.INFEASIBLE,
                3: Status.UNBOUNDED}


@dataclass(frozen=True)
class SolveOptions:
    """Per-solve limits that every backend honours.

    The HiGHS settings of :class:`ScipyBackend` are not options: they
    are fixed in :data:`HIGHS_OPTIONS` (feasibility jump off, one thread
    per usable core) and leave the plans unchanged.
    """

    time_limit_s: float | None = None
    mip_gap: float = DEFAULT_MIP_GAP


class SolverError(RuntimeError):
    """Backend could not be launched or produced unusable output."""


def _vector(model: Model, values) -> np.ndarray:
    """Solution vector in column order from values keyed by name."""
    try:
        return np.array([values[name] for name in model.var_names()], float)
    except KeyError as exc:
        raise SolverError(f"solution lacks variable {exc.args[0]!r}") from None


def _objective_at(model: Model, x: np.ndarray) -> float:
    return float(model.cost() @ x + model.objective_constant)


def _finalize(model: Model, status: Status, objective: float, x: np.ndarray | None,
              meta: dict) -> SolveResult:
    if x is None:
        return SolveResult(status=status, objective=objective, values={}, solver_meta=meta)
    if status in (Status.OPTIMAL, Status.LIMIT):
        meta["max_violation"] = constraint_violation(model, x)
        meta["objective_recomputed"] = _objective_at(model, x)
    return SolveResult(status=status, objective=objective,
                       values=SolutionValues(model, x), solver_meta=meta)


class ScipyBackend:
    """In-process HiGHS via scipy.optimize.milp.

    Each solve adds :data:`HIGHS_OPTIONS` (feasibility jump off, one
    thread per usable core) to the gap and time limit, and resets HiGHS's
    process-wide thread scheduler first, so that a process which ran
    HiGHS with another thread count still solves.  SciPy's warning that
    these keys are passed to HiGHS verbatim is silenced; no other warning
    is.
    """

    name = "scipy-highs"

    def solve(self, model: Model, options: SolveOptions | None = None) -> SolveResult:
        options = options or SolveOptions()
        t0 = time.perf_counter()
        meta: dict[str, object] = {"backend": self.name}
        rows, broken = model.rows_with_terms()
        if broken is not None:
            meta["infeasible_row"] = broken
            return SolveResult(Status.INFEASIBLE, math.nan, {}, meta)
        if not len(model.variables):
            meta["wall_time_s"] = time.perf_counter() - t0
            return _finalize(model, Status.OPTIMAL, model.objective_constant,
                             np.zeros(0), meta)

        integrality = model.binary_mask().astype(np.int64)
        lo, hi = (np.array(b) for b in model.bounds())

        constraints = ()
        mat = model.matrix()
        if len(rows):
            con_lo, con_hi = model.row_bounds()
            if len(rows) < mat.shape[0]:
                mat, con_lo, con_hi = mat[rows], con_lo[rows], con_hi[rows]
            constraints = LinearConstraint(mat.tocsc(), con_lo, con_hi)

        milp_options: dict[str, object] = {"mip_rel_gap": options.mip_gap,
                                           **HIGHS_OPTIONS}
        if options.time_limit_s is not None:
            milp_options["time_limit"] = options.time_limit_s
        _Highs.resetGlobalScheduler(True)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Unrecognized options detected",
                                    RuntimeWarning)
            res = milp(
                c=model.cost(),
                constraints=constraints,
                integrality=integrality,
                bounds=Bounds(lo, hi),
                options=milp_options,
            )
        if res.status not in _MILP_STATUS:
            raise SolverError(f"HiGHS failed (milp status {res.status}): {res.message}")
        status = _MILP_STATUS[res.status]
        meta["message"] = res.message
        meta["wall_time_s"] = time.perf_counter() - t0
        if res.x is None:
            return SolveResult(status, math.nan, {}, meta)
        objective = float(res.fun) + model.objective_constant
        if getattr(res, "mip_gap", None) is not None:
            meta["mip_gap"] = float(res.mip_gap)
        return _finalize(model, status, objective, np.asarray(res.x, float), meta)


class CommandBackend:
    """File-based backend around an external solver process.

    ``cmd_template`` is formatted with ``{model}`` (path of the exported
    LP file) and ``{sol}`` (path the solver must write its
    ``name value`` solution table to); optional placeholders
    ``{time_limit}`` and ``{mip_gap}`` receive the solve options.
    """

    name = "command"

    def __init__(self, cmd_template: str) -> None:
        self.cmd_template = cmd_template

    def solve(self, model: Model, options: SolveOptions | None = None) -> SolveResult:
        options = options or SolveOptions()
        t0 = time.perf_counter()
        meta: dict[str, object] = {"backend": self.name, "command": self.cmd_template}
        broken = model.rows_with_terms()[1]
        if broken is not None:
            meta["infeasible_row"] = broken
            return SolveResult(Status.INFEASIBLE, math.nan, {}, meta)
        with tempfile.TemporaryDirectory(prefix="communityplan_") as tmp:
            model_path = Path(tmp) / "model.lp"
            sol_path = Path(tmp) / "model.sol"
            model_path.write_text(export_lp(model))
            cmd = self.cmd_template.format(
                model=model_path,
                sol=sol_path,
                time_limit=options.time_limit_s or 0,
                mip_gap=options.mip_gap,
            )
            try:
                proc = subprocess.run(
                    cmd,
                    shell=True,
                    capture_output=True,
                    text=True,
                    timeout=options.time_limit_s,
                )
            except subprocess.TimeoutExpired:
                meta["wall_time_s"] = time.perf_counter() - t0
                return SolveResult(Status.LIMIT, math.nan, {}, meta)
            meta["returncode"] = proc.returncode
            if not sol_path.exists():
                raise SolverError(
                    f"solver command produced no solution file: {cmd!r} "
                    f"(rc={proc.returncode}, stderr={proc.stderr[-500:]!r})"
                )
            status, objective, values = parse_solution_table(sol_path.read_text())
        meta["wall_time_s"] = time.perf_counter() - t0
        if status in (Status.INFEASIBLE, Status.UNBOUNDED) or (
            not values and len(model.variables)
        ):
            return SolveResult(status, math.nan, {}, meta)
        x = _vector(model, values)
        if objective is None:
            objective = _objective_at(model, x)
        return _finalize(model, status, float(objective), x, meta)


def solve(
    model: Model,
    backend: object = "scipy",
    options: SolveOptions | None = None,
) -> SolveResult:
    """Solve with the given backend.

    ``backend`` may be the string ``"scipy"``, a command template string
    containing ``{model}``/``{sol}`` placeholders, or any object with a
    ``solve(model, options)`` method.  Values a backend returns keyed by
    name come back as a solution vector over the model's columns.
    """
    if isinstance(backend, str):
        if backend == "scipy":
            backend = ScipyBackend()
        elif "{" in backend:
            backend = CommandBackend(backend)
        else:
            raise SolverError(f"unknown backend '{backend}'")
    result = backend.solve(model, options)
    if result.x is None and result.values:
        result = replace(result, values=SolutionValues(model, _vector(model, result.values)))
    return result

