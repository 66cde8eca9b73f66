"""Pluggable MILP solve backends.

Two contracts are provided:

* :class:`ScipyBackend` runs HiGHS in process through the binding that
  SciPy bundles (``scipy.optimize._highspy._core``, SciPy >= 1.15) and is
  the default.
* :class:`CommandBackend` is the portability guarantee: it writes the
  model to an LP file, invokes an arbitrary solver through a
  command template such as ``"mysolver {model} --out {sol}"`` and reads
  the solution back from a ``name value`` whitespace table, turned into
  a vector by :func:`vector_from_names`, the one step from names to
  columns.

Both give the solver the model's cost vector
(:meth:`~communityplan.milp.Model.cost`), as an array or as the LP
objective, and return a :class:`~communityplan.milp.SolveResult` whose
``x`` is the solution vector in column order and whose objective is the
solver-reported optimum plus the model's objective constant.  A
returned solution is re-checked:
``solver_meta['max_violation']`` records the largest row violation and
``solver_meta['objective_recomputed']`` the objective
``cost @ x + constant`` at that point.  Both pass a solver only the rows
of :meth:`~communityplan.milp.Model.rows_with_terms`, and both return
``Status.INFEASIBLE`` without running one when a row without terms does
not hold.

:func:`milp` is the one place HiGHS runs: a fresh ``_Highs`` instance
per call takes the options, the model as the arrays the backend
assembles, and one ``run``.  Beyond the gap and the time limit it passes
:data:`HIGHS_OPTIONS`:

* ``mip_heuristic_run_feasibility_jump=False``.  Feasibility jump is a
  primal heuristic for integer programs whose first feasible point is
  hard to find.  Every model here is feasible through its priced grid
  slacks, and the heuristic was the largest share of a sub-model's MIP
  time beyond its LP relaxation.
* ``threads`` = the cores this process may run on.  HiGHS otherwise
  starts one worker on a 2-core machine; the second one shortens the
  central solve.

An option HiGHS does not accept, by name or by type, raises
:class:`SolverError`.  HiGHS keeps one thread scheduler per process,
sized by the first run that starts it, and a later run asking for another
thread count fails; so every run resets the scheduler first
(``_Highs.resetGlobalScheduler``).  The reset takes microseconds, and it
cannot race another solve because a HiGHS run holds the GIL.  Neither
setting changes the plans: on the criterion-1 instances the solution
vectors were bitwise equal to those at HiGHS's defaults.
"""

from __future__ import annotations

import math
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

try:
    from scipy.optimize._highspy._core import (
        HighsModelStatus,
        HighsStatus,
        MatrixFormat,
        ObjSense,
        _Highs,
        kHighsInf,
    )
except ImportError as exc:
    raise ImportError(
        "communityplan runs HiGHS through scipy.optimize._highspy._core, "
        "which needs scipy>=1.15"
    ) from exc

from .lpformat import export_lp, parse_solution_table
from .milp import (
    FEASIBILITY_TOL,
    Model,
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
    "vector_from_names",
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

# the outcome of every HiGHS model status; a status without an entry is a
# HiGHS failure and raises SolverError
_STATUS = {
    HighsModelStatus.kOptimal: Status.OPTIMAL,
    HighsModelStatus.kTimeLimit: Status.LIMIT,
    HighsModelStatus.kIterationLimit: Status.LIMIT,
    HighsModelStatus.kInfeasible: Status.INFEASIBLE,
    HighsModelStatus.kModelError: Status.INFEASIBLE,
    HighsModelStatus.kUnbounded: Status.UNBOUNDED,
}


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


@dataclass(frozen=True)
class HighsRun:
    """What one HiGHS run reports.

    ``x`` and ``fun`` (``c @ x``) are None without a solution;
    ``mip_gap`` and ``mip_node_count`` are None for a model without
    integer columns.
    """

    status: HighsModelStatus
    message: str
    x: np.ndarray | None = None
    fun: float | None = None
    mip_gap: float | None = None
    mip_node_count: int | None = None


def milp(c, *, integrality, bounds, constraints, options) -> HighsRun:
    """Minimize ``c @ x`` subject to ``lo <= x <= hi`` and
    ``row_lo <= A @ x <= row_hi`` in one HiGHS run.

    ``bounds`` is ``(lo, hi)``; ``constraints`` is ``(A, row_lo, row_hi)``
    with ``A`` a CSC matrix; ``integrality`` holds 1 for an integer column
    and 0 for a continuous one; ``options`` maps HiGHS option names to
    values, and one HiGHS rejects raises :class:`SolverError`.  HiGHS logs
    nothing.  A solution comes back at an optimum, and for a model with
    integer columns also at a time or iteration limit once an incumbent
    exists (finite objective).
    """
    highs = _Highs()
    for key, value in {"output_flag": False, **options}.items():
        if highs.setOptionValue(key, value) != HighsStatus.kOk:
            raise SolverError(f"HiGHS rejected option {key}={value!r}")
    lo, hi = bounds
    matrix, row_lo, row_hi = constraints
    loaded = highs.passModel(
        len(c), matrix.shape[0], matrix.nnz, MatrixFormat.kColwise, ObjSense.kMinimize,
        0.0, c, lo, hi, row_lo, row_hi, matrix.indptr, matrix.indices, matrix.data,
        integrality,
    )
    if loaded == HighsStatus.kError:
        status = HighsModelStatus.kModelError
        return HighsRun(status, highs.modelStatusToString(status))
    _Highs.resetGlobalScheduler(True)
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    is_mip = bool(integrality.any())
    solved = status == HighsModelStatus.kOptimal or (
        is_mip and _STATUS.get(status) == Status.LIMIT
        and info.objective_function_value < kHighsInf
    )
    return HighsRun(
        status,
        highs.modelStatusToString(status),
        x=np.array(highs.getSolution().col_value, float) if solved else None,
        fun=info.objective_function_value if solved else None,
        mip_gap=info.mip_gap if is_mip else None,
        mip_node_count=info.mip_node_count if is_mip else None,
    )


def vector_from_names(model: Model, values: Mapping[str, float]) -> np.ndarray:
    """The solution vector in column order of values keyed by variable
    name; :class:`SolverError` names a variable ``values`` lacks.  Names
    that are no variable of the model are ignored."""
    try:
        return np.array([values[name] for name in model.var_names()], float)
    except KeyError as exc:
        raise SolverError(f"solution lacks variable {exc.args[0]!r}") from None


def _objective_at(model: Model, x: np.ndarray) -> float:
    return float(model.cost() @ x + model.objective_constant)


def _finalize(model: Model, status: Status, objective: float, x: np.ndarray,
              meta: dict) -> SolveResult:
    """The result of an optimal or limit solve with solution ``x``, its
    feasibility re-checked."""
    meta["max_violation"] = constraint_violation(model, x)
    meta["objective_recomputed"] = _objective_at(model, x)
    return SolveResult(status, objective, x, meta)


class ScipyBackend:
    """In-process HiGHS through SciPy's bundled binding (see :func:`milp`).

    Each solve hands HiGHS the model's cost vector, column bounds and
    integrality, and the CSC matrix and activity bounds of the rows with
    terms, with the gap, the time limit when given and
    :data:`HIGHS_OPTIONS` (feasibility jump off, one thread per usable
    core).  The HiGHS model status maps to one :class:`Status`; a status
    outside that table (a HiGHS failure) raises :class:`SolverError`.
    """

    name = "scipy-highs"

    def solve(self, model: Model, options: SolveOptions | None = None) -> SolveResult:
        options = options or SolveOptions()
        t0 = time.perf_counter()
        meta: dict[str, object] = {"backend": self.name}
        rows, broken = model.rows_with_terms()
        if broken is not None:
            meta["infeasible_row"] = broken
            return SolveResult(Status.INFEASIBLE, math.nan, None, meta)
        if not len(model.variables):
            meta["wall_time_s"] = time.perf_counter() - t0
            return _finalize(model, Status.OPTIMAL, model.objective_constant,
                             np.zeros(0), meta)

        mat = model.matrix()
        con_lo, con_hi = model.row_bounds()
        if len(rows) < mat.shape[0]:
            mat, con_lo, con_hi = mat[rows], con_lo[rows], con_hi[rows]
        highs_options: dict[str, object] = {"mip_rel_gap": options.mip_gap,
                                            **HIGHS_OPTIONS}
        if options.time_limit_s is not None:
            highs_options["time_limit"] = options.time_limit_s
        res = milp(
            c=model.cost(),
            integrality=model.binary_mask().astype(np.int32),
            bounds=model.bounds(),
            constraints=(mat.tocsc(), con_lo, con_hi),
            options=highs_options,
        )
        if res.status not in _STATUS:
            raise SolverError(f"HiGHS failed ({res.status.name}): {res.message}")
        status = _STATUS[res.status]
        meta["message"] = res.message
        meta["wall_time_s"] = time.perf_counter() - t0
        if res.x is None:
            return SolveResult(status, math.nan, None, meta)
        objective = float(res.fun) + model.objective_constant
        if res.mip_gap is not None:
            meta["mip_gap"] = float(res.mip_gap)
        return _finalize(model, status, objective, res.x, meta)


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
            return SolveResult(Status.INFEASIBLE, math.nan, None, meta)
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
                return SolveResult(Status.LIMIT, math.nan, None, meta)
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
            return SolveResult(status, math.nan, None, meta)
        x = vector_from_names(model, values)
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
    ``solve(model, options)`` method that returns a
    :class:`~communityplan.milp.SolveResult`.  Its ``x`` is None or holds
    one value per column of the model, in column order; a solver that
    reports values by name turns them into that vector with
    :func:`vector_from_names`.  An ``x`` of another length raises
    :class:`SolverError`.
    """
    if isinstance(backend, str):
        if backend == "scipy":
            backend = ScipyBackend()
        elif "{" in backend:
            backend = CommandBackend(backend)
        else:
            raise SolverError(f"unknown backend '{backend}'")
    result = backend.solve(model, options)
    columns = len(model.variables)
    if result.x is not None and result.x.shape != (columns,):
        raise SolverError(
            f"backend returned a solution of {result.x.size} values for a model of "
            f"{columns} columns"
        )
    return result

