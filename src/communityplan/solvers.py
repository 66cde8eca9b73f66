"""Pluggable MILP solve backends.

Two contracts are provided:

* :class:`ScipyBackend` runs HiGHS in process through
  ``scipy.optimize.milp`` and is the default.
* :class:`CommandBackend` is the portability guarantee: it writes the
  model to an LP (or MPS) file, invokes an arbitrary solver through a
  command template such as ``"mysolver {model} --out {sol}"`` and reads
  the solution back from a ``name value`` whitespace table.

Both return a :class:`~communityplan.milp.SolveResult` whose objective is
the solver-reported optimum plus the model's objective constant;
feasibility of optimal results is re-checked and recorded in
``solver_meta['max_violation']``.  Both pass a solver only the rows of
:meth:`~communityplan.milp.Model.rows_with_terms`, and both return
``Status.INFEASIBLE`` without running one when a row without terms does
not hold.
"""

from __future__ import annotations

import math
import subprocess
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .lpformat import export_lp, export_mps, parse_solution_table
from .milp import (
    FEASIBILITY_TOL,
    Model,
    SolutionValues,
    SolveResult,
    Status,
    constraint_violation,
    evaluate,
)

__all__ = [
    "SolveOptions",
    "SolverError",
    "ScipyBackend",
    "CommandBackend",
    "solve",
    "FEASIBILITY_TOL",
]

# design variables are compared across sensitivity runs and must be
# stable, hence the tight default gap
DEFAULT_MIP_GAP = 1e-6


@dataclass(frozen=True)
class SolveOptions:
    time_limit_s: float | None = None
    mip_gap: float = DEFAULT_MIP_GAP
    seed: int | None = None


class SolverError(RuntimeError):
    """Backend could not be launched or produced unusable output."""


def _vector(model: Model, values) -> np.ndarray:
    """Solution vector in column order from values keyed by name."""
    try:
        return np.array([values[name] for name in model.var_names()], float)
    except KeyError as exc:
        raise SolverError(f"solution lacks variable {exc.args[0]!r}") from None


def _finalize(model: Model, status: Status, objective: float, x: np.ndarray | None,
              meta: dict) -> SolveResult:
    if x is None:
        return SolveResult(status=status, objective=objective, values={}, solver_meta=meta)
    if status in (Status.OPTIMAL, Status.LIMIT):
        meta["max_violation"] = constraint_violation(model, x)
        meta["objective_recomputed"] = evaluate(model.objective, model, x)
    return SolveResult(status=status, objective=objective,
                       values=SolutionValues(model, x), solver_meta=meta)


class ScipyBackend:
    """In-process HiGHS via scipy.optimize.milp."""

    name = "scipy-highs"

    def solve(self, model: Model, options: SolveOptions | None = None) -> SolveResult:
        options = options or SolveOptions()
        t0 = time.perf_counter()
        n = len(model.variables)
        meta: dict[str, object] = {"backend": self.name, "seed": options.seed}
        rows, broken = model.rows_with_terms()
        if broken is not None:
            meta["infeasible_row"] = broken
            return SolveResult(Status.INFEASIBLE, math.nan, {}, meta)
        if n == 0:
            meta["wall_time_s"] = time.perf_counter() - t0
            return _finalize(model, Status.OPTIMAL, model.objective.constant,
                             np.zeros(0), meta)

        terms = model.objective.terms
        c = np.zeros(n)
        c[np.fromiter(terms, np.int64, len(terms))] = np.fromiter(terms.values(), float, len(terms))
        integrality = model.binary_mask().astype(np.int64)
        lo, hi = (np.array(b) for b in model.bounds())

        constraints = ()
        mat = model.matrix()
        if len(rows):
            con_lo, con_hi = model.row_bounds()
            if len(rows) < mat.shape[0]:
                mat, con_lo, con_hi = mat[rows], con_lo[rows], con_hi[rows]
            constraints = LinearConstraint(mat.tocsc(), con_lo, con_hi)

        milp_options: dict[str, object] = {"mip_rel_gap": options.mip_gap}
        if options.time_limit_s is not None:
            milp_options["time_limit"] = options.time_limit_s
        res = milp(
            c=c,
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(lo, hi),
            options=milp_options,
        )
        status = {0: Status.OPTIMAL, 1: Status.LIMIT, 2: Status.INFEASIBLE,
                  3: Status.UNBOUNDED}.get(res.status, Status.LIMIT)
        meta["message"] = res.message
        meta["wall_time_s"] = time.perf_counter() - t0
        if res.x is None:
            return SolveResult(status, math.nan, {}, meta)
        objective = float(res.fun) + model.objective.constant
        if getattr(res, "mip_gap", None) is not None:
            meta["mip_gap"] = float(res.mip_gap)
        return _finalize(model, status, objective, np.asarray(res.x, float), meta)


class CommandBackend:
    """File-based backend around an external solver process.

    ``cmd_template`` is formatted with ``{model}`` (path of the exported
    LP or MPS file) and ``{sol}`` (path the solver must write its
    ``name value`` solution table to); optional placeholders
    ``{time_limit}`` and ``{mip_gap}`` receive the solve options.
    """

    name = "command"

    def __init__(self, cmd_template: str, file_format: str = "lp") -> None:
        if file_format not in ("lp", "mps"):
            raise ValueError("file_format must be 'lp' or 'mps'")
        self.cmd_template = cmd_template
        self.file_format = file_format

    def solve(self, model: Model, options: SolveOptions | None = None) -> SolveResult:
        options = options or SolveOptions()
        t0 = time.perf_counter()
        meta: dict[str, object] = {
            "backend": self.name,
            "command": self.cmd_template,
            "seed": options.seed,
        }
        broken = model.rows_with_terms()[1]
        if broken is not None:
            meta["infeasible_row"] = broken
            return SolveResult(Status.INFEASIBLE, math.nan, {}, meta)
        with tempfile.TemporaryDirectory(prefix="communityplan_") as tmp:
            model_path = Path(tmp) / f"model.{self.file_format}"
            sol_path = Path(tmp) / "model.sol"
            text = export_lp(model) if self.file_format == "lp" else export_mps(model)
            model_path.write_text(text)
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
            objective = evaluate(model.objective, model, x)
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

