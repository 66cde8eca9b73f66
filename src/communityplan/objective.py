"""The four-term community objective and its two-stage assembly.

Total cost = levelized investment (first stage, deterministic)
           + expected operation + carbon + slack penalties (second stage,
             probability weighted per scenario).

Powers are multiplied by the step length wherever they meet a price, so
every term is a EUR amount regardless of the time resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .core import series_head
from .devices import DeviceBlockRefs
from .milp import LinExpr, Model, VarRef, _accumulate
from .network import GridBlockRefs

__all__ = [
    "annuity_factor",
    "emit_investment_cost",
    "emit_operational_cost",
    "emit_carbon_cost",
    "emit_slack_cost",
    "assemble_two_stage_objective",
    "ObjectiveBreakdown",
]


def annuity_factor(r: float, tau: float) -> float:
    """Levelization factor r / (1 - (1+r)^-tau) of a lifetime-tau asset.

    Approaches r for long lifetimes (perpetuity) and 1 + r for tau = 1.
    """
    if r <= 0:
        raise ValueError(f"discount rate must be > 0, got {r}")
    if tau < 1:
        raise ValueError(f"lifetime must be >= 1 year, got {tau}")
    if tau == 1:
        return 1.0 + r  # algebraic identity r(1+r)/r, exact in floats
    return r / (1.0 - (1.0 + r) ** (-tau))


def emit_investment_cost(
    model: Model, device_blocks: Iterable[DeviceBlockRefs], r: float
) -> LinExpr:
    """Levelized investment: (size price * design + base price * chi)
    times the annuity factor of each unit's lifetime."""
    expr = LinExpr()
    for block in device_blocks:
        chi = block.design.chi
        for spec, design_var in block.design.entries:
            factor = annuity_factor(r, spec.lifetime_years)
            expr.add(design_var, spec.size_price * factor)
            expr.add(chi, spec.base_price * factor)
    return expr


def emit_operational_cost(
    model: Model,
    hv_import: Sequence[VarRef],
    gas_flows: Mapping[int, Sequence[VarRef]],
    p_el,
    p_gas,
    step_hours: float = 1.0,
) -> LinExpr:
    """Electricity bought from the HV grid plus gas burnt in the
    buildings; LV exports earn nothing."""
    horizon = len(hv_import)
    el = series_head(p_el, horizon, "p_el")
    gas = series_head(p_gas, horizon, "p_gas")
    expr = LinExpr().add_terms(hv_import, el * step_hours)
    for flows in gas_flows.values():
        expr.add_terms(flows, gas[: len(flows)] * step_hours)
    return expr


def emit_carbon_cost(
    model: Model,
    gas_flows: Mapping[int, Sequence[VarRef]],
    p_co2,
    step_hours: float = 1.0,
) -> LinExpr:
    """Carbon penalty on building gas use (electricity carries none)."""
    expr = LinExpr()
    for flows in gas_flows.values():
        co2 = series_head(p_co2, len(flows), "p_co2")
        expr.add_terms(flows, co2 * step_hours)
    return expr


def emit_slack_cost(model: Model, grid: GridBlockRefs, slack_price: float) -> LinExpr:
    """Uniform penalty on every declared grid slack; priced high enough
    that slacks only activate when the problem is otherwise infeasible."""
    expr = LinExpr()
    expr.add(grid.s_mv, slack_price)
    for var in grid.s_lv.values():
        expr.add(var, slack_price)
    return expr


def assemble_two_stage_objective(
    inv: LinExpr,
    per_scenario: Mapping[str, LinExpr],
    probs: Mapping[str, float],
) -> LinExpr:
    """First-stage cost plus probability-weighted second-stage costs.

    Accumulates into one copy of ``inv``: each scaled coefficient that is
    not zero is added in turn, and a sum of exactly zero drops the term.
    """
    total = LinExpr(dict(inv.terms), inv.constant, inv.model_id)
    for sid, expr in per_scenario.items():
        if total.model_id is None:
            total.model_id = expr.model_id
        elif expr.model_id is not None and total.model_id != expr.model_id:
            raise ValueError("cannot combine expressions from different models")
        prob = probs[sid]
        _accumulate(total.terms, expr.terms, [coef * prob for coef in expr.terms.values()])
        total.constant += expr.constant * prob
    return total


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """EUR decomposition of a solved plan.

    ``o_tot`` always equals ``o_inv_lvl`` plus the probability-weighted
    second-stage sums; :meth:`identity_gap` exposes the residual of that
    identity for verification against the solver objective.
    """

    o_inv_lvl: float
    o_opr: float
    o_co2: float
    o_slk: float
    o_tot: float
    per_scenario: Mapping[str, Mapping[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "per_scenario", {k: dict(v) for k, v in self.per_scenario.items()}
        )

    @staticmethod
    def from_terms(
        o_inv: float,
        per_scenario: Mapping[str, Mapping[str, float]],
        probs: Mapping[str, float],
    ) -> "ObjectiveBreakdown":
        o_inv = float(o_inv)
        per_scenario = {
            sid: {name: float(value) for name, value in vals.items()}
            for sid, vals in per_scenario.items()
        }
        o_opr = sum(probs[s] * v["o_opr"] for s, v in per_scenario.items())
        o_co2 = sum(probs[s] * v["o_co2"] for s, v in per_scenario.items())
        o_slk = sum(probs[s] * v["o_slk"] for s, v in per_scenario.items())
        return ObjectiveBreakdown(
            o_inv_lvl=o_inv,
            o_opr=o_opr,
            o_co2=o_co2,
            o_slk=o_slk,
            o_tot=o_inv + o_opr + o_co2 + o_slk,
            per_scenario=per_scenario,
        )

    def identity_gap(self) -> float:
        """Relative residual of o_tot against its recomputed parts."""
        total = self.o_inv_lvl + self.o_opr + self.o_co2 + self.o_slk
        scale = max(abs(self.o_tot), 1.0)
        return abs(total - self.o_tot) / scale

    def as_dict(self) -> dict:
        return {
            "O_inv_lvl": self.o_inv_lvl,
            "O_opr": self.o_opr,
            "O_co2": self.o_co2,
            "O_slk": self.o_slk,
            "O_tot": self.o_tot,
            "per_scenario": {
                sid: {
                    "O_opr": vals["o_opr"],
                    "O_co2": vals["o_co2"],
                    "O_slk": vals["o_slk"],
                }
                for sid, vals in self.per_scenario.items()
            },
        }
