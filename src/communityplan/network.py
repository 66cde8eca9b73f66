"""Grid topology: feeder flow variables, capacity limits with penalized
slacks, and the low-voltage aggregation balance.

Slacks are scalars per entity (one shared MV slack covering both flow
directions, one LV slack per building covering import and export): the
capacity constraint reads as a uniform relaxation across the horizon and
each slack is priced once in the objective.  In a distributed sub-problem
the aggregation balance takes the other buildings' flows as a fixed
net-consumption parameter series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import series_head
from .devices import BuildingEnergyRefs
from .milp import Model, Sense, VarBlock, VarRef

__all__ = [
    "GridBlockRefs",
    "create_grid_refs",
    "emit_grid_limits",
    "emit_lv_aggregation",
]


@dataclass(frozen=True)
class GridBlockRefs:
    """MV feeder flows and the slack variables of one scenario."""

    mv_to_lv: VarBlock
    lv_to_mv: VarBlock
    s_mv: VarRef
    s_lv: Mapping[int, VarRef]


def create_grid_refs(
    model: Model, building_ids: Sequence[int], horizon: int, tag: str = "COM"
) -> GridBlockRefs:
    """Declare the MV exchange vectors plus one slack per line entity."""
    mv_to_lv = model.add_vars(f"Emvlv_{tag}", horizon)
    lv_to_mv = model.add_vars(f"Elvmv_{tag}", horizon)
    s_mv = model.add_var(f"sMV_{tag}")
    s_lv = {bid: model.add_var(f"sLV_b{bid}_{tag}") for bid in building_ids}
    return GridBlockRefs(mv_to_lv=mv_to_lv, lv_to_mv=lv_to_mv, s_mv=s_mv, s_lv=s_lv)


def emit_grid_limits(
    model: Model,
    grid: GridBlockRefs,
    building_flows: Mapping[int, BuildingEnergyRefs],
    lv_limit: float,
    mv_limit: float,
    tag: str = "COM",
) -> None:
    """Line capacity limits, relaxed by the entity slacks.

    Both MV flow directions share one slack; each building's import and
    export share that building's LV slack.
    """
    horizon = len(grid.mv_to_lv)
    model.add_constraints(
        (f"lim_mvlv_{tag}", f"lim_lvmv_{tag}"),
        horizon,
        [[(grid.mv_to_lv, 1.0), (grid.s_mv, -1.0)], [(grid.lv_to_mv, 1.0), (grid.s_mv, -1.0)]],
        (Sense.LE, Sense.LE),
        float(mv_limit),
    )
    for bid, flows in building_flows.items():
        slack = grid.s_lv[bid]
        model.add_constraints(
            (f"lim_in_b{bid}_{tag}", f"lim_out_b{bid}_{tag}"),
            horizon,
            [[(flows.e_in, 1.0), (slack, -1.0)], [(flows.e_out, 1.0), (slack, -1.0)]],
            (Sense.LE, Sense.LE),
            float(lv_limit),
        )


def emit_lv_aggregation(
    model: Model,
    building_flows: Mapping[int, BuildingEnergyRefs],
    grid: GridBlockRefs,
    others_net=0.0,
    tag: str = "COM",
) -> int:
    """LV bus balance: MV->LV supply plus building exports equal building
    imports plus LV->MV return, per timestep; returns the index of the
    first of its ``horizon`` consecutive rows.

    ``others_net[t]`` is the fixed net consumption (imports minus exports)
    of the buildings outside the model, a scalar or a series; it is zero
    when every building is in the model.  It is the rows' right-hand side,
    so :meth:`~communityplan.milp.Model.set_rhs` on those rows changes it.
    """
    horizon = len(grid.mv_to_lv)
    if not isinstance(others_net, (int, float)):
        others_net = series_head(others_net, horizon, "others_net")
    terms = [(grid.mv_to_lv, 1.0), (grid.lv_to_mv, -1.0)]
    for flows in building_flows.values():
        terms += [(flows.e_out, 1.0), (flows.e_in, -1.0)]
    return model.add_constraints((f"lvagg_{tag}",), horizon, [terms], (Sense.EQ,),
                                 [others_net])
