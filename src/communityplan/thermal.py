"""Building heat-dynamics constraints from lumped RC networks.

The continuous RC equations are discretized by explicit (forward) Euler at
the configured step and emitted as per-timestep equalities.  State nodes
per model order follow :data:`communityplan.core.RC_STATES_BY_ORDER`:
interior only (order 1), then envelope, medium, heater and sensor.  The
space-heating input feeds the heater node when present and the interior
node otherwise; solar gains enter the interior through the effective
window area and the envelope through the effective envelope area.

State variables are kept non-negative by expressing them in Kelvin inside
the model (RC terms only use differences, so the offset cancels);
:class:`ThermalBlockRefs` reads them back in degC from a solve's solution
vector ``x``.

Indexing: state vectors have one value per sample, ``T[0]`` pinned to the
initial set point, and the update into ``T[t]`` uses inputs at ``t - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import BuildingConfig, ClimateProfile, RC_CAPACITY_KEY, series_head
from .milp import Model, Sense, VarBlock, read_values

__all__ = [
    "KELVIN_OFFSET",
    "ThermalBlockRefs",
    "emit_thermal_constraints",
    "emit_comfort_constraints",
    "check_euler_stability",
    "simulate_thermal",
]

KELVIN_OFFSET = 273.15
SECONDS_PER_HOUR = 3600.0
W_PER_KW = 1000.0

# couplings as (node, partner, resistance key); partner "a" is ambient
_COUPLINGS: tuple[tuple[str, str, str], ...] = (
    ("i", "a", "R_ia"),
    ("i", "e", "R_ie"),
    ("e", "a", "R_ea"),
    ("i", "m", "R_im"),
    ("i", "h", "R_ih"),
    ("i", "s", "R_is"),
)


@dataclass(frozen=True)
class ThermalBlockRefs:
    """Handles to one building's thermal block inside a model."""

    states: Mapping[str, VarBlock]  # Kelvin-valued state vectors
    q_sp: VarBlock  # space-heat decision, kW
    horizon: int

    @property
    def t_i(self) -> VarBlock:
        return self.states["i"]

    def indoor_celsius(self, x: np.ndarray) -> np.ndarray:
        """Interior temperature, degC, in the solution vector ``x``."""
        return read_values(x, self.t_i) - KELVIN_OFFSET

    def state_celsius(self, node: str, x: np.ndarray) -> np.ndarray:
        """Temperature of state ``node``, degC, in the solution vector ``x``."""
        return read_values(x, self.states[node]) - KELVIN_OFFSET

    def heat_profile(self, x: np.ndarray) -> np.ndarray:
        """Space heat, kW, in the solution vector ``x``."""
        return read_values(x, self.q_sp)


def _active_couplings(states: Sequence[str], resistances: Mapping[str, float]):
    for node, partner, key in _COUPLINGS:
        if key not in resistances:
            continue
        if node not in states or (partner != "a" and partner not in states):
            continue
        yield node, partner, key


def check_euler_stability(bcfg: BuildingConfig, step_hours: float) -> None:
    """Reject parameter sets the explicit-Euler update would blow up on.

    Each coupled (R, C) pair must satisfy step / (R * C) <= 2; calibrated
    sub-hourly parameters can be stiff at hourly steps.
    """
    rc = bcfg.rc
    step_s = step_hours * SECONDS_PER_HOUR
    states = rc.states()
    for node, partner, key in _active_couplings(states, rc.resistances):
        for end in (node, partner):
            if end == "a":
                continue
            cap = rc.capacities[RC_CAPACITY_KEY[end]]
            ratio = step_s / (rc.resistances[key] * cap)
            if ratio > 2.0:
                raise ValueError(
                    f"building {bcfg.id}: explicit Euler unstable for pair "
                    f"({key}, {RC_CAPACITY_KEY[end]}): step/(R*C) = {ratio:.3f} > 2"
                )


def emit_thermal_constraints(
    model: Model,
    bcfg: BuildingConfig,
    climate: ClimateProfile,
    horizon: int,
    t_init: float,
    step_hours: float = 1.0,
    tag: str = "",
) -> ThermalBlockRefs:
    """Emit the discrete heat-dynamics equalities for one building.

    ``t_init`` is the degC set point the interior state is pinned to at
    t = 0.  ``tag`` scopes variable names (typically ``b{id}_s{w}``).
    """
    rc = bcfg.rc
    for key, value in {**rc.resistances, **rc.capacities}.items():
        if not value > 0:
            raise ValueError(f"building {bcfg.id}: non-positive RC parameter {key}")
    check_euler_stability(bcfg, step_hours)
    t_amb = series_head(climate.t_amb, horizon, "T_amb") + KELVIN_OFFSET
    i_sol = series_head(climate.i_sol, horizon, "I_sol")
    step_s = step_hours * SECONDS_PER_HOUR
    label = tag or f"b{bcfg.id}"
    nodes = rc.states()

    states = {node: model.add_vars(f"T{node}_{label}", horizon) for node in nodes}
    q_sp = model.add_vars(f"Qsp_{label}", horizon)
    heat_node = "h" if "h" in nodes else "i"

    # every state starts at the initial set point; leaving non-interior
    # nodes free would let the optimizer seed warm masses at zero cost and
    # makes trajectories non-unique under fixed heating
    for node in nodes:
        model.add_constraint(states[node][0], Sense.EQ, t_init + KELVIN_OFFSET,
                             f"tinit_{node}_{label}")

    # the update into step t (t = 1 .. horizon - 1) reads inputs at t - 1
    steps = horizon - 1
    rows, rhs_rows = [], []
    for node in nodes:
        cap = rc.capacities[RC_CAPACITY_KEY[node]]
        terms = [(states[node][1:], 1.0)]
        diag = 1.0
        rhs = np.zeros(steps)
        for n_from, n_to, key in _active_couplings(nodes, rc.resistances):
            gain = step_s / (rc.resistances[key] * cap)
            if n_from == node:
                other = n_to
            elif n_to == node:
                other = n_from
            else:
                continue
            diag -= gain
            if other == "a":
                rhs = rhs + gain * t_amb[:steps]
            else:
                terms.append((states[other][:-1], -gain))
        terms.append((states[node][:-1], -diag))
        if node == "i":
            rhs = rhs + rc.window_area * i_sol[:steps] * step_s / cap
        elif node == "e":
            rhs = rhs + rc.envelope_area * i_sol[:steps] * step_s / cap
        if node == heat_node:
            terms.append((q_sp[:-1], -W_PER_KW * step_s / cap))
        rows.append(terms)
        rhs_rows.append(rhs)
    model.add_constraints(
        [f"rc_{node}_{label}" for node in nodes], max(steps, 0), rows,
        [Sense.EQ] * len(nodes), rhs_rows, first=1,
    )
    return ThermalBlockRefs(states=states, q_sp=q_sp, horizon=horizon)


def emit_comfort_constraints(
    model: Model,
    refs: ThermalBlockRefs,
    t_set,
    buffer: float,
    tag: str = "",
) -> None:
    """Lower comfort bound T_i(t) >= T_set(t) - buffer for every step.

    One sided on purpose: no cooling devices exist, the interior is free
    to float above the set point.
    """
    setpoints = series_head(t_set, refs.horizon, "T_set")
    label = tag or "comfort"
    model.add_constraints(
        (f"comf_{label}",), len(refs.t_i), [[(refs.t_i, 1.0)]], (Sense.GE,),
        [setpoints[: len(refs.t_i)] - buffer + KELVIN_OFFSET],
    )


def simulate_thermal(
    bcfg: BuildingConfig,
    climate: ClimateProfile,
    q_sp,
    t_init: float,
    horizon: int,
    step_hours: float = 1.0,
) -> dict[str, np.ndarray]:
    """Forward-Euler replay of the same update the constraints encode.

    Returns degC trajectories per state node; used to cross-check solved
    models against an explicit simulation of fixed heating decisions.
    """
    rc = bcfg.rc
    nodes = rc.states()
    t_amb = series_head(climate.t_amb, horizon, "T_amb")
    i_sol = series_head(climate.i_sol, horizon, "I_sol")
    heat = series_head(q_sp, horizon, "q_sp")
    step_s = step_hours * SECONDS_PER_HOUR
    heat_node = "h" if "h" in nodes else "i"
    traj = {node: np.empty(horizon) for node in nodes}
    for node in nodes:
        traj[node][0] = t_init
    for t in range(1, horizon):
        for node in nodes:
            cap = rc.capacities[RC_CAPACITY_KEY[node]]
            delta = 0.0
            for n_from, n_to, key in _active_couplings(nodes, rc.resistances):
                if n_from == node:
                    other = n_to
                elif n_to == node:
                    other = n_from
                else:
                    continue
                other_temp = t_amb[t - 1] if other == "a" else traj[other][t - 1]
                delta += (other_temp - traj[node][t - 1]) * step_s / (
                    rc.resistances[key] * cap
                )
            if node == "i":
                delta += rc.window_area * i_sol[t - 1] * step_s / cap
            elif node == "e":
                delta += rc.envelope_area * i_sol[t - 1] * step_s / cap
            if node == heat_node:
                delta += W_PER_KW * heat[t - 1] * step_s / cap
            traj[node][t] = traj[node][t - 1] + delta
    return traj
