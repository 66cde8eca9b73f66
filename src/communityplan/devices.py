"""MILP blocks for storage, conversion and renewable devices plus the
building and community energy balances.

Every device gets a binary existence variable gating its design variable
into [cap_min, cap_max] or zero.  Design variables are first stage: they
are made once per entity by :func:`emit_designs`.  :func:`emit_operations`
is the one per-scenario operator: it checks that each design holds its
key's kinds and hands it to that kind's emitter, which reads the spec
from the design's entries and adds only the operational variables and
constraints that operate it.  Every emitter is called as ``(model,
design, climate, horizon, step_hours, tag)``.  Roof caps on PV and
collector areas belong to the design bounds; the planner applies them
(through :func:`roof_capped`) before it makes the designs.
:data:`BALANCE_TERMS` lists each kind's energy-hub balance flows,
:data:`GAS_FLOW` the flow bought from the gas grid.

Storage bookkeeping: state vectors have ``horizon + 1`` entries, flows
``horizon``; per-step stored energy is power times step length, so

    E(t+1) = E(t) * sigma + (ch(t) * eta_ch - dch(t) / eta_dch) * t_s

with the relaxed cyclic bound E(0) <= E(horizon).  The initial state is a
free decision bounded only by the state limits and the cyclic inequality.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    KIND_CATALOGUE,
    HYDROGEN_CHAIN,
    ClimateProfile,
    DeviceKind,
    DeviceSpec,
    series_head,
)
from .milp import LinExpr, Model, Sense, VarBlock, VarRef
from .thermal import W_PER_KW

__all__ = [
    "HYDROGEN_CHAIN",
    "DesignRefs",
    "DeviceBlockRefs",
    "BuildingEnergyRefs",
    "BALANCE_TERMS",
    "GAS_FLOW",
    "emit_design",
    "emit_hydrogen_design",
    "emit_designs",
    "emit_operations",
    "emit_roof_coupling",
    "emit_building_balances",
    "emit_community_balance",
    "cop_profile",
    "stc_yield_profile",
    "simulate_storage",
    "roof_capped",
]


@dataclass(frozen=True)
class DesignRefs:
    """First-stage variables of one device (or device chain).

    ``entries`` pairs every design variable with its techno-economic
    spec; all of them share the single existence binary ``chi``.
    """

    chi: VarRef
    design: VarRef
    entries: tuple[tuple[DeviceSpec, VarRef], ...]


@dataclass(frozen=True)
class DeviceBlockRefs:
    """One device's handles: design plus per-timestep operational vectors."""

    design: DesignRefs
    flows: Mapping[str, VarBlock]
    state: VarBlock | None = None


@dataclass(frozen=True)
class BuildingEnergyRefs:
    """Grid-exchange vectors of one building: electricity import and
    export, and the gas it buys (empty without a gas-burning device)."""

    e_in: Sequence[VarRef]
    e_out: Sequence[VarRef]
    gas: Sequence[VarRef] = ()


# Energy-hub terms of the device kinds in row order, (balance, kind, flow,
# sign): a positive sign draws on the balance, a negative one feeds it.  The
# rows start with the space heat (heat), export minus import (elec), and the
# LV feeder exchange minus the HV import (mv).
BALANCE_TERMS = (
    ("heat", DeviceKind.TES, "charge", 1.0),
    ("heat", DeviceKind.TES, "discharge", -1.0),
    ("heat", DeviceKind.BOL, "heat", -1.0),
    ("heat", DeviceKind.HP, "heat", -1.0),
    ("elec", DeviceKind.BAT, "charge", 1.0),
    ("elec", DeviceKind.BAT, "discharge", -1.0),
    ("elec", DeviceKind.HP, "power", 1.0),
    ("elec", DeviceKind.PV, "power", -1.0),
    ("mv", DeviceKind.BAT_COM, "charge", 1.0),
    ("mv", DeviceKind.BAT_COM, "discharge", -1.0),
    ("mv", DeviceKind.HYD, "charge", 1.0),
    ("mv", DeviceKind.HYD, "discharge", -1.0),
    ("mv", DeviceKind.PV_COM, "power", -1.0),
)

# the building's flow bought from the gas grid, priced at p_gas and p_co2
GAS_FLOW = (DeviceKind.BOL, "gas")


def _balance_terms(balance: str, blocks: Mapping[DeviceKind, DeviceBlockRefs]) -> list:
    """The (flow, sign) terms of ``balance`` that the present blocks add."""
    return [(blocks[kind].flows[flow], sign) for row, kind, flow, sign in BALANCE_TERMS
            if row == balance and kind in blocks]


def roof_capped(spec: DeviceSpec, roof_cap: float) -> DeviceSpec:
    """The spec with its design bounds limited to the available roof."""
    return replace(
        spec, cap_min=min(spec.cap_min, roof_cap), cap_max=min(spec.cap_max, roof_cap)
    )


def _emit_gated(model: Model, chi: VarRef, spec: DeviceSpec, tag: str) -> VarRef:
    """Design variable of ``spec`` gated by ``chi``: the pair
    ``chi*cap_min <= design <= chi*cap_max`` forces it to zero unless the
    device exists."""
    kind = spec.kind.value
    prefix = "A" if KIND_CATALOGUE[spec.kind].area else "C"
    var = model.add_var(f"{prefix}_{kind}_{tag}", hi=spec.cap_max)
    model.add_constraint(var - spec.cap_min * chi, Sense.GE, 0.0, f"gate_lo_{kind}_{tag}")
    model.add_constraint(var - spec.cap_max * chi, Sense.LE, 0.0, f"gate_hi_{kind}_{tag}")
    return var


def emit_design(model: Model, spec: DeviceSpec, tag: str) -> DesignRefs:
    """Existence binary plus gated design variable for one device."""
    chi = model.add_binary(f"chi_{spec.kind.value}_{tag}")
    design = _emit_gated(model, chi, spec, tag)
    return DesignRefs(chi=chi, design=design, entries=((spec, design),))


def emit_hydrogen_design(
    model: Model, specs: Mapping[DeviceKind, DeviceSpec], tag: str
) -> DesignRefs:
    """Three design variables (electrolyzer, tank, fuel cell) under one
    existence binary."""
    for kind in HYDROGEN_CHAIN:
        if kind not in specs:
            raise ValueError(f"hydrogen chain requires a {kind.value} spec")
    chi = model.add_binary(f"chi_HYD_{tag}")
    entries = tuple((specs[kind], _emit_gated(model, chi, specs[kind], tag))
                    for kind in HYDROGEN_CHAIN)
    return DesignRefs(chi=chi, design=entries[1][1], entries=entries)


def emit_designs(
    model: Model, specs: Sequence[DeviceSpec], tag: str
) -> dict[DeviceKind, DesignRefs]:
    """Designs of one entity's devices, by kind in the order of ``specs``;
    the hydrogen chain's make one design, under the tank's kind, last."""
    designs = {spec.kind: emit_design(model, spec, tag)
               for spec in specs if spec.kind not in HYDROGEN_CHAIN}
    chain = {spec.kind: spec for spec in specs if spec.kind in HYDROGEN_CHAIN}
    if chain:
        designs[DeviceKind.HYD] = emit_hydrogen_design(model, chain, tag)
    return designs


def _emit_storage_rows(model, design, horizon, step_hours, specs, caps, names):
    """The state, charge and discharge columns of one storage, then its
    state caps, charge and discharge rates, state recursion and cyclic
    bound.  ``specs`` and ``caps`` are the (state, charge, discharge)
    specs and design variables; ``names`` the three column stems, then
    the five row stems."""
    if horizon < 2:
        raise ValueError("storage blocks need a horizon of at least 2 steps")
    spec_state, spec_ch, spec_dch = specs
    cap_state, cap_ch, cap_dch = caps
    state_name, ch_name, dch_name, cap, rate_ch, rate_dch, soc, cyc = names
    state = model.add_vars(state_name, horizon + 1, lo=spec_state.state_min())
    charge = model.add_vars(ch_name, horizon)
    discharge = model.add_vars(dch_name, horizon)
    model.add_constraints((cap,), horizon + 1, [[(state, 1.0), (cap_state, -1.0)]],
                          (Sense.LE,))
    model.add_constraints(
        (rate_ch, rate_dch, soc),
        horizon,
        [
            [(charge, 1.0), (cap_ch, -spec_ch.gamma_ch)],
            [(discharge, 1.0), (cap_dch, -spec_dch.gamma_dch)],
            [
                (state[1:], 1.0),
                (state[:-1], -spec_state.sigma),
                (charge, -(spec_ch.eta_ch * step_hours)),
                (discharge, step_hours / spec_dch.eta_dch),
            ],
        ],
        (Sense.LE, Sense.LE, Sense.EQ),
    )
    model.add_constraint(state[0] - state[horizon], Sense.LE, 0.0, cyc)
    return DeviceBlockRefs(
        design=design, flows={"charge": charge, "discharge": discharge}, state=state
    )


def _emit_storage(model: Model, design: DesignRefs, climate: ClimateProfile, horizon: int,
                  step_hours: float, tag: str) -> DeviceBlockRefs:
    """Battery or thermal storage: electricity (``E``) or heat (``Q``) flows."""
    ((spec, cap),) = design.entries
    kind = spec.kind.value
    flow = "Q" if spec.kind is DeviceKind.TES else "E"
    return _emit_storage_rows(
        model, design, horizon, step_hours, (spec,) * 3, (cap,) * 3,
        (f"E_{kind}_{tag}", f"{flow}ch_{kind}_{tag}", f"{flow}dch_{kind}_{tag}",
         f"cap_{kind}_{tag}", f"rate_ch_{kind}_{tag}", f"rate_dch_{kind}_{tag}",
         f"soc_{kind}_{tag}", f"cyc_{kind}_{tag}"),
    )


def _emit_hydrogen_chain(model: Model, design: DesignRefs, climate: ClimateProfile,
                         horizon: int, step_hours: float, tag: str) -> DeviceBlockRefs:
    """Electrolyzer, pressurized tank and fuel cell in series, operating
    the design of :func:`emit_hydrogen_design`.

    The tank state is counted in electricity-equivalent kWh at the tank
    boundary (compressor losses folded into the electrolyzer charging
    efficiency); the electrolyzer capacity caps electrical input, the
    fuel cell capacity electrical output.
    """
    (spec_el, cap_el), (spec_hyd, cap_hyd), (spec_fc, cap_fc) = design.entries
    return _emit_storage_rows(
        model, design, horizon, step_hours, (spec_hyd, spec_el, spec_fc),
        (cap_hyd, cap_el, cap_fc),
        (f"E_HYD_{tag}", f"Ech_EL_{tag}", f"Edch_FC_{tag}", f"cap_HYD_{tag}",
         f"rate_EL_{tag}", f"rate_FC_{tag}", f"soc_HYD_{tag}", f"cyc_HYD_{tag}"),
    )


def _emit_boiler(model: Model, design: DesignRefs, climate: ClimateProfile, horizon: int,
                 step_hours: float, tag: str) -> DeviceBlockRefs:
    ((spec, cap),) = design.entries
    eta = float(spec.extra["eta"])
    heat = model.add_vars(f"Q_BOL_{tag}", horizon)
    gas = model.add_vars(f"Vgas_{tag}", horizon)
    model.add_constraints(
        (f"conv_BOL_{tag}", f"cap_BOL_{tag}"),
        horizon,
        [[(heat, 1.0), (gas, -eta)], [(heat, 1.0), (cap, -1.0)]],
        (Sense.EQ, Sense.LE),
    )
    return DeviceBlockRefs(design=design, flows={"heat": heat, "gas": gas})


def cop_profile(spec: DeviceSpec, t_amb: np.ndarray) -> np.ndarray:
    """Pre-calculated COP as a double exponential of the distribution to
    ambient temperature gap."""
    a1, a2, a3, a4 = (float(c) for c in spec.extra["cop_coeffs"])
    gap = float(spec.extra["t_dist"]) - t_amb
    return a1 * np.exp(a2 * gap) + a3 * np.exp(a4 * gap)


def _emit_heat_pump(model: Model, design: DesignRefs, climate: ClimateProfile, horizon: int,
                    step_hours: float, tag: str) -> DeviceBlockRefs:
    ((spec, cap),) = design.entries
    cop = cop_profile(spec, series_head(climate.t_amb, horizon, "T_amb"))
    if np.any(cop <= 0):
        bad = int(np.argmax(cop <= 0))
        raise ValueError(f"heat pump COP non-positive at step {bad}: {cop[bad]:.4f}")
    heat = model.add_vars(f"Q_HP_{tag}", horizon)
    power = model.add_vars(f"E_HP_{tag}", horizon)
    model.add_constraints(
        (f"conv_HP_{tag}", f"cap_HP_{tag}"),
        horizon,
        [[(heat, 1.0), (power, -cop)], [(heat, 1.0), (cap, -1.0)]],
        (Sense.EQ, Sense.LE),
    )
    return DeviceBlockRefs(design=design, flows={"heat": heat, "power": power})


def _emit_pv(model: Model, design: DesignRefs, climate: ClimateProfile, horizon: int,
             step_hours: float, tag: str) -> DeviceBlockRefs:
    ((spec, area),) = design.entries
    kind = spec.kind.value
    irr = series_head(climate.i_sol, horizon, "I_sol")
    out = model.add_vars(f"E_{kind}_{tag}", horizon)
    coef = irr * float(spec.extra["eta"]) / W_PER_KW  # kW output per m2 of panel
    model.add_constraints(
        (f"conv_{kind}_{tag}",), horizon, [[(out, 1.0), (area, -coef)]], (Sense.EQ,)
    )
    return DeviceBlockRefs(design=design, flows={"power": out})


def stc_yield_profile(spec: DeviceSpec, i_sol: np.ndarray, t_amb: np.ndarray) -> np.ndarray:
    """kW of collector heat per m2, clamped at zero.

    The loss term can exceed the irradiance (night, cold sky); a real
    collector is valved off then, so the negative pre-factor is clamped
    before it ever multiplies the design area.
    """
    eta = float(spec.extra["eta"])
    u_loss = float(spec.extra["u_loss"])
    t_col = float(spec.extra["t_collector"])
    raw = eta * (i_sol - u_loss * (t_col - t_amb)) / W_PER_KW
    return np.maximum(raw, 0.0)


def _emit_stc(model: Model, design: DesignRefs, climate: ClimateProfile, horizon: int,
              step_hours: float, tag: str) -> DeviceBlockRefs:
    ((spec, area),) = design.entries
    coefs = stc_yield_profile(spec, series_head(climate.i_sol, horizon, "I_sol"),
                              series_head(climate.t_amb, horizon, "T_amb"))
    heat = model.add_vars(f"Q_STC_{tag}", horizon)
    model.add_constraints(
        (f"conv_STC_{tag}",), horizon, [[(heat, 1.0), (area, -coefs)]], (Sense.EQ,)
    )
    return DeviceBlockRefs(design=design, flows={"heat": heat})


def emit_roof_coupling(
    model: Model,
    pv: DesignRefs | None,
    stc: DesignRefs | None,
    roof_area: float,
    tag: str,
) -> None:
    """Shared roof budget: the PV and collector areas fit side by side."""
    areas = [(refs.design, 1.0) for refs in (pv, stc) if refs is not None]
    if areas:
        model.add_constraint(LinExpr.of(areas), Sense.LE, roof_area, f"roof_{tag}")


def emit_building_balances(
    model: Model,
    blocks: Mapping[DeviceKind, DeviceBlockRefs],
    q_sp: Sequence[VarRef],
    e_base,
    horizon: int,
    tag: str,
) -> BuildingEnergyRefs:
    """Heat and electricity balances tying the building's devices to the
    space-heat decision, the fixed base load and the LV grid exchange.

    Heat demand side: space heat plus storage charging; supply side: heat
    pump, boiler and storage discharge.  Electricity demand side: base
    load, battery charging, heat pump input and export; supply side:
    battery discharge, PV and import.
    """
    base = series_head(e_base, horizon, "E_base")
    e_in = model.add_vars(f"Ein_{tag}", horizon)
    e_out = model.add_vars(f"Eout_{tag}", horizon)
    heat = [(q_sp, 1.0), *_balance_terms("heat", blocks)]
    elec = [(e_out, 1.0), (e_in, -1.0), *_balance_terms("elec", blocks)]
    model.add_constraints(
        (f"heat_{tag}", f"elec_{tag}"), horizon, [heat, elec], (Sense.EQ, Sense.EQ),
        (0.0, -base),
    )
    kind, flow = GAS_FLOW
    gas = blocks[kind].flows[flow] if kind in blocks else ()
    return BuildingEnergyRefs(e_in=e_in, e_out=e_out, gas=gas)


def emit_community_balance(
    model: Model,
    com_blocks: Mapping[DeviceKind, DeviceBlockRefs],
    mv_to_lv: Sequence[VarRef],
    lv_to_mv: Sequence[VarRef],
    horizon: int,
    tag: str,
) -> VarBlock:
    """Medium-voltage bus balance linking community devices, the LV feeder
    exchange and the high-voltage import.

    Creates and returns the HV import vector (the community draws from
    but never sells to the HV grid).
    """
    hv_in = model.add_vars(f"Ehv_{tag}", horizon)
    terms = [(mv_to_lv, 1.0), (lv_to_mv, -1.0), (hv_in, -1.0),
             *_balance_terms("mv", com_blocks)]
    model.add_constraints((f"combal_{tag}",), horizon, [terms], (Sense.EQ,))
    return hv_in


def _kinds(kinds: Sequence[DeviceKind]) -> str:
    return ", ".join(kind.value for kind in kinds)


# each kind's emitter, called as (model, design, climate, horizon, step_hours, tag)
_OPERATORS: dict[DeviceKind, Callable[..., DeviceBlockRefs]] = {
    DeviceKind.BAT: _emit_storage,
    DeviceKind.BAT_COM: _emit_storage,
    DeviceKind.TES: _emit_storage,
    DeviceKind.BOL: _emit_boiler,
    DeviceKind.HP: _emit_heat_pump,
    DeviceKind.PV: _emit_pv,
    DeviceKind.PV_COM: _emit_pv,
    DeviceKind.STC: _emit_stc,
    DeviceKind.HYD: _emit_hydrogen_chain,
}


def emit_operations(model: Model, designs: Mapping[DeviceKind, DesignRefs],
                    climate: ClimateProfile, horizon: int, step_hours: float,
                    tag: str) -> dict[DeviceKind, DeviceBlockRefs]:
    """The operational block of every design in one scenario, emitted in
    the designs' order by each kind's emitter.  A design under key ``kind``
    must hold one ``kind`` entry, under ``HYD`` the hydrogen chain's; a
    kind without an emitter (``EL``, ``FC``) is a ``ValueError``."""
    for kind, refs in designs.items():
        if kind not in _OPERATORS:
            raise ValueError(f"{kind.value} has no operator of its own; "
                             f"the hydrogen chain is operated under HYD")
        expected = HYDROGEN_CHAIN if kind is DeviceKind.HYD else (kind,)
        got = tuple(spec.kind for spec, _ in refs.entries)
        if got != expected:
            raise ValueError(f"{kind.value} operates {_kinds(expected)} designs, "
                             f"got {_kinds(got)}")
    return {kind: _OPERATORS[kind](model, refs, climate, horizon, step_hours, tag)
            for kind, refs in designs.items()}


def simulate_storage(
    initial: float,
    charge,
    discharge,
    eta_ch: float,
    eta_dch: float,
    sigma: float,
    step_hours: float = 1.0,
) -> np.ndarray:
    """Scalar replay of the storage recursion, for cross-checking solved
    trajectories."""
    ch = np.asarray(charge, float)
    dch = np.asarray(discharge, float)
    out = np.empty(ch.size + 1)
    out[0] = initial
    for t in range(ch.size):
        out[t + 1] = out[t] * sigma + (ch[t] * eta_ch - dch[t] / eta_dch) * step_hours
    return out
