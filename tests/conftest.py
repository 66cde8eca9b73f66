import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from communityplan.core import (
    BuildingConfig,
    ClimateProfile,
    CommunityConfig,
    DeviceSpec,
    EconomicProfile,
    OccupantProfile,
    RCParameters,
    Scenario,
    TimeSeries,
    Unit,
)
from communityplan.objective import emit_building_cost, emit_community_cost

START = datetime(2019, 1, 7)  # a Monday


def ts(values, unit=Unit.DEGC, start=START, step=1.0) -> TimeSeries:
    return TimeSeries(start, step, np.asarray(values, float), unit)


def prices(p_el=0.25, p_gas=0.10, p_co2=0.02, horizon=24) -> EconomicProfile:
    """The given price series; a scalar price holds for ``horizon`` steps."""
    return EconomicProfile(*(ts(np.full(horizon, p) if np.ndim(p) == 0 else p, Unit.EUR_PER_KWH)
                             for p in (p_el, p_gas, p_co2)))


def grid_slack_terms(grid, price):
    """The slack terms of every owner of ``grid``: the community's MV
    slack, then each building's LV slack."""
    return [emit_community_cost((), grid.s_mv, prices(), 1.0, price)["o_slk"],
            *(emit_building_cost((), s_lv, prices(), 1.0, price)["o_slk"]
              for s_lv in grid.s_lv.values())]


def order1_rc(r_ia=6e-3, c_i=2e7, window_area=2.0) -> RCParameters:
    return RCParameters(
        order=1, resistances={"R_ia": r_ia}, capacities={"C_i": c_i},
        window_area=window_area,
    )


def boiler_spec(cap_max=20.0, eta=0.97, size_price=50.0, base_price=700.0) -> DeviceSpec:
    return DeviceSpec(
        kind="BOL", cap_min=1.0, cap_max=cap_max, size_price=size_price,
        base_price=base_price, lifetime_years=20.0, extra={"eta": eta},
    )


def battery_spec(cap_max=10.0, eta=0.95, sigma=1.0, gamma=0.5,
                 size_price=120.0, base_price=300.0) -> DeviceSpec:
    return DeviceSpec(
        kind="BAT", cap_min=0.5, cap_max=cap_max, eta_ch=eta, eta_dch=eta,
        sigma=sigma, gamma_ch=gamma, gamma_dch=gamma, size_price=size_price,
        base_price=base_price, lifetime_years=12.0,
    )


def simple_building(bid=1, devices=(), roof_area=25.0, rc=None) -> BuildingConfig:
    return BuildingConfig(
        id=bid, rc=rc or order1_rc(), roof_area=roof_area, devices=tuple(devices)
    )


def simple_config(buildings, horizon, community_devices=(), lv_limit=15.0,
                  mv_limit=60.0, slack_price=1e5) -> CommunityConfig:
    return CommunityConfig(
        buildings=tuple(buildings),
        community_devices=tuple(community_devices),
        lv_limit=lv_limit,
        mv_limit=mv_limit,
        slack_price=slack_price,
        discount_rate=0.05,
        horizon_steps=horizon,
        step_hours=1.0,
    )


def simple_scenario(
    sid="s0",
    prob=1.0,
    horizon=48,
    building_ids=(1,),
    t_amb_level=5.0,
    gas_price=0.10,
    el_price=0.25,
    e_base_scale=1.0,
    t_set_day=19.0,
    sol_peak=200.0,
) -> Scenario:
    hours = np.arange(horizon)
    hod = hours % 24
    t_amb = ts(t_amb_level + 3.0 * np.sin(2 * np.pi * (hod - 9) / 24.0))
    i_sol = ts(
        np.maximum(0.0, sol_peak * np.sin(np.pi * (hod - 6) / 12.0))
        * ((hod >= 6) & (hod <= 18)),
        Unit.WATT_PER_M2,
    )
    occupant = {}
    for bid in building_ids:
        e_base = ts(e_base_scale * (0.25 + 0.15 * (hod >= 18)), Unit.KILOWATT)
        t_set = ts(np.where((hod >= 7) & (hod < 23), t_set_day, 17.0))
        occupant[bid] = OccupantProfile(e_base, t_set)
    economic = EconomicProfile(
        ts(el_price + 0.05 * np.sin(2 * np.pi * hod / 24.0), Unit.EUR_PER_KWH),
        ts(np.full(horizon, gas_price), Unit.EUR_PER_KWH),
        ts(np.full(horizon, 0.02), Unit.EUR_PER_KWH),
    )
    return Scenario(sid, prob, occupant, economic, ClimateProfile(t_amb, i_sol))


@pytest.fixture
def boiler_community():
    """One order-1 building with a boiler, 48 h: the smallest sensible plan."""
    building = simple_building(1, devices=(boiler_spec(),))
    cfg = simple_config([building], horizon=48)
    scenario = simple_scenario(horizon=48)
    return cfg, scenario
