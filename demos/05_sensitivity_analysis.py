"""One-at-a-time uncertainty impact on design variables.

Builds three scenarios that differ in occupant load, prices and climate,
runs the factor-by-factor sensitivity analysis (other factors pinned at
their nominals), and prints the per-device design spread against the
stochastic optimum.
"""

import numpy as np
from datetime import datetime

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
from communityplan.planner import run_sensitivity

HOURS = 48
START = datetime(2019, 1, 7)


def series(values, unit):
    return TimeSeries(START, 1.0, np.asarray(values, float), unit)


def scenario(sid, load_scale, el_price, t_level, t_day=19.0):
    hours = np.arange(HOURS)
    hod = hours % 24
    return Scenario(
        sid, 1.0 / 3.0,
        {1: OccupantProfile(
            series(load_scale * (0.3 + 0.2 * (hod >= 18)), Unit.KILOWATT),
            series(np.where((hod >= 7) & (hod < 23), t_day, t_day - 2.0),
                   Unit.DEGC),
        )},
        EconomicProfile(
            series(np.full(HOURS, el_price), Unit.EUR_PER_KWH),
            series(np.full(HOURS, 0.11), Unit.EUR_PER_KWH),
            series(np.full(HOURS, 0.022), Unit.EUR_PER_KWH),
        ),
        ClimateProfile(
            series(t_level + 3 * np.sin(2 * np.pi * (hod - 14) / 24), Unit.DEGC),
            series(np.maximum(0, 200 * np.sin(np.pi * (hod - 6) / 12)),
                   Unit.WATT_PER_M2),
        ),
    )


rc = RCParameters(order=2,
                  resistances={"R_ia": 8e-3, "R_ie": 4e-3, "R_ea": 6e-3},
                  capacities={"C_i": 1e7, "C_e": 4e7},
                  window_area=2.0, envelope_area=5.0)
cfg = CommunityConfig(
    buildings=(BuildingConfig(
        id=1, rc=rc, roof_area=25.0,
        devices=(
            DeviceSpec(kind="BOL", cap_min=1.0, cap_max=25.0, size_price=60.0,
                       base_price=900.0, lifetime_years=20.0, extra={"eta": 0.97}),
            DeviceSpec(kind="HP", cap_min=1.0, cap_max=10.0, size_price=900.0,
                       base_price=4200.0, lifetime_years=18.0,
                       extra={"cop_coeffs": [6.08, -0.0233, 0.0, 0.0],
                              "t_dist": 35.0}),
        ),
    ),),
    lv_limit=17.25, mv_limit=60.0, slack_price=1e5,
    discount_rate=0.05, horizon_steps=HOURS, step_hours=1.0,
)

scenarios = [
    scenario("mild", 0.6, 0.22, 8.0, t_day=18.0),
    scenario("typical", 1.0, 0.28, 4.0, t_day=19.0),
    scenario("harsh", 1.8, 0.38, -1.0, t_day=20.5),
]

report = run_sensitivity(cfg, scenarios)

print("nominals per analysis:",
      {f: dict(v) for f, v in report.nominal_ids.items()})
print("\nfactor  device        min      max     mean      std   stochastic")
for factor, spreads in sorted(report.spreads.items()):
    for (entity, device), s in sorted(spreads.items()):
        ref = report.reference[(entity, device)].value
        print(f"{factor:6s}  {entity}:{device:8s} {s.minimum:7.2f}  "
              f"{s.maximum:7.2f}  {s.mean:7.2f}  {s.std:7.2f}  {ref:9.2f}")
if report.infeasible:
    print("infeasible singletons:", report.infeasible)
