"""RC heat dynamics inside the optimizer.

Emits the discrete thermal constraints of a 3rd-order building, lets the
optimizer heat it at minimum energy against a comfort band, and checks
the resulting trajectory against the package's forward simulator.
"""

import numpy as np

from communityplan.core import BuildingConfig, ClimateProfile, RCParameters, TimeSeries, Unit
from communityplan.milp import LinExpr, Model
from communityplan.solvers import solve
from communityplan.thermal import (
    emit_comfort_constraints,
    emit_thermal_constraints,
    simulate_thermal,
)
from datetime import datetime

HOURS = 72
hours = np.arange(HOURS)
t_amb = 2.0 + 5.0 * np.sin(2 * np.pi * (hours - 14) / 24.0)
i_sol = np.maximum(0.0, 350.0 * np.sin(np.pi * (hours % 24 - 7) / 10.0))
t_set = np.where((hours % 24 >= 7) & (hours % 24 < 23), 19.0, 17.0)

rc = RCParameters(
    order=3,
    resistances={"R_ia": 8e-3, "R_ie": 4e-3, "R_ea": 6e-3, "R_im": 3e-3},
    capacities={"C_i": 1e7, "C_e": 4e7, "C_m": 6e7},
    window_area=2.5,
    envelope_area=6.0,
)
building = BuildingConfig(id=1, rc=rc, roof_area=0.0)
start = datetime(2019, 1, 7)
climate = ClimateProfile(
    TimeSeries(start, 1.0, t_amb, Unit.DEGC),
    TimeSeries(start, 1.0, i_sol, Unit.WATT_PER_M2),
)

model = Model("thermal_demo")
refs = emit_thermal_constraints(model, building, climate, HOURS, t_init=t_set[0],
                                step_hours=1.0, tag="b1")
emit_comfort_constraints(model, refs, t_set, buffer=0.5, tag="comfort")
model.minimize(LinExpr.of((q, 1.0) for q in refs.q_sp))
result = solve(model)

indoor = refs.indoor_celsius(result.x)
heating = refs.heat_profile(result.x)
replay = simulate_thermal(building, climate, heating, t_set[0], HOURS)

print(f"status: {result.status.value}")
print(f"total heating: {heating.sum():.1f} kWh over {HOURS} h")
print(f"replay agreement: max |T_opt - T_sim| = "
      f"{np.max(np.abs(indoor - replay['i'])):.2e} degC")
print("\nhour  T_amb  T_set  T_indoor  Q_heat")
for t in range(0, HOURS, 6):
    print(f"{t:4d}  {t_amb[t]:5.1f}  {t_set[t]:5.1f}  {indoor[t]:8.2f}  "
          f"{heating[t]:6.2f}")
