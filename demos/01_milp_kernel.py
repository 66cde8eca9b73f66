"""Tour of the solver-neutral MILP layer.

Builds a tiny mixed-integer model, shows the LP and MPS text it exports,
round-trips the LP through the parser, and solves with the in-process
HiGHS backend.
"""

from communityplan.lpformat import export_lp, export_mps, parse_lp
from communityplan.milp import Model, Sense
from communityplan.solvers import solve

model = Model("sizing_toy")
capacity = model.add_var("capacity_kwh", hi=13.5)
exists = model.add_binary("exists")
served = model.add_var("served_kwh")

# capacity only available when the unit is bought, demand of 6 kWh
model.add_constraint(capacity - 13.5 * exists, Sense.LE, 0.0, "gate")
model.add_constraint(served - capacity, Sense.LE, 0.0, "cap")
model.add_constraint(served * 1.0, Sense.GE, 6.0, "demand")
# 30 EUR/kWh of capacity, 80 EUR fixed, 5 EUR/kWh unserved-energy credit
model.minimize(30.0 * capacity + 80.0 * exists - 5.0 * served)

print("=== LP export ===")
print(export_lp(model))
print("=== MPS export (head) ===")
print("\n".join(export_mps(model).splitlines()[:12]), "\n...")

round_tripped = parse_lp(export_lp(model))
print("LP round-trip byte-identical:", export_lp(round_tripped) == export_lp(model))

result = solve(model)
print(f"\nstatus    : {result.status.value}")
print(f"objective : {result.objective:.2f} EUR")
for var in (capacity, exists, served):
    print(f"{var.name:12s} = {result.x[var.id]:.3f}")
