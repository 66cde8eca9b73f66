"""Scenario machinery end to end on synthetic history.

Generates a fixture community, bootstraps synthetic years from its
one-year history, reduces them to representative scenarios with
k-medoids, and identifies per-factor nominal scenarios.
"""

import tempfile
from pathlib import Path

from communityplan.fixtures import generate_fixture
from communityplan.io import ingest_community
from communityplan.scenarios import (
    FACTORS,
    BootstrapSpec,
    bootstrap_years,
    nominal_scenario,
    reduce_scenarios,
)

workdir = Path(tempfile.mkdtemp(prefix="communityplan_demo_"))
fixture = generate_fixture(workdir / "data", n_buildings=3, seed=42)
ingest = ingest_community(fixture)
print(f"fixture: {len(ingest.config.buildings)} buildings, "
      f"{len(ingest.history.climate.t_amb)} h of history in {fixture}")

spec = BootstrapSpec(n_years=60, rng_seed=7)  # paper-scale would be 1000
boot = bootstrap_years(ingest.history, spec)
print(f"bootstrapped {len(boot.years)} synthetic years "
      f"(24 h blocks, +-{spec.window_weeks:.0f} week window, weekday split)")

reduced, cluster = reduce_scenarios(list(boot.years), k=5, rng_seed=1)
print("\nrepresentative scenarios (k-medoids):")
for scenario, frac in zip(reduced, cluster.probabilities):
    print(f"  {scenario.id:8s} pi = {frac} = {float(frac):.3f}")
print(f"clustering objective: {cluster.objective:.2f}")

for factor in FACTORS:
    print(f"nominal for {factor:4s} analysis: "
          f"{nominal_scenario(reduced, factor)}")
