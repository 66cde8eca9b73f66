"""The benchmark's workloads: set-up, one timed operation, output checks.

Every call into the library goes through a module attribute
(``cp.planner.build_centralized``), so the tracer's wrappers see it.  An
operation raises :class:`CheckFailed` when its output is wrong; the runner
counts that, and any other exception, as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np

import communityplan as cp
import communityplan.io  # noqa: F401  (binds cp.io)
import communityplan.lpformat  # noqa: F401  (binds cp.lpformat)
from communityplan.core import scenario_channels
from communityplan.milp import Status
from communityplan.scenarios import BootstrapSpec

import instances

FEASIBILITY_TOL = 1e-6
OBJECTIVE_TOL = 1e-6  # relative, solver objective vs the reported breakdown
DISTRIBUTED_GAP_LIMIT = 0.01  # the acceptance suite's criterion-1 bound

YEAR_BUILD_RECORD = Path(__file__).with_name("year_build_lp.json")


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def warm_up(history, seed: int, work: Path) -> None:
    """Call every layer once on a tiny input.

    This pays the first-call costs before timing starts, and gives each
    layer a set-up figure on workloads whose operation never calls it.
    """
    boot = cp.scenarios.bootstrap_years(history, BootstrapSpec(n_years=12, rng_seed=seed))
    reduced, _ = cp.scenarios.reduce_scenarios(list(boot.years), k=1, rng_seed=seed)
    cp.io.save_scenarios(work / "warm_bundle", reduced)
    cp.io.load_scenarios(work / "warm_bundle")
    cfg, scenarios = instances.criterion1_instance(
        seed, 0, horizon=24, n_scenarios=2, n_buildings=2
    )
    built = cp.planner.build_centralized(cfg, scenarios)
    cp.lpformat.export_lp(built.model)
    plan = built.extract(cp.solvers.ScipyBackend().solve(built.model))
    cp.io.emit_reports(plan, work / "warm_reports")
    cp.planner.solve_distributed(cfg, scenarios, epsilon=1.0, max_iters=8)


class Workload:
    """Set-up makes a seeded data directory, ingests it and warms up.
    ``inputs(i)`` prepares operation ``i`` outside the timed region from one
    of the run's ``pool`` inputs; ``operation`` is timed and checks its
    output.
    """

    name = ""
    fixture_buildings = 1
    # Distinct inputs per run; operation ``i`` gets input ``pool_index(i)``.
    pool = 1

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.ingest = None

    def setup(self, rep: int) -> None:
        directory = self.work / f"setup{rep}"
        data = instances.data_directory(directory / "data", self.fixture_buildings, self.seed)
        self.ingest = cp.io.ingest_community(data)
        warm_up(self.ingest.history, self.seed, directory)

    def pool_index(self, index: int) -> int:
        return 1 + (index - 1) % self.pool

    def inputs(self, index: int):
        return None

    def operation(self, inputs, index: int) -> dict:
        raise NotImplementedError


def check_centralized(result, plan) -> None:
    _require(result.status == Status.OPTIMAL, f"status {result.status.value}")
    violation = result.solver_meta["max_violation"]
    _require(violation <= FEASIBILITY_TOL, f"max_violation {violation:.3g}")
    scale = max(1.0, abs(result.objective))
    drift = abs(plan.breakdown.o_tot - result.objective) / scale
    _require(drift <= OBJECTIVE_TOL, f"breakdown differs from solver objective by {drift:.3g}")
    _require(plan.breakdown.identity_gap() <= 1e-9, "breakdown identity violated")


class PlanWorkload(Workload):
    name = "plan_24h"
    shape = {"buildings": 5, "scenarios": 3, "horizon_h": 24}
    # Operations cycle through this many instances: wall_s averages over
    # several instances, and every run of a seed times the same ones.
    pool = 4
    # EUR; half a percent of the ~400 EUR objective.  All 40 instances of
    # seeds 300-309 then converge at the second sweep (10 sub-solves).  At
    # 1 EUR, two of ten instances took a third sweep, 50% more time, so the
    # time of a run depended on which instances its seed drew.
    epsilon = 2.0

    def inputs(self, index: int):
        return instances.criterion1_instance(
            self.seed, self.pool_index(index), horizon=self.shape["horizon_h"]
        )

    def operation(self, inputs, index: int) -> dict:
        cfg, scenarios = inputs
        built = cp.planner.build_centralized(cfg, scenarios)
        result = cp.solvers.ScipyBackend().solve(built.model)
        plan = built.extract(result)
        reports = cp.io.emit_reports(plan, self.work / "reports")
        check_centralized(result, plan)
        _require(all(p.stat().st_size > 0 for p in reports), "empty report file")
        distributed = cp.planner.solve_distributed(
            cfg, scenarios, epsilon=self.epsilon, max_iters=8
        )
        _require(distributed.solve_meta["converged"], "distributed scheme did not converge")
        gap = abs(distributed.objective - result.objective) / abs(result.objective)
        _require(gap <= DISTRIBUTED_GAP_LIMIT, f"distributed gap to centralized {100 * gap:.3f}%")
        return {
            "sizes": dict(built.model.stats(), **self.shape),
            "objective_gap_pct": round(100.0 * gap, 4),
        }


class YearPipelineWorkload(Workload):
    """The year-scale data path of one building: bootstrap years from the
    history, reduce them to representative scenarios and round-trip the
    bundle, then build the full-year model and export it as LP text."""

    name = "year_pipeline"
    n_years = 100
    k = 4

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        record = json.loads(YEAR_BUILD_RECORD.read_text())
        self.structure = record["structure"]
        self.recorded_digest = record["lp_sha256"].get(str(seed))
        self.first_digest = None

    def inputs(self, index: int):
        bundle = self.work / "bundle"
        shutil.rmtree(bundle, ignore_errors=True)
        return bundle, instances.derived_seed(self.seed, self.pool_index(index))

    def operation(self, inputs, index: int) -> dict:
        bundle, rng_seed = inputs
        sizes = self.scenario_round_trip(bundle, rng_seed)
        sizes.update(self.year_build())
        return {"sizes": sizes}

    def scenario_round_trip(self, bundle: Path, rng_seed: int) -> dict:
        boot = cp.scenarios.bootstrap_years(
            self.ingest.history, BootstrapSpec(n_years=self.n_years, rng_seed=rng_seed)
        )
        reduced, cluster = cp.scenarios.reduce_scenarios(
            list(boot.years), k=self.k, rng_seed=rng_seed
        )
        cp.io.save_scenarios(
            bundle,
            reduced,
            rng_seed=rng_seed,
            source_days=[boot.source_days[m] for m in cluster.medoid_ids],
            probabilities_exact=list(cluster.probabilities),
        )
        loaded, manifest = cp.io.load_scenarios(bundle)
        _require([s.id for s in loaded] == [s.id for s in reduced], "medoid ids changed")
        _require(
            [s.probability for s in loaded] == [s.probability for s in reduced],
            "probabilities changed",
        )
        fractions = [Fraction(e["probability_fraction"]) for e in manifest["scenarios"]]
        _require(sum(fractions) == 1, "probabilities do not sum to 1")
        for before, after in zip(reduced, loaded):
            old, new = scenario_channels(before), scenario_channels(after)
            _require(old.keys() == new.keys(), f"{after.id}: channels changed")
            _require(
                all(np.array_equal(old[c].values, new[c].values) for c in old),
                f"{after.id}: channel values changed",
            )
        return {"years": self.n_years, "k": self.k,
                "channels": len(scenario_channels(loaded[0]))}

    def year_build(self) -> dict:
        built = cp.planner.build_centralized(self.ingest.config, [self.ingest.history])
        text = cp.lpformat.export_lp(built.model)
        digest = hashlib.sha256(text.encode()).hexdigest()
        stats = built.model.stats()
        _require(stats == self.structure, f"model counts {stats} != {self.structure}")
        expected = self.recorded_digest or self.first_digest or digest
        _require(digest == expected, "LP text differs from the recorded digest")
        self.first_digest = self.first_digest or digest
        return dict(stats, horizon_h=built.horizon,
                    buildings=len(self.ingest.config.buildings))


WORKLOADS = {
    w.name: w
    for w in (PlanWorkload, YearPipelineWorkload)
}
