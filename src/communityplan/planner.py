"""Build and solve the community planning problems.

Three entry points sit on top of the block emitters:

* :func:`build_centralized` / :func:`solve_centralized`: the two-stage
  stochastic program with design variables shared across scenarios and
  all operational blocks replicated per scenario.
* :func:`solve_distributed`: the sequential coordination scheme.  Each
  sub-problem is one building plus the full community block; buildings
  are solved in ascending id order, each solve sees the other buildings'
  latest net flows as a fixed parameter series, and full sweeps repeat
  until the global objective moves less than epsilon.
* :func:`run_sensitivity`: one-at-a-time deterministic solves per
  uncertainty factor with the other factors pinned at their nominals.

Wait-and-see and expected-value benchmarks (:func:`wait_and_see_value`,
:func:`expected_value_scenario`, :func:`evaluate_design`) provide the
classic EVPI / VSS orderings for validation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .core import (
    ROOF_KINDS,
    BuildingConfig,
    CommunityConfig,
    DeviceKind,
    DeviceSpec,
    Scenario,
    align_scenarios,
    scenario_channels,
    scenario_length,
    validate_config,
)
from .devices import (
    BuildingEnergyRefs,
    DesignRefs,
    DeviceBlockRefs,
    emit_building_balances,
    emit_community_balance,
    emit_designs,
    emit_operations,
    emit_roof_coupling,
    roof_capped,
)
from .milp import (
    Model,
    Sense,
    SolveResult,
    Status,
    VarBlock,
    VarRef,
    read_values,
)
from .network import (
    GridBlockRefs,
    create_grid_refs,
    emit_grid_limits,
    emit_lv_aggregation,
)
from .objective import (
    ObjectiveBreakdown,
    annuity_factor,
    emit_carbon_cost,
    emit_investment_cost,
    emit_operational_cost,
    emit_slack_cost,
)
from .scenarios import channels_to_scenario, compose_factor_scenarios
from .solvers import SolveOptions, SolverError, solve
from .thermal import ThermalBlockRefs, emit_comfort_constraints, emit_thermal_constraints

__all__ = [
    "DesignDecision",
    "PlanResult",
    "BuiltModel",
    "build_centralized",
    "solve_centralized",
    "solve_distributed",
    "run_sensitivity",
    "SensitivityReport",
    "wait_and_see_value",
    "expected_value_scenario",
    "evaluate_design",
]

COMMUNITY_ENTITY = "COM"


@dataclass(frozen=True)
class DesignDecision:
    chi: int
    value: float


@dataclass(frozen=True)
class BuildingTraces:
    indoor_celsius: tuple[float, ...]
    heat: tuple[float, ...]
    e_in: tuple[float, ...]
    e_out: tuple[float, ...]
    gas: tuple[float, ...]


@dataclass(frozen=True)
class ScenarioOperations:
    probability: float
    hv_import: tuple[float, ...]
    mv_to_lv: tuple[float, ...]
    lv_to_mv: tuple[float, ...]
    slack_mv: float
    slack_lv: Mapping[int, float]
    buildings: Mapping[int, BuildingTraces]

    def __post_init__(self) -> None:
        object.__setattr__(self, "slack_lv", dict(self.slack_lv))
        object.__setattr__(self, "buildings", dict(self.buildings))


@dataclass(frozen=True)
class PlanResult:
    designs: Mapping[tuple[str, str], DesignDecision]
    breakdown: ObjectiveBreakdown
    operations: Mapping[str, ScenarioOperations]
    solve_meta: Mapping[str, object]

    def __post_init__(self) -> None:
        object.__setattr__(self, "designs", dict(self.designs))
        object.__setattr__(self, "operations", dict(self.operations))
        object.__setattr__(self, "solve_meta", dict(self.solve_meta))

    @property
    def objective(self) -> float:
        return self.breakdown.o_tot


# -- shared emission helpers -------------------------------------------------


def _building_entity(bid: int) -> str:
    return f"b{bid}"


def _effective_spec(spec: DeviceSpec, building: BuildingConfig) -> DeviceSpec:
    """Roof-constrained design bounds for area-based devices."""
    if spec.kind in ROOF_KINDS:
        return roof_capped(spec, building.roof_area)
    return spec


def _emit_building_designs(
    model: Model, building: BuildingConfig
) -> dict[DeviceKind, DesignRefs]:
    entity = _building_entity(building.id)
    refs = emit_designs(model, [_effective_spec(s, building) for s in building.devices], entity)
    emit_roof_coupling(model, *(refs.get(kind) for kind in ROOF_KINDS), building.roof_area,
                       tag=entity)
    return refs


@dataclass
class _BuildingScenarioRefs:
    thermal: ThermalBlockRefs
    blocks: dict[DeviceKind, DeviceBlockRefs]
    flows: BuildingEnergyRefs


def _emit_building_scenario(
    model: Model,
    cfg: CommunityConfig,
    building: BuildingConfig,
    scenario: Scenario,
    designs: Mapping[DeviceKind, DesignRefs],
    horizon: int,
    tag: str,
) -> _BuildingScenarioRefs:
    occupant = scenario.occupant[building.id]
    thermal = emit_thermal_constraints(
        model,
        building,
        scenario.climate,
        horizon,
        t_init=float(occupant.t_set.values[0]),
        step_hours=cfg.step_hours,
        tag=tag,
    )
    emit_comfort_constraints(
        model, thermal, occupant.t_set, building.comfort_buffer, tag=tag
    )
    blocks = emit_operations(model, designs, scenario.climate, horizon, cfg.step_hours, tag)
    flows = emit_building_balances(
        model, blocks, thermal.q_sp, occupant.e_base, horizon, tag
    )
    return _BuildingScenarioRefs(thermal=thermal, blocks=blocks, flows=flows)


@dataclass
class _CommunityScenarioRefs:
    blocks: dict[DeviceKind, DeviceBlockRefs]
    grid: GridBlockRefs
    hv: VarBlock


# -- reading and pricing plans ------------------------------------------------


def _solution(result: SolveResult, what: str) -> np.ndarray:
    """Solution vector of a result that has one; SolverError otherwise."""
    if result.status not in (Status.OPTIMAL, Status.LIMIT):
        raise SolverError(f"{what} ended {result.status.value}")
    if result.x is None:
        raise SolverError(f"{what} ended {result.status.value} without a solution")
    return result.x


def _building_traces(x: np.ndarray, refs: _BuildingScenarioRefs, horizon: int) -> BuildingTraces:
    gas = read_values(x, refs.flows.gas) if len(refs.flows.gas) else np.zeros(horizon)
    return BuildingTraces(
        indoor_celsius=tuple(refs.thermal.indoor_celsius(x).tolist()),
        heat=tuple(read_values(x, refs.thermal.q_sp).tolist()),
        e_in=tuple(read_values(x, refs.flows.e_in).tolist()),
        e_out=tuple(read_values(x, refs.flows.e_out).tolist()),
        gas=tuple(gas.tolist()),
    )


def _plan_breakdown(
    cfg: CommunityConfig,
    scenarios: Sequence[Scenario],
    designs: Mapping[tuple[str, str], DesignDecision],
    operations: Mapping[str, ScenarioOperations],
) -> ObjectiveBreakdown:
    """The four cost terms of a plan, priced from its designs and operations.

    Investment is summed per entity in design order, then the community's
    sum plus the buildings' sums.  Per scenario, electricity bought from
    HV and the buildings' gas are priced at the scenario's prices, carbon
    on that gas, and every grid slack at the slack price.
    """
    specs = {
        (_building_entity(b.id), spec.kind.value): spec
        for b in cfg.buildings
        for spec in b.devices
    }
    specs.update({(COMMUNITY_ENTITY, s.kind.value): s for s in cfg.community_devices})
    inv: dict[str, float] = {}
    for (entity, kind), decision in designs.items():
        spec = specs[(entity, kind)]
        factor = annuity_factor(cfg.discount_rate, spec.lifetime_years)
        inv[entity] = inv.get(entity, 0.0) + (
            spec.size_price * decision.value + spec.base_price * decision.chi
        ) * factor
    o_inv = inv.pop(COMMUNITY_ENTITY, 0.0) + sum(inv.values())

    per_scenario: dict[str, dict[str, float]] = {}
    for scenario in scenarios:
        ops = operations[scenario.id]
        horizon = len(ops.hv_import)
        eco = scenario.economic
        p_el, p_gas, p_co2 = (p.values[:horizon] for p in (eco.p_el, eco.p_gas, eco.p_co2))
        step = cfg.step_hours
        gas = [np.array(trace.gas) for trace in ops.buildings.values()]
        per_scenario[scenario.id] = {
            "o_opr": float(np.dot(np.array(ops.hv_import), p_el) * step)
            + sum(float(np.dot(g, p_gas) * step) for g in gas),
            "o_co2": sum(float(np.dot(g, p_co2) * step) for g in gas),
            "o_slk": cfg.slack_price * (ops.slack_mv + sum(ops.slack_lv.values())),
        }
    probs = {s.id: s.probability for s in scenarios}
    return ObjectiveBreakdown.from_terms(o_inv, per_scenario, probs)


# -- the community model ------------------------------------------------------


@dataclass
class BuiltModel:
    """A community model plus the handles needed to read results back."""

    model: Model
    cfg: CommunityConfig
    scenarios: list[Scenario]
    horizon: int
    building_designs: dict[int, dict[DeviceKind, DesignRefs]]
    community_designs: dict[DeviceKind, DesignRefs]
    building_refs: dict[str, dict[int, _BuildingScenarioRefs]]
    community_refs: dict[str, _CommunityScenarioRefs]
    lv_rows: dict[str, int]  # scenario id -> first row of its LV aggregation

    def set_others_net(self, others_net: Mapping[str, np.ndarray]) -> None:
        """Make ``others_net[sid]`` the fixed net load of the buildings
        outside the model: the right-hand side of each scenario's LV
        aggregation rows, rewritten in place."""
        for scenario in self.scenarios:
            self.model.set_rhs(self.lv_rows[scenario.id], others_net[scenario.id])

    def design_entries(self) -> dict[tuple[str, str], tuple[DeviceSpec, VarRef, VarRef]]:
        """(spec, design variable, existence binary) per (entity, kind), the
        buildings first, each entity's designs in emission order."""
        entities = {_building_entity(bid): d for bid, d in self.building_designs.items()}
        entities[COMMUNITY_ENTITY] = self.community_designs
        return {(entity, spec.kind.value): (spec, var, refs.chi)
                for entity, designs in entities.items() for refs in designs.values()
                for spec, var in refs.entries}

    def extract(self, result: SolveResult) -> PlanResult:
        x = _solution(result, f"solve of model {self.model.name!r}")
        designs = {key: DesignDecision(chi=int(round(float(x[chi.id]))), value=float(x[var.id]))
                   for key, (_, var, chi) in self.design_entries().items()}
        operations: dict[str, ScenarioOperations] = {}
        for scenario in self.scenarios:
            com = self.community_refs[scenario.id]
            operations[scenario.id] = ScenarioOperations(
                probability=scenario.probability,
                hv_import=tuple(read_values(x, com.hv).tolist()),
                mv_to_lv=tuple(read_values(x, com.grid.mv_to_lv).tolist()),
                lv_to_mv=tuple(read_values(x, com.grid.lv_to_mv).tolist()),
                slack_mv=float(x[com.grid.s_mv.id]),
                slack_lv={bid: float(x[var.id]) for bid, var in com.grid.s_lv.items()},
                buildings={
                    bid: _building_traces(x, refs, self.horizon)
                    for bid, refs in self.building_refs[scenario.id].items()
                },
            )
        meta = dict(result.solver_meta)
        meta.update(self.model.stats())
        meta["status"] = result.status.value
        meta["solver_objective"] = result.objective
        return PlanResult(
            designs=designs,
            breakdown=_plan_breakdown(self.cfg, self.scenarios, designs, operations),
            operations=operations,
            solve_meta=meta,
        )


def _checked(
    cfg: CommunityConfig, scenarios: Sequence[Scenario]
) -> tuple[list[Scenario], int]:
    """Aligned scenarios and the planning horizon of a valid configuration;
    ValueError listing the violations, naming a scenario without the
    occupant profile of a configured building, or naming both steps when
    the scenarios' step is not the configured ``step_hours``, otherwise."""
    violations = validate_config(cfg)
    if violations:
        raise ValueError("invalid configuration:\n" + "\n".join(violations))
    wanted = {b.id for b in cfg.buildings}
    for scenario in scenarios:
        missing = sorted(wanted - set(scenario.occupant))
        if missing:
            raise ValueError(
                f"scenario {scenario.id!r} has no occupant profile for building(s) {missing}"
            )
    scenarios = align_scenarios(list(scenarios))
    step = scenarios[0].climate.t_amb.step_hours  # align_scenarios checked they share it
    if step != cfg.step_hours:
        raise ValueError(
            f"scenarios step {step} h differs from the configured step_hours {cfg.step_hours} h"
        )
    return scenarios, min(cfg.horizon_steps, scenario_length(scenarios[0]))


def _build(
    cfg: CommunityConfig,
    scenarios: list[Scenario],
    horizon: int,
    buildings: Sequence[BuildingConfig],
    others_net: Mapping[str, np.ndarray] | None,
    name: str,
) -> BuiltModel:
    """The community model over ``buildings``: first-stage designs shared
    across scenarios, the second stage replicated per scenario.

    ``others_net[sid]`` is the fixed net consumption of the buildings left
    out of the model; None when the model holds every building.

    The model is priced once all columns exist: the investment terms, then
    per scenario its operation, carbon and slack terms summed over the
    scenario's own columns and scaled by its probability.
    """
    model = Model(name)
    building_designs = {b.id: _emit_building_designs(model, b) for b in buildings}
    community_designs = emit_designs(model, cfg.community_devices, COMMUNITY_ENTITY)
    investment = emit_investment_cost(
        [refs for designs in (*building_designs.values(), community_designs)
         for refs in designs.values()],
        cfg.discount_rate,
    )

    stages: list[tuple[int, np.ndarray]] = []  # (first column, weighted cost)
    building_refs: dict[str, dict[int, _BuildingScenarioRefs]] = {}
    community_refs: dict[str, _CommunityScenarioRefs] = {}
    lv_rows: dict[str, int] = {}
    for w, scenario in enumerate(scenarios):
        stag, ctag = f"s{w}", f"COM_s{w}"
        first = len(model.variables)
        per_building = {
            b.id: _emit_building_scenario(
                model, cfg, b, scenario, building_designs[b.id], horizon,
                f"{_building_entity(b.id)}_{stag}",
            )
            for b in buildings
        }
        blocks = emit_operations(model, community_designs, scenario.climate, horizon,
                                 cfg.step_hours, ctag)
        grid = create_grid_refs(model, list(per_building), horizon, ctag)
        hv = emit_community_balance(model, blocks, grid.mv_to_lv, grid.lv_to_mv, horizon, ctag)
        com = _CommunityScenarioRefs(blocks=blocks, grid=grid, hv=hv)
        flows = {bid: refs.flows for bid, refs in per_building.items()}
        emit_grid_limits(model, grid, flows, cfg.lv_limit, cfg.mv_limit, ctag)
        lv_rows[scenario.id] = emit_lv_aggregation(
            model, flows, grid, 0.0 if others_net is None else others_net[scenario.id], ctag,
        )
        gas = {bid: refs.flows.gas for bid, refs in per_building.items()}
        eco = scenario.economic
        # every column these terms price was added in this scenario's loop
        stage = np.zeros(len(model.variables) - first)
        for ids, coefs in (
            emit_operational_cost(com.hv, gas, eco.p_el.values[:horizon],
                                  eco.p_gas.values[:horizon], cfg.step_hours),
            emit_carbon_cost(gas, eco.p_co2.values[:horizon], cfg.step_hours),
            emit_slack_cost(com.grid, cfg.slack_price),
        ):
            np.add.at(stage, ids - first, coefs)
        stage *= scenario.probability
        stages.append((first, stage))
        building_refs[scenario.id] = per_building
        community_refs[scenario.id] = com

    cost = np.zeros(len(model.variables))
    np.add.at(cost, *investment)
    for first, stage in stages:
        cost[first: first + len(stage)] += stage
    model.minimize(cost)
    return BuiltModel(
        model=model,
        cfg=cfg,
        scenarios=scenarios,
        horizon=horizon,
        building_designs=building_designs,
        community_designs=community_designs,
        building_refs=building_refs,
        community_refs=community_refs,
        lv_rows=lv_rows,
    )


# -- centralized --------------------------------------------------------------


def build_centralized(
    cfg: CommunityConfig, scenarios: Sequence[Scenario], name: str = "community"
) -> BuiltModel:
    """One model: shared first-stage designs, per-scenario second stage."""
    scenarios, horizon = _checked(cfg, scenarios)
    return _build(cfg, scenarios, horizon, cfg.buildings, None, name)


def solve_centralized(
    cfg: CommunityConfig,
    scenarios: Sequence[Scenario],
    backend: object = "scipy",
    options: SolveOptions | None = None,
) -> PlanResult:
    built = build_centralized(cfg, scenarios)
    t0 = time.perf_counter()
    result = solve(built.model, backend, options)
    plan = built.extract(result)
    plan.solve_meta["iterations"] = 1
    plan.solve_meta["wall_time_s"] = time.perf_counter() - t0
    return plan


# -- distributed ---------------------------------------------------------------


def solve_distributed(
    cfg: CommunityConfig,
    scenarios: Sequence[Scenario],
    epsilon: float = 1.0,
    max_iters: int = 50,
    backend: object = "scipy",
    options: SolveOptions | None = None,
) -> PlanResult:
    """Sequential building-by-building coordination.

    Every sub-problem is the community model of one building, with all
    community utilities and grid terms; the remaining buildings enter
    through the coupling balance as the fixed ``others_net`` parameter:
    per scenario, the sum in ascending id order of the other buildings'
    latest net loads (import minus export), over the buildings solved so
    far.  Sweeps repeat in ascending building id order until the global
    objective changes by at most ``epsilon`` or ``max_iters`` is hit, in
    which case the last iterate is returned with
    ``solve_meta["converged"]`` False.  ``solve_meta["status"]`` is
    ``"limit"`` when any merged sub-plan ended at a solver limit and
    ``"optimal"`` otherwise; ``solve_meta["backend"]`` is the backend
    name the sub-plans report, and ``solve_meta["max_mip_gap"]`` the
    largest ``mip_gap`` among the merged sub-plans that report one.

    Each building's sub-model is built once, in the first sweep, and kept:
    a later sweep rewrites only its LV aggregation right-hand sides
    (:meth:`BuiltModel.set_others_net`) and solves it again through
    :func:`~communityplan.solvers.solve`, so every backend sees the model
    a fresh build would give.  All sub-models are held at once.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    scenarios, horizon = _checked(cfg, scenarios)
    t0 = time.perf_counter()

    subs: dict[int, BuiltModel] = {}
    plans: dict[int, PlanResult] = {}
    net: dict[int, dict[str, np.ndarray]] = {}  # [bid][sid], ascending bid
    history: list[float] = []
    converged = False
    for sweep in range(1, max_iters + 1):
        for building in sorted(cfg.buildings, key=lambda b: b.id):
            bid = building.id
            others_net = {
                s.id: sum((net[o][s.id] for o in net if o != bid), np.zeros(horizon))
                for s in scenarios
            }
            built = subs.get(bid)
            if built is None:
                built = subs[bid] = _build(cfg, scenarios, horizon, [building], others_net,
                                           f"sub_{_building_entity(bid)}")
            else:
                built.set_others_net(others_net)
            plans[bid] = last = built.extract(solve(built.model, backend, options))
            net[bid] = {
                sid: np.array(ops.buildings[bid].e_in) - np.array(ops.buildings[bid].e_out)
                for sid, ops in last.operations.items()
            }
        designs, operations = _merge_plans(plans, last)
        breakdown = _plan_breakdown(cfg, scenarios, designs, operations)
        history.append(breakdown.o_tot)
        if len(history) >= 2 and abs(history[-1] - history[-2]) <= epsilon:
            converged = True
            break

    limited = any(p.solve_meta["status"] == Status.LIMIT.value for p in plans.values())
    meta = {
        "status": (Status.LIMIT if limited else Status.OPTIMAL).value,
        "iterations": sweep,
        "converged": converged,
        "epsilon": epsilon,
        "o_tot_history": history,
        "wall_time_s": time.perf_counter() - t0,
    }
    if "backend" in last.solve_meta:
        meta["backend"] = last.solve_meta["backend"]
    gaps = [p.solve_meta["mip_gap"] for p in plans.values() if "mip_gap" in p.solve_meta]
    if gaps:
        meta["max_mip_gap"] = max(gaps)
    return PlanResult(
        designs=designs, breakdown=breakdown, operations=operations, solve_meta=meta
    )


def _merge_plans(
    plans: Mapping[int, PlanResult], last: PlanResult
) -> tuple[dict[tuple[str, str], DesignDecision], dict[str, ScenarioOperations]]:
    """Each building's designs and traces from its latest sub-plan; the
    community's designs, flows and MV slack from the last sub-plan."""
    designs: dict[tuple[str, str], DesignDecision] = {}
    for bid, plan in plans.items():
        entity = _building_entity(bid)
        designs.update((k, d) for k, d in plan.designs.items() if k[0] == entity)
    designs.update((k, d) for k, d in last.designs.items() if k[0] == COMMUNITY_ENTITY)
    operations = {
        sid: replace(
            ops,
            slack_lv={bid: p.operations[sid].slack_lv[bid] for bid, p in plans.items()},
            buildings={bid: p.operations[sid].buildings[bid] for bid, p in plans.items()},
        )
        for sid, ops in last.operations.items()
    }
    return designs, operations


# -- sensitivity and stochastic benchmarks ------------------------------------


@dataclass(frozen=True)
class DesignSpread:
    minimum: float
    maximum: float
    mean: float
    std: float
    values: Mapping[str, float]  # per singleton scenario id

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", dict(self.values))


@dataclass(frozen=True)
class SensitivityReport:
    spreads: Mapping[str, Mapping[tuple[str, str], DesignSpread]]  # factor -> device
    reference: Mapping[tuple[str, str], DesignDecision]
    nominal_ids: Mapping[str, Mapping[str, str]]
    infeasible: tuple[tuple[str, str], ...]  # (factor, scenario id)

    def __post_init__(self) -> None:
        object.__setattr__(self, "spreads", {f: dict(v) for f, v in self.spreads.items()})
        object.__setattr__(self, "reference", dict(self.reference))
        object.__setattr__(self, "nominal_ids", {f: dict(v) for f, v in self.nominal_ids.items()})


def run_sensitivity(
    cfg: CommunityConfig,
    occ: Sequence[Scenario],
    eco: Sequence[Scenario],
    clim: Sequence[Scenario],
    backend: object = "scipy",
    options: SolveOptions | None = None,
    factors: Sequence[str] = ("occ", "eco", "clim"),
) -> SensitivityReport:
    """One-at-a-time design sensitivity per uncertainty factor.

    Solves one deterministic problem per factor member (other factors
    pinned at their nominals), reports per-device design spread, and
    includes the stochastic optimum over the occupant set ``occ``, which
    usually is the joint ensemble.
    ``factors`` restricts which families are run.
    """
    problems = [
        p
        for p in compose_factor_scenarios(occ, eco, clim)
        if p.factor in factors
    ]
    reference = solve_centralized(cfg, list(occ), backend, options)

    spreads: dict[str, dict[tuple[str, str], DesignSpread]] = {}
    infeasible: list[tuple[str, str]] = []
    nominal_ids = {}
    for problem in problems:
        per_device: dict[tuple[str, str], dict[str, float]] = {}
        nominal_ids[problem.factor] = dict(problem.nominal_ids)
        for singleton in problem.scenarios:
            try:
                plan = solve_centralized(cfg, [singleton], backend, options)
            except (SolverError, ValueError):
                infeasible.append((problem.factor, singleton.id))
                continue
            for key, decision in plan.designs.items():
                per_device.setdefault(key, {})[singleton.id] = decision.value
        spreads[problem.factor] = {
            key: DesignSpread(
                minimum=float(np.min(list(vals.values()))),
                maximum=float(np.max(list(vals.values()))),
                mean=float(np.mean(list(vals.values()))),
                std=float(np.std(list(vals.values()))),
                values=vals,
            )
            for key, vals in per_device.items()
        }
    return SensitivityReport(
        spreads=spreads,
        reference=reference.designs,
        nominal_ids=nominal_ids,
        infeasible=tuple(infeasible),
    )


def wait_and_see_value(
    cfg: CommunityConfig,
    scenarios: Sequence[Scenario],
    backend: object = "scipy",
    options: SolveOptions | None = None,
) -> float:
    """Probability-weighted perfect-information optimum."""
    scenarios = align_scenarios(list(scenarios))
    total = 0.0
    for scenario in scenarios:
        plan = solve_centralized(cfg, [replace(scenario, probability=1.0)], backend, options)
        total += scenario.probability * plan.objective
    return total


def expected_value_scenario(scenarios: Sequence[Scenario]) -> Scenario:
    """Probability-weighted mean of every channel, as one scenario."""
    scenarios = align_scenarios(list(scenarios))
    first = scenario_channels(scenarios[0])
    mixed = {name: np.zeros(len(series)) for name, series in first.items()}
    for scenario in scenarios:
        for name, series in scenario_channels(scenario).items():
            mixed[name] += scenario.probability * np.asarray(series.values)
    start = scenarios[0].climate.t_amb.start
    step = scenarios[0].climate.t_amb.step_hours
    return channels_to_scenario("expected_value", 1.0, mixed, start, step)


def evaluate_design(
    cfg: CommunityConfig,
    scenarios: Sequence[Scenario],
    designs: Mapping[tuple[str, str], DesignDecision],
    backend: object = "scipy",
    options: SolveOptions | None = None,
) -> PlanResult:
    """Second-stage evaluation of a fixed first-stage design.

    ``designs`` holds one decision per design of the model, keyed
    ``(entity, kind)``; ``ValueError`` names the designs it lacks and the
    keys that are no design of the model.
    """
    built = build_centralized(cfg, scenarios, name="evaluation")
    entries = built.design_entries()
    problems = [
        f"{what} design(s) {', '.join(f'{entity}:{kind}' for entity, kind in keys)}"
        for what, keys in (("missing", [k for k in entries if k not in designs]),
                           ("unknown", [k for k in designs if k not in entries]))
        if keys
    ]
    if problems:
        raise ValueError(f"designs to evaluate: {'; '.join(problems)}")
    for key, (_, var, chi) in entries.items():
        decision = designs[key]
        built.model.add_constraint(chi, Sense.EQ, float(decision.chi),
                                   f"fix_chi_{key[0]}_{key[1]}")
        built.model.add_constraint(var, Sense.EQ, decision.value,
                                   f"fix_val_{key[0]}_{key[1]}")
    result = solve(built.model, backend, options)
    return built.extract(result)
