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

Every plan, centralized, evaluated or distributed, is read and priced by
one function: each building's part from the solve of the model that owns
the building, the community's part from one solve, each priced by the
objective terms its model's cost vector was summed from.

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
    Terms,
    emit_building_cost,
    emit_community_cost,
    emit_investment_cost,
    terms_value,
)
from .scenarios import FACTORS, channels_to_scenario, compose_factor_scenarios
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


def _read_plan(
    parts: Sequence[tuple[BuiltModel, np.ndarray]],
    community: tuple[BuiltModel, np.ndarray],
) -> PlanResult:
    """The priced plan, without ``solve_meta``, of solved models given with
    their solution vectors: the designs, traces and LV slacks of the
    buildings of each model in ``parts``, in that order, and the
    community's designs, flows and MV slack from ``community``, whose
    scenarios weigh the plan.

    One set of terms per owner, stored on its model, gives both the
    model's cost vector and the plan's breakdown: here evaluated at that
    model's solution, the community's part plus the buildings' parts in
    ``parts`` order.  An existence binary is priced at its solved value,
    as in the solver's objective; ``DesignDecision.chi`` is it rounded.
    """
    com_model, com_x = community
    designs: dict[tuple[str, str], DesignDecision] = {}
    inv: dict[str, float] = {}
    for (built, x), of_community in [*((part, False) for part in parts), (community, True)]:
        for (entity, kind), (var, chi) in built.design_entries().items():
            if (entity == COMMUNITY_ENTITY) is of_community:
                designs[(entity, kind)] = DesignDecision(
                    chi=int(round(float(x[chi.id]))), value=float(x[var.id]))
        for entity, terms in built.investment.items():
            if (entity == COMMUNITY_ENTITY) is of_community:
                inv[entity] = terms_value(terms, x)
    o_inv = inv.pop(COMMUNITY_ENTITY) + sum(inv.values())

    operations: dict[str, ScenarioOperations] = {}
    per_scenario: dict[str, dict[str, float]] = {}
    for scenario in com_model.scenarios:
        sid = scenario.id
        com = com_model.community_refs[sid]
        owned = [(bid, refs, built, x) for built, x in parts
                 for bid, refs in built.building_refs[sid].items()]
        operations[sid] = ScenarioOperations(
            probability=scenario.probability,
            hv_import=tuple(read_values(com_x, com.hv).tolist()),
            mv_to_lv=tuple(read_values(com_x, com.grid.mv_to_lv).tolist()),
            lv_to_mv=tuple(read_values(com_x, com.grid.lv_to_mv).tolist()),
            slack_mv=float(com_x[com.grid.s_mv.id]),
            slack_lv={bid: float(x[built.community_refs[sid].grid.s_lv[bid].id])
                      for bid, _, built, x in owned},
            buildings={bid: _building_traces(x, refs, built.horizon)
                       for bid, refs, built, x in owned},
        )
        owners = [(built.costs[sid][_building_entity(bid)], x) for bid, _, built, x in owned]
        per_scenario[sid] = {
            name: terms_value(terms, com_x)
            + sum(terms_value(costs[name], x) for costs, x in owners)
            for name, terms in com_model.costs[sid][COMMUNITY_ENTITY].items()
        }
    probs = {s.id: s.probability for s in com_model.scenarios}
    return PlanResult(
        designs=designs,
        breakdown=ObjectiveBreakdown.from_terms(o_inv, per_scenario, probs),
        operations=operations,
        solve_meta={},
    )


# -- the community model ------------------------------------------------------


@dataclass
class BuiltModel:
    """A community model plus the handles needed to read results back."""

    model: Model
    scenarios: list[Scenario]
    horizon: int
    building_designs: dict[int, dict[DeviceKind, DesignRefs]]
    community_designs: dict[DeviceKind, DesignRefs]
    building_refs: dict[str, dict[int, _BuildingScenarioRefs]]
    community_refs: dict[str, _CommunityScenarioRefs]
    lv_rows: dict[str, int]  # scenario id -> first row of its LV aggregation
    investment: dict[str, Terms]  # entity -> its investment terms
    costs: dict[str, dict[str, dict[str, Terms]]]  # [sid][entity][second-stage term]

    def set_others_net(self, others_net: Mapping[str, np.ndarray]) -> None:
        """Make ``others_net[sid]`` the fixed net load of the buildings
        outside the model: the right-hand side of each scenario's LV
        aggregation rows, rewritten in place."""
        for scenario in self.scenarios:
            self.model.set_rhs(self.lv_rows[scenario.id], others_net[scenario.id])

    def design_entries(self) -> dict[tuple[str, str], tuple[VarRef, VarRef]]:
        """(design variable, existence binary) per (entity, kind), the
        buildings first, each entity's designs in emission order."""
        entities = {_building_entity(bid): d for bid, d in self.building_designs.items()}
        entities[COMMUNITY_ENTITY] = self.community_designs
        return {(entity, spec.kind.value): (var, refs.chi)
                for entity, designs in entities.items() for refs in designs.values()
                for spec, var in refs.entries}

    def extract(self, result: SolveResult) -> PlanResult:
        """The priced plan of a solve of this model, every part read from
        ``result``, with ``solve_meta``: the solver's meta, the model's
        sizes, the status and the solver's objective.  SolverError when
        the solve has no solution."""
        x = _solution(result, f"solve of model {self.model.name!r}")
        plan = _read_plan([(self, x)], (self, x))
        plan.solve_meta.update(result.solver_meta, **self.model.stats(),
                               status=result.status.value, solver_objective=result.objective)
        return plan


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

    The model keeps its objective terms, per entity and per scenario and
    owner, and is priced from them once all columns exist: investment,
    then per scenario its owners' terms summed over the scenario's own
    columns and scaled by its probability.
    """
    model = Model(name)
    building_designs = {b.id: _emit_building_designs(model, b) for b in buildings}
    community_designs = emit_designs(model, cfg.community_devices, COMMUNITY_ENTITY)
    investment = {_building_entity(bid): emit_investment_cost(d.values(), cfg.discount_rate)
                  for bid, d in building_designs.items()}
    investment[COMMUNITY_ENTITY] = emit_investment_cost(community_designs.values(),
                                                        cfg.discount_rate)

    stages: list[tuple[int, np.ndarray]] = []  # (first column, weighted cost)
    building_refs: dict[str, dict[int, _BuildingScenarioRefs]] = {}
    community_refs: dict[str, _CommunityScenarioRefs] = {}
    lv_rows: dict[str, int] = {}
    costs: dict[str, dict[str, dict[str, Terms]]] = {}
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
        owners = costs[scenario.id] = {
            _building_entity(bid): emit_building_cost(refs.flows.gas, grid.s_lv[bid],
                                                      scenario.economic, cfg.step_hours,
                                                      cfg.slack_price)
            for bid, refs in per_building.items()
        }
        owners[COMMUNITY_ENTITY] = emit_community_cost(com.hv, grid.s_mv, scenario.economic,
                                                       cfg.step_hours, cfg.slack_price)
        # every column these terms price was added in this scenario's loop
        stage = np.zeros(len(model.variables) - first)
        for terms in owners.values():
            for ids, coefs in terms.values():
                np.add.at(stage, ids - first, coefs)
        stage *= scenario.probability
        stages.append((first, stage))
        building_refs[scenario.id] = per_building
        community_refs[scenario.id] = com

    cost = np.zeros(len(model.variables))
    for terms in investment.values():
        np.add.at(cost, *terms)
    for first, stage in stages:
        cost[first: first + len(stage)] += stage
    model.minimize(cost)
    return BuiltModel(
        model=model,
        scenarios=scenarios,
        horizon=horizon,
        building_designs=building_designs,
        community_designs=community_designs,
        building_refs=building_refs,
        community_refs=community_refs,
        lv_rows=lv_rows,
        investment=investment,
        costs=costs,
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


@dataclass
class _SubModel:
    """One building's sub-model and the result of its latest solve."""

    built: BuiltModel
    result: SolveResult | None = None


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
    ``solve_meta["converged"]`` False.

    Each sweep reads one plan: every building from the latest solve of
    its own sub-model, the community from the sweep's last sub-solve.
    ``solve_meta["status"]`` is ``"limit"`` when any sub-model's latest
    solve ended at a solver limit and ``"optimal"`` otherwise;
    ``solve_meta["backend"]`` is the backend name the last sub-solve
    reports, and ``solve_meta["max_mip_gap"]`` the largest ``mip_gap``
    among the latest sub-solves that report one.

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

    subs: dict[int, _SubModel] = {}  # ascending bid
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
            sub = subs.get(bid)
            if sub is None:
                sub = subs[bid] = _SubModel(_build(cfg, scenarios, horizon, [building],
                                                   others_net, f"sub_{_building_entity(bid)}"))
            else:
                sub.built.set_others_net(others_net)
            sub.result = solve(sub.built.model, backend, options)
            x = _solution(sub.result, f"solve of model {sub.built.model.name!r}")
            net[bid] = {
                sid: read_values(x, refs[bid].flows.e_in) - read_values(x, refs[bid].flows.e_out)
                for sid, refs in sub.built.building_refs.items()
            }
        # the community as the sweep's last sub-solve left it
        plan = _read_plan([(s.built, s.result.x) for s in subs.values()], (sub.built, x))
        history.append(plan.objective)
        if len(history) >= 2 and abs(history[-1] - history[-2]) <= epsilon:
            converged = True
            break

    results = [s.result for s in subs.values()]
    limited = any(r.status == Status.LIMIT for r in results)
    plan.solve_meta.update({
        "status": (Status.LIMIT if limited else Status.OPTIMAL).value,
        "iterations": sweep,
        "converged": converged,
        "epsilon": epsilon,
        "o_tot_history": history,
        "wall_time_s": time.perf_counter() - t0,
    })
    if "backend" in sub.result.solver_meta:
        plan.solve_meta["backend"] = sub.result.solver_meta["backend"]
    gaps = [r.solver_meta["mip_gap"] for r in results if "mip_gap" in r.solver_meta]
    if gaps:
        plan.solve_meta["max_mip_gap"] = max(gaps)
    return plan


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
    scenarios: Sequence[Scenario],
    backend: object = "scipy",
    options: SolveOptions | None = None,
    factors: Sequence[str] = FACTORS,
) -> SensitivityReport:
    """One-at-a-time design sensitivity per uncertainty factor.

    Solves one deterministic problem per scenario and factor in
    ``factors`` (the other factors pinned at their nominals), reports the
    per-device design spread, and includes the stochastic optimum over
    ``scenarios`` as the reference.  ``ValueError`` names every factor
    that is not one of :data:`~communityplan.scenarios.FACTORS`, before
    any solve.
    """
    unknown = [f for f in factors if f not in FACTORS]
    if unknown:
        raise ValueError(f"unknown factor(s) {', '.join(unknown)}; "
                         f"factors are {', '.join(FACTORS)}")
    problems = [p for p in compose_factor_scenarios(scenarios) if p.factor in factors]
    reference = solve_centralized(cfg, list(scenarios), backend, options)

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
    for key, (var, chi) in entries.items():
        decision = designs[key]
        built.model.add_constraint(chi, Sense.EQ, float(decision.chi),
                                   f"fix_chi_{key[0]}_{key[1]}")
        built.model.add_constraint(var, Sense.EQ, decision.value,
                                   f"fix_val_{key[0]}_{key[1]}")
    result = solve(built.model, backend, options)
    return built.extract(result)
