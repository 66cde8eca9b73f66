"""Stochastic MILP sizing and operation planning for residential energy
communities: RC building thermal dynamics, energy-hub device blocks,
scenario generation/reduction, a two-stage stochastic program, a
distributed sequential solving scheme and a one-at-a-time sensitivity
analysis."""

from .core import (
    BuildingConfig,
    ClimateProfile,
    CommunityConfig,
    DeviceKind,
    DeviceSpec,
    EconomicProfile,
    OccupantProfile,
    RCParameters,
    Scenario,
    TimeSeries,
    Unit,
    align_scenarios,
    validate_config,
)
from .milp import Domain, LinExpr, Model, Sense, SolveResult, Status, VarRef
from .objective import ObjectiveBreakdown, annuity_factor
from .planner import (
    DesignDecision,
    PlanResult,
    SensitivityReport,
    build_centralized,
    evaluate_design,
    expected_value_scenario,
    run_sensitivity,
    solve_centralized,
    solve_distributed,
    wait_and_see_value,
)
from .scenarios import (
    BootstrapSpec,
    ClusterResult,
    bootstrap_years,
    compose_factor_scenarios,
    kmedoids,
    nominal_scenario,
    reduce_scenarios,
)
from .solvers import CommandBackend, ScipyBackend, SolveOptions, SolverError, solve

__version__ = "0.1.0"

__all__ = [
    "BuildingConfig", "ClimateProfile", "CommunityConfig", "DeviceKind",
    "DeviceSpec", "EconomicProfile", "OccupantProfile", "RCParameters",
    "Scenario", "TimeSeries", "Unit", "align_scenarios", "validate_config",
    "Domain", "LinExpr", "Model", "Sense", "SolveResult", "Status", "VarRef",
    "ObjectiveBreakdown", "annuity_factor",
    "DesignDecision", "PlanResult", "SensitivityReport",
    "build_centralized", "evaluate_design", "expected_value_scenario",
    "run_sensitivity", "solve_centralized", "solve_distributed",
    "wait_and_see_value",
    "BootstrapSpec", "ClusterResult", "bootstrap_years",
    "compose_factor_scenarios", "kmedoids", "nominal_scenario",
    "reduce_scenarios",
    "CommandBackend", "ScipyBackend", "SolveOptions", "SolverError", "solve",
]
