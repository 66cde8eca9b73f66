"""Command-line interface.

Verbs: ``validate``, ``fixture``, ``scenarios generate|reduce|nominal``,
``plan centralized|distributed|sensitivity`` and ``report``.  Exit codes:
0 success, 1 user error (arguments, files, validation), 2 solver failure.

Solver selection: ``--solver`` takes a command template with ``{model}``
and ``{sol}`` placeholders for an external process; the
``COMMUNITYPLAN_SOLVER`` environment variable provides the same, and the
default is the in-process HiGHS backend.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import os
import sys
from pathlib import Path

from .fixtures import generate_fixture
from .io import (
    _write_json,
    emit_reports,
    ingest_community,
    load_plan_result,
    load_scenarios,
    make_run_manifest,
    save_scenarios,
    save_sensitivity_report,
)
from .planner import run_sensitivity, solve_centralized, solve_distributed
from .scenarios import (
    FACTORS,
    BootstrapSpec,
    bootstrap_years,
    nominal_scenario,
    reduce_scenarios,
    validate_bootstrap_spec,
)
from .solvers import DEFAULT_MIP_GAP, HIGHS_OPTIONS, SolveOptions, SolverError

ENV_SOLVER = "COMMUNITYPLAN_SOLVER"
ENV_CLOCK = "COMMUNITYPLAN_CLOCK"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit(self._user_error(message))

    @staticmethod
    def _user_error(message: str) -> int:
        print(f"error: {message}", file=sys.stderr)
        return 1


def _default(func, name: str):
    """The library's default of ``func``'s parameter ``name``."""
    return inspect.signature(func).parameters[name].default


def _build_parser() -> _Parser:
    parser = _Parser(prog="communityplan", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_validate = sub.add_parser("validate", help="check a data directory")
    p_validate.add_argument("--dir", required=True, help="data directory")

    p_fixture = sub.add_parser("fixture", help="generate a synthetic data directory")
    p_fixture.add_argument("--out", required=True)
    p_fixture.add_argument("--buildings", type=int, default=5)
    p_fixture.add_argument("--seed", type=int, default=0)

    p_scn = sub.add_parser("scenarios", help="generate, reduce or inspect scenarios")
    scn_sub = p_scn.add_subparsers(dest="scenario_verb", required=True)

    p_gen = scn_sub.add_parser("generate", help="bootstrap synthetic years")
    p_gen.add_argument("--dir", required=True, help="data directory with history/")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--years", type=int, default=BootstrapSpec.n_years)
    p_gen.add_argument("--seed", type=int, default=BootstrapSpec.rng_seed)
    p_gen.add_argument("--window-weeks", type=float, default=BootstrapSpec.window_weeks)
    p_gen.add_argument("--no-weekday-partition", action="store_true")

    p_red = scn_sub.add_parser("reduce", help="k-medoids reduction of a bundle")
    p_red.add_argument("--scenarios", required=True, help="scenario bundle directory")
    p_red.add_argument("--out", required=True)
    p_red.add_argument("--k", type=int, default=_default(reduce_scenarios, "k"))
    p_red.add_argument("--seed", type=int,
                       default=_default(reduce_scenarios, "rng_seed"))

    p_nom = scn_sub.add_parser("nominal", help="print a factor's nominal scenario id")
    p_nom.add_argument("--scenarios", required=True)
    p_nom.add_argument("--factor", required=True, choices=FACTORS)

    p_plan = sub.add_parser("plan", help="solve a planning problem")
    plan_sub = p_plan.add_subparsers(dest="plan_verb", required=True)
    for name in ("centralized", "distributed", "sensitivity"):
        p = plan_sub.add_parser(name)
        p.add_argument("--dir", required=True, help="data directory (config)")
        p.add_argument("--scenarios", required=True, help="scenario bundle directory")
        p.add_argument("--out", required=True)
        p.add_argument("--horizon", type=int, default=None,
                       help="override the config horizon (steps)")
        p.add_argument("--solver", default=None, help="external solver template")
        p.add_argument("--time-limit", type=float, default=None)
        p.add_argument("--mip-gap", type=float, default=DEFAULT_MIP_GAP)
        if name == "distributed":
            p.add_argument("--epsilon", type=float,
                           default=_default(solve_distributed, "epsilon"))
            p.add_argument("--max-iters", type=int,
                           default=_default(solve_distributed, "max_iters"))
        if name == "sensitivity":
            p.add_argument("--factors", default=",".join(FACTORS))

    p_rep = sub.add_parser("report", help="re-emit report files from a stored plan")
    p_rep.add_argument("--plan", required=True, help="plan_result.json")
    p_rep.add_argument("--out", required=True)
    return parser


def _resolve_backend(arg: str | None) -> object:
    template = arg or os.environ.get(ENV_SOLVER)
    return template if template else "scipy"


def _load_inputs(args):
    ingest = ingest_community(args.dir)
    for warning in ingest.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    scenarios, manifest = load_scenarios(args.scenarios)
    cfg = ingest.config
    if args.horizon is not None:
        cfg = dataclasses.replace(cfg, horizon_steps=args.horizon)
    return cfg, scenarios, manifest


def _plan_manifest(args, backend, options: SolveOptions, manifest: dict):
    # the in-process backend also records the HiGHS settings it adds
    return make_run_manifest(
        config_path=Path(args.dir) / "config.json",
        scenario_dir=args.scenarios,
        solver=backend,
        solver_options={
            "time_limit_s": options.time_limit_s,
            "mip_gap": options.mip_gap,
            **(HIGHS_OPTIONS if backend == "scipy" else {}),
        },
        seeds={"scenario_rng": int(manifest.get("rng_seed") or 0)},
        clock=os.environ.get(ENV_CLOCK),
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.verb == "validate":
        # ingest_community raises on any violation, one per line
        ingest = ingest_community(args.dir)
        for warning in ingest.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        print(
            f"ok: {len(ingest.config.buildings)} buildings, "
            f"history of {len(ingest.history.climate.t_amb)} hours"
        )
        return 0

    if args.verb == "fixture":
        generate_fixture(args.out, args.buildings, args.seed)
        print(f"wrote fixture with {args.buildings} buildings to {args.out}")
        return 0

    if args.verb == "scenarios":
        return _dispatch_scenarios(args)

    if args.verb == "plan":
        return _dispatch_plan(args)

    if args.verb == "report":
        plan = load_plan_result(args.plan)
        files = emit_reports(plan, args.out)
        print(f"wrote {len(files)} report files to {args.out}")
        return 0

    raise ValueError(f"unknown verb {args.verb}")


def _dispatch_scenarios(args) -> int:
    if args.scenario_verb == "generate":
        ingest = ingest_community(args.dir)
        spec = BootstrapSpec(
            window_weeks=args.window_weeks,
            n_years=args.years,
            rng_seed=args.seed,
            weekday_partition=not args.no_weekday_partition,
        )
        problems = validate_bootstrap_spec(spec)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        result = bootstrap_years(ingest.history, spec)
        save_scenarios(
            args.out, list(result.years), rng_seed=args.seed,
            source_days=list(result.source_days),
        )
        print(f"wrote {len(result.years)} synthetic years to {args.out}")
        return 0

    if args.scenario_verb == "reduce":
        years, manifest = load_scenarios(args.scenarios)
        reduced, cluster = reduce_scenarios(years, k=args.k, rng_seed=args.seed)
        save_scenarios(
            args.out, reduced, rng_seed=args.seed,
            probabilities_exact=list(cluster.probabilities),
        )
        print(
            f"reduced {len(years)} years to {len(reduced)} scenarios "
            f"(objective {cluster.objective:.3f})"
        )
        return 0

    if args.scenario_verb == "nominal":
        scenarios, _ = load_scenarios(args.scenarios)
        print(nominal_scenario(scenarios, args.factor))
        return 0

    raise ValueError(f"unknown scenarios verb {args.scenario_verb}")


def _dispatch_plan(args) -> int:
    cfg, scenarios, scenario_manifest = _load_inputs(args)
    backend = _resolve_backend(args.solver)
    options = SolveOptions(time_limit_s=args.time_limit, mip_gap=args.mip_gap)
    manifest = _plan_manifest(args, backend, options, scenario_manifest)
    out = Path(args.out)

    if args.plan_verb == "centralized":
        plan = solve_centralized(cfg, scenarios, backend, options)
        emit_reports(plan, out, manifest)
        print(f"objective {plan.objective:.3f} EUR -> {out / 'plan_result.json'}")
        return 0

    if args.plan_verb == "distributed":
        plan = solve_distributed(
            cfg, scenarios, epsilon=args.epsilon, max_iters=args.max_iters,
            backend=backend, options=options,
        )
        emit_reports(plan, out, manifest)
        flag = "" if plan.solve_meta.get("converged") else " (NOT converged)"
        print(
            f"objective {plan.objective:.3f} EUR after "
            f"{plan.solve_meta['iterations']} sweeps{flag} -> "
            f"{out / 'plan_result.json'}"
        )
        return 0

    if args.plan_verb == "sensitivity":
        factors = tuple(f.strip() for f in args.factors.split(",") if f.strip())
        report = run_sensitivity(cfg, scenarios, backend, options, factors)
        files = save_sensitivity_report(report, out)
        _write_json(out / "run_manifest.json", manifest.as_dict())
        print(f"wrote {len(files) + 1} sensitivity files to {out}")
        return 0

    raise ValueError(f"unknown plan verb {args.plan_verb}")


if __name__ == "__main__":
    sys.exit(main())
