import dataclasses
import hashlib
import inspect
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import communityplan.solvers
from communityplan import planner
from communityplan.core import DeviceSpec, Scenario
from communityplan.io import emit_reports, plan_result_to_dict
from communityplan.lpformat import export_lp, export_mps
from communityplan.milp import SolveResult, Status
from communityplan.planner import (
    DesignDecision,
    build_centralized,
    evaluate_design,
    expected_value_scenario,
    run_sensitivity,
    solve_centralized,
    solve_distributed,
    wait_and_see_value,
)
from communityplan.solvers import (
    HIGHS_OPTIONS,
    ScipyBackend,
    SolveOptions,
    SolverError,
    solve,
    vector_from_names,
)

from conftest import (
    battery_spec,
    boiler_spec,
    simple_building,
    simple_config,
    simple_scenario,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

import instances  # noqa: E402


def rescale_e_base(scenario, factor):
    occ = {}
    for bid, profile in scenario.occupant.items():
        series = profile.e_base
        occ[bid] = type(profile)(
            type(series)(series.start, series.step_hours,
                         series.values * factor, series.unit),
            profile.t_set,
        )
    return Scenario(scenario.id, scenario.probability, occ, scenario.economic,
                    scenario.climate)


class TestCentralized:
    def test_smallest_instance(self, boiler_community):
        cfg, scenario = boiler_community
        built = build_centralized(cfg, [scenario])
        stats = built.model.stats()
        assert stats["binaries"] == 1  # one boiler existence flag
        result = solve(built.model)
        assert result.status == Status.OPTIMAL
        plan = built.extract(result)
        assert plan.designs[("b1", "BOL")].chi == 1
        assert plan.breakdown.identity_gap() <= 1e-12
        assert plan.breakdown.o_tot == pytest.approx(result.objective, rel=1e-9)
        # gas pays for all delivered heat at the conversion efficiency
        ops = plan.operations[scenario.id]
        heat = np.array(ops.buildings[1].heat)
        gas = np.array(ops.buildings[1].gas)
        assert np.allclose(gas * 0.97, heat, atol=1e-6)

    def test_duplicated_scenarios_match_single(self, boiler_community):
        cfg, scenario = boiler_community
        single = solve_centralized(cfg, [scenario])
        twin_a = Scenario("a", 0.5, scenario.occupant, scenario.economic,
                          scenario.climate)
        twin_b = Scenario("b", 0.5, scenario.occupant, scenario.economic,
                          scenario.climate)
        doubled = solve_centralized(cfg, [twin_a, twin_b])
        assert doubled.objective == pytest.approx(single.objective, rel=1e-9)
        for key, decision in single.designs.items():
            assert doubled.designs[key].chi == decision.chi
            assert doubled.designs[key].value == pytest.approx(
                decision.value, abs=1e-6
            )

    def test_designs_respect_gating(self, boiler_community):
        cfg, scenario = boiler_community
        plan = solve_centralized(cfg, [scenario])
        spec = cfg.buildings[0].devices[0]
        for (entity, kind), decision in plan.designs.items():
            if decision.chi == 0:
                assert decision.value == pytest.approx(0.0, abs=1e-6)
            else:
                assert spec.cap_min - 1e-6 <= decision.value <= spec.cap_max + 1e-6

    def test_roof_caps_pv_and_collector_designs(self):
        # a 10 m2 roof below both specs' bounds: the planner caps cap_min
        # and cap_max of each area-based design before emitting it
        pv = DeviceSpec(kind="PV", cap_min=12.0, cap_max=40.0, extra={"eta": 0.2})
        stc = DeviceSpec(kind="STC", cap_min=0.0, cap_max=30.0,
                         extra={"eta": 0.7, "u_loss": 4.0, "t_collector": 35.0})
        building = simple_building(1, devices=(boiler_spec(), pv, stc), roof_area=10.0)
        cfg = simple_config([building], horizon=24)
        model = build_centralized(cfg, [simple_scenario(horizon=24)]).model
        for kind, cap_min in (("PV", 10.0), ("STC", 0.0)):
            area = model.var_by_name(f"A_{kind}_b1")
            chi = model.var_by_name(f"chi_{kind}_b1")
            assert area.hi == 10.0
            gate_hi = model.constraint_by_name(f"gate_hi_{kind}_b1").expr.terms
            gate_lo = model.constraint_by_name(f"gate_lo_{kind}_b1").expr.terms
            assert gate_hi == {area.id: 1.0, chi.id: -10.0}
            assert gate_lo.get(chi.id, 0.0) == -cap_min

    @pytest.mark.parametrize("plan", [build_centralized, solve_distributed])
    def test_scenario_step_must_be_the_configured_step(self, boiler_community, plan):
        # hourly scenarios are not planned as half-hours
        cfg, scenario = boiler_community
        with pytest.raises(ValueError, match=r"scenarios step 1\.0 h differs from "
                                             r"the configured step_hours 0\.5 h"):
            plan(dataclasses.replace(cfg, step_hours=0.5), [scenario])

    def test_invalid_config_raises(self, boiler_community):
        cfg, scenario = boiler_community
        broken = type(cfg)(
            buildings=cfg.buildings, lv_limit=0.0, mv_limit=cfg.mv_limit,
            slack_price=cfg.slack_price, discount_rate=cfg.discount_rate,
            horizon_steps=cfg.horizon_steps, step_hours=cfg.step_hours,
        )
        with pytest.raises(ValueError, match="lv_limit"):
            build_centralized(broken, [scenario])


class TestDistributed:
    def test_single_building_equals_centralized(self, boiler_community):
        cfg, scenario = boiler_community
        central = solve_centralized(cfg, [scenario])
        dist = solve_distributed(cfg, [scenario], epsilon=1e-6, max_iters=5)
        assert dist.objective == pytest.approx(central.objective, rel=1e-9)
        assert dist.solve_meta["converged"]

    def test_no_interaction_converges_first_sweep(self):
        # flat prices, boilers only: nothing to coordinate
        buildings = [
            simple_building(i, devices=(boiler_spec(),)) for i in (1, 2, 3)
        ]
        cfg = simple_config(buildings, horizon=48)
        scenarios = [
            simple_scenario("s0", 0.5, horizon=48, building_ids=(1, 2, 3)),
            simple_scenario("s1", 0.5, horizon=48, building_ids=(1, 2, 3),
                            t_amb_level=8.0),
        ]
        central = solve_centralized(cfg, scenarios)
        dist = solve_distributed(cfg, scenarios, epsilon=1.0, max_iters=10)
        assert dist.solve_meta["converged"]
        assert dist.solve_meta["iterations"] == 2  # second sweep only confirms
        assert dist.objective == pytest.approx(central.objective, rel=1e-6)

    def test_objective_history_non_increasing(self):
        buildings = [
            simple_building(1, devices=(boiler_spec(), battery_spec())),
            simple_building(2, devices=(boiler_spec(),)),
        ]
        cfg = simple_config(buildings, horizon=48)
        scenarios = [simple_scenario(horizon=48, building_ids=(1, 2))]
        dist = solve_distributed(cfg, scenarios, epsilon=1e-4, max_iters=6)
        history = dist.solve_meta["o_tot_history"]
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier + 1e-6

    def test_interactive_instance_within_one_percent(self):
        # a community battery and strong price swings create exchanges
        com_bat = DeviceSpec(
            kind="BAT_COM", cap_min=1.0, cap_max=60.0, eta_ch=0.95,
            eta_dch=0.95, sigma=0.999, gamma_ch=1.0, gamma_dch=1.0,
            size_price=5.0, base_price=10.0, lifetime_years=20.0,
        )
        buildings = [
            simple_building(i, devices=(boiler_spec(), battery_spec()))
            for i in (1, 2)
        ]
        cfg = simple_config(buildings, horizon=48, community_devices=(com_bat,))
        scenarios = [
            simple_scenario("s0", 0.6, horizon=48, building_ids=(1, 2)),
            simple_scenario("s1", 0.4, horizon=48, building_ids=(1, 2),
                            el_price=0.45, gas_price=0.13),
        ]
        central = solve_centralized(cfg, scenarios)
        dist = solve_distributed(cfg, scenarios, epsilon=0.01, max_iters=12)
        gap = abs(dist.objective - central.objective) / abs(central.objective)
        assert gap <= 0.01

    def test_no_sweep_rejected(self, boiler_community):
        cfg, scenario = boiler_community
        with pytest.raises(ValueError, match="max_iters"):
            solve_distributed(cfg, [scenario], max_iters=0)

    def test_scenario_without_a_building_names_it(self):
        cfg = simple_config([simple_building(i, devices=(boiler_spec(),)) for i in (1, 2, 3)],
                            horizon=24)
        scenarios = [simple_scenario("full", 0.5, horizon=24, building_ids=(1, 2, 3)),
                     simple_scenario("short", 0.5, horizon=24, building_ids=(2,))]
        message = r"scenario 'short' has no occupant profile for building\(s\) \[1, 3\]"
        with pytest.raises(ValueError, match=message):
            build_centralized(cfg, scenarios)
        with pytest.raises(ValueError, match=message):
            solve_distributed(cfg, scenarios)


class _NetLoadSpyBackend:
    """ScipyBackend that keeps, per sub-solve, the LV-aggregation rhs and
    the solved net load (Ein - Eout) of the sub-model's building, both per
    scenario index."""

    name = "net-load-spy"

    def __init__(self):
        self.calls = []  # (building id, {w: rhs}, {w: net load})

    def solve(self, model, options=None):
        result = ScipyBackend().solve(model, options)
        bid = int(model.name.removeprefix("sub_b"))
        rows, cols = model.row_names(), model.var_names()
        rhs, x = model.row_rhs(), result.x

        def per_scenario(names, stem, values):
            out = {}
            for i, name in enumerate(names):
                if name.startswith(stem):
                    w = int(name[len(stem):].split("_")[0])
                    out.setdefault(w, []).append(values[i])
            return {w: np.array(v) for w, v in out.items()}

        e_in = per_scenario(cols, f"Ein_b{bid}_s", x)
        e_out = per_scenario(cols, f"Eout_b{bid}_s", x)
        self.calls.append((
            bid,
            per_scenario(rows, "lvagg_COM_s", rhs),
            {w: e_in[w] - e_out[w] for w in e_in},
        ))
        return result


class TestCoordinationContract:
    def test_lv_rhs_is_ascending_sum_of_latest_net_loads(self):
        # every sub-model sees, per scenario, the other buildings' latest
        # solved net loads summed in ascending id order; buildings not yet
        # solved in the first sweep count as zero
        cfg, scenarios = instances.criterion1_instance(300, 1, horizon=24)
        spy = _NetLoadSpyBackend()
        solve_distributed(cfg, scenarios, epsilon=2.0, max_iters=3, backend=spy)
        n_buildings = len(cfg.buildings)
        assert len(spy.calls) >= 2 * n_buildings
        latest: dict[int, dict[int, np.ndarray]] = {}
        for call, (bid, rhs, net) in enumerate(spy.calls):
            assert bid == sorted(b.id for b in cfg.buildings)[call % n_buildings]
            assert sorted(rhs) == list(range(len(scenarios)))
            for w, row in rhs.items():
                expected = sum((latest[o][w] for o in sorted(latest) if o != bid),
                               np.zeros(len(row)))
                assert row.tobytes() == expected.tobytes()
            latest[bid] = net


def _rebuilding_distributed(cfg, scenarios, epsilon):
    """solve_distributed with every sub-model built afresh by planner._build
    in every sweep: (objective history, designs, operations)."""
    scenarios, horizon = planner._checked(cfg, scenarios)
    plans, net, history = {}, {}, []
    while True:
        for building in sorted(cfg.buildings, key=lambda b: b.id):
            bid = building.id
            others_net = {
                s.id: sum((net[o][s.id] for o in net if o != bid), np.zeros(horizon))
                for s in scenarios
            }
            built = planner._build(cfg, scenarios, horizon, [building], others_net,
                                   f"sub_b{bid}")
            plans[bid] = last = built.extract(solve(built.model))
            net[bid] = {
                sid: np.array(ops.buildings[bid].e_in) - np.array(ops.buildings[bid].e_out)
                for sid, ops in last.operations.items()
            }
        designs, operations = planner._merge_plans(plans, last)
        history.append(planner._plan_breakdown(cfg, scenarios, designs, operations).o_tot)
        if len(history) >= 2 and abs(history[-1] - history[-2]) <= epsilon:
            return history, designs, operations


class TestPersistentSubModels:
    @pytest.mark.parametrize("index", range(1, 5))
    def test_kept_sub_models_plan_like_rebuilt_ones(self, monkeypatch, index):
        # each sub-model is built once per call and only its LV rhs is
        # rewritten later, with bit-identical sweeps
        cfg, scenarios = instances.criterion1_instance(300, index, horizon=24)
        history, designs, operations = _rebuilding_distributed(cfg, scenarios, 1.0)
        builds = []
        real_build = planner._build

        def build_spy(*args):
            builds.append(args[3][0].id)
            return real_build(*args)

        monkeypatch.setattr(planner, "_build", build_spy)
        plan = solve_distributed(cfg, scenarios)
        assert plan.solve_meta["o_tot_history"] == history
        assert plan.designs == designs and plan.operations == operations
        assert sorted(builds) == sorted(b.id for b in cfg.buildings)

    def test_rewritten_sub_model_exports_like_a_fresh_build(self):
        cfg, scenarios = instances.criterion1_instance(300, 2, horizon=24)
        scenarios, horizon = planner._checked(cfg, scenarios)
        rng = np.random.default_rng(7)
        first, second = ({s.id: rng.normal(0.0, 5.0, horizon) for s in scenarios}
                         for _ in range(2))
        building = cfg.buildings[1]
        kept = planner._build(cfg, scenarios, horizon, [building], first, "sub_b2")
        export_lp(kept.model)
        kept.set_others_net(second)
        fresh = planner._build(cfg, scenarios, horizon, [building], second, "sub_b2")
        assert export_lp(kept.model) == export_lp(fresh.model)
        assert export_mps(kept.model) == export_mps(fresh.model)


class _LpSpyBackend:
    """ScipyBackend that keeps the LP text of every model it solves."""

    name = "lp-spy"

    def __init__(self):
        self.lp_texts = []

    def solve(self, model, options=None):
        self.lp_texts.append(export_lp(model))
        return ScipyBackend().solve(model, options)


def without_name_line(lp_text):
    head, rest = lp_text.split("\n", 1)
    assert head.startswith("\\ ")
    return rest


class TestSharedPath:
    """A one-building community is its own distributed sub-problem."""

    @pytest.fixture
    def one_building_two_scenarios(self):
        com_bat = DeviceSpec(
            kind="BAT_COM", cap_min=1.0, cap_max=30.0, eta_ch=0.95,
            eta_dch=0.95, sigma=0.999, gamma_ch=1.0, gamma_dch=1.0,
            size_price=5.0, base_price=10.0, lifetime_years=20.0,
        )
        building = simple_building(1, devices=(boiler_spec(), battery_spec()))
        cfg = simple_config([building], horizon=24, community_devices=(com_bat,))
        scenarios = [
            simple_scenario("s0", 0.6, horizon=24),
            simple_scenario("s1", 0.4, horizon=24, el_price=0.45, gas_price=0.13,
                            t_amb_level=8.0),
        ]
        return cfg, scenarios

    def test_sub_model_lp_equals_centralized_lp(self, one_building_two_scenarios):
        cfg, scenarios = one_building_two_scenarios
        spy = _LpSpyBackend()
        solve_distributed(cfg, scenarios, backend=spy)
        assert spy.lp_texts
        central = without_name_line(export_lp(build_centralized(cfg, scenarios).model))
        for lp_text in spy.lp_texts:
            assert lp_text.startswith("\\ sub_b1\n")
            assert without_name_line(lp_text) == central

    def test_distributed_plan_equals_centralized_plan(self, one_building_two_scenarios):
        cfg, scenarios = one_building_two_scenarios
        central = plan_result_to_dict(solve_centralized(cfg, scenarios))
        dist = plan_result_to_dict(solve_distributed(cfg, scenarios))
        del central["solve_meta"], dist["solve_meta"]
        assert dist == central


def test_highs_receives_the_per_term_cost_vector(monkeypatch):
    # the cost vector handed to HiGHS is the model's, one entry per column,
    # on the centralized model and every distributed sub-model
    models, costs = [], []
    real_solve, real_milp = ScipyBackend.solve, communityplan.solvers.milp

    def solve_spy(self, model, options=None):
        models.append(model)
        return real_solve(self, model, options)

    def milp_spy(c, **kwargs):
        costs.append(np.array(c))
        return real_milp(c=c, **kwargs)

    monkeypatch.setattr(ScipyBackend, "solve", solve_spy)
    monkeypatch.setattr(communityplan.solvers, "milp", milp_spy)
    for index in range(1, 5):
        cfg, scenarios = instances.criterion1_instance(300, index, horizon=24)
        solve_centralized(cfg, scenarios)
        solve_distributed(cfg, scenarios, epsilon=2.0, max_iters=8)
    assert len(costs) == len(models) > 8
    for model, c in zip(models, costs):
        expected = model.cost()
        assert len(expected) == len(model.variables)
        assert c.dtype == expected.dtype and c.tobytes() == expected.tobytes()


def test_highs_receives_the_fixed_options(monkeypatch):
    # feasibility jump off and one thread per usable core reach HiGHS on
    # the centralized model and every distributed sub-model, and no
    # RuntimeWarning about those keys leaves the backend
    received = []
    real_milp = communityplan.solvers.milp

    def milp_spy(c, **kwargs):
        received.append(dict(kwargs["options"]))
        return real_milp(c=c, **kwargs)

    monkeypatch.setattr(communityplan.solvers, "milp", milp_spy)
    cfg, scenarios = instances.criterion1_instance(300, 1, horizon=24)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        solve_centralized(cfg, scenarios)
        plan = solve_distributed(cfg, scenarios, epsilon=2.0, max_iters=8)
    assert len(received) == 1 + len(cfg.buildings) * plan.solve_meta["iterations"]
    for options in received:
        assert options["mip_heuristic_run_feasibility_jump"] is False
        assert options["threads"] == HIGHS_OPTIONS["threads"] >= 1


@pytest.mark.parametrize("index", range(1, 5))
def test_fixed_highs_options_keep_the_plan(monkeypatch, index):
    # the same designs and objective as HiGHS at its defaults plus the gap
    cfg, scenarios = instances.criterion1_instance(300, index, horizon=24)
    plan = solve_centralized(cfg, scenarios)
    monkeypatch.setattr(communityplan.solvers, "HIGHS_OPTIONS", {})
    reference = solve_centralized(cfg, scenarios)
    assert plan.designs == reference.designs
    assert plan.objective == pytest.approx(reference.objective, rel=1e-9, abs=0)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + a.tobytes())
    return h.hexdigest()


def plan_digests(monkeypatch, index):
    """SHA-256 of every array HiGHS receives and of every solution it
    returns, centralized then distributed, and of the distributed plan
    (objective history, designs and operations), on the criterion-1 shape
    at 24 h."""
    inputs, solutions = hashlib.sha256(), hashlib.sha256()
    real_milp = communityplan.solvers.milp

    def milp_spy(c, *, integrality, bounds, constraints, options):
        matrix, row_lo, row_hi = constraints
        inputs.update(_digest(c, integrality, *bounds, matrix.indptr, matrix.indices,
                              matrix.data, row_lo, row_hi).encode())
        run = real_milp(c, integrality=integrality, bounds=bounds, constraints=constraints,
                        options=options)
        solutions.update(_digest(run.x).encode())
        return run

    monkeypatch.setattr(communityplan.solvers, "milp", milp_spy)
    cfg, scenarios = instances.criterion1_instance(300, index, horizon=24)
    solve_centralized(cfg, scenarios)
    plan = solve_distributed(cfg, scenarios)
    history = [value.hex() for value in plan.solve_meta["o_tot_history"]]
    merged = plan_result_to_dict(plan)
    del merged["solve_meta"]
    merged = json.dumps([history, merged], sort_keys=True).encode()
    return inputs.hexdigest(), solutions.hexdigest(), hashlib.sha256(merged).hexdigest()


# plan_digests as recorded from the planner whose emission branched on each
# device kind; the catalogue-driven emission must give the same bits
RECORDED_PLAN_DIGESTS = {
    1: (
        "4aa2aac693ffb0ac3d8fec6e78a540b554d91ed2eb0b61cb9ab562862b9346aa",
        "d4fcad7faaff68b6454271784e427991fc877dd3cf0ebedb28ff5f3545ff18fe",
        "0792ddc180d16a767f17637de2d8b8cf09d776c6138e17b09d4a41981a120e26",
    ),
    2: (
        "958160449beae0c6add089456731c005764df0263477e59b6a109629a188499e",
        "bcea0e2a123cdd0c7bc55ba43dcd14585784315fd8a47adc5b5697d09193f938",
        "86afb79fdf41ef82b49bac3ebc27b73b96734b7f1258e68d7b73e00353d2f71f",
    ),
    3: (
        "9bd562e444f6fe3358fa49db7b7353ffd42e57c88b5eec4f93186407cf272c89",
        "14ac17157279bed3e7e30024cdef3762703a58cf70d16ea197ed6bf216744475",
        "0705bebe663ce9bc489773beb9d6f7bf377bb691ddf947aa32e6ce7adec8543f",
    ),
    4: (
        "3990c051729c86119fb72378afc3f9c1bfdbf42b7a65d4542df75bf7223d85f2",
        "febb85241e927cbecaa27d9f6ca4b533ee874ee08a298885ee3cbbdd716ecc5c",
        "8803745a92072ea6a9d308a60c7b4a36ea81756800b2b52e64e72b704b4102d9",
    ),
}


@pytest.mark.parametrize("index", range(1, 5))
def test_plans_are_bitwise_those_recorded(monkeypatch, index):
    assert plan_digests(monkeypatch, index) == RECORDED_PLAN_DIGESTS[index]


def test_planner_names_no_device_kind():
    # per-kind facts live in core.KIND_CATALOGUE and the devices tables
    assert "DeviceKind." not in inspect.getsource(planner)


class TestStochasticOrderings:
    def make_price_spread_instance(self, seed):
        """Scenarios share climate/occupancy, differ in prices: any design
        is feasible everywhere, so EVPI/VSS are well defined."""
        rng = np.random.default_rng(seed)
        building = simple_building(
            1, devices=(boiler_spec(), battery_spec(cap_max=8.0, size_price=15.0,
                                                    base_price=40.0))
        )
        cfg = simple_config([building], horizon=24)
        scenarios = []
        n = int(rng.integers(2, 4))
        weights = rng.uniform(0.2, 1.0, n)
        weights /= weights.sum()
        for i in range(n):
            scenarios.append(
                simple_scenario(
                    f"s{i}", float(weights[i]), horizon=24,
                    el_price=float(rng.uniform(0.1, 0.6)),
                    gas_price=float(rng.uniform(0.08, 0.16)),
                )
            )
        return cfg, scenarios

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_evpi_and_vss_orderings(self, seed):
        cfg, scenarios = self.make_price_spread_instance(seed)
        two_stage = solve_centralized(cfg, scenarios)
        ws = wait_and_see_value(cfg, scenarios)
        scale = max(1.0, abs(two_stage.objective))
        assert ws <= two_stage.objective + 1e-6 * scale

        ev = expected_value_scenario(scenarios)
        ev_plan = solve_centralized(cfg, [ev])
        eev = evaluate_design(cfg, scenarios, ev_plan.designs)
        assert two_stage.objective <= eev.objective + 1e-6 * scale

    def test_evaluate_design_pins_first_stage(self, boiler_community):
        cfg, scenario = boiler_community
        plan = solve_centralized(cfg, [scenario])
        evaluated = evaluate_design(cfg, [scenario], plan.designs)
        assert evaluated.objective == pytest.approx(plan.objective, rel=1e-6)
        for key, decision in plan.designs.items():
            assert evaluated.designs[key].value == pytest.approx(
                decision.value, abs=1e-6
            )

    @pytest.mark.parametrize("designs, message", [
        ({}, "designs to evaluate: missing design(s) b1:BOL"),
        ({("b1", "BOL"): DesignDecision(1, 10.0), ("b1", "PV"): DesignDecision(0, 0.0),
          ("b2", "BOL"): DesignDecision(0, 0.0)},
         "designs to evaluate: unknown design(s) b1:PV, b2:BOL"),
    ])
    def test_evaluate_design_names_missing_and_unknown_designs(
            self, boiler_community, designs, message):
        cfg, scenario = boiler_community
        with pytest.raises(ValueError) as info:
            evaluate_design(cfg, [scenario], designs)
        assert str(info.value) == message


class TestSensitivity:
    def test_monotone_base_load_scaling(self):
        building = simple_building(1, devices=(boiler_spec(cap_max=30.0),))
        cfg = simple_config([building], horizon=24)
        base = simple_scenario(horizon=24, t_amb_level=2.0)
        occ = [
            Scenario(f"occ{i}", 1 / 3, rescale_e_base(base, f).occupant,
                     base.economic, base.climate)
            for i, f in enumerate((0.5, 1.0, 2.0))
        ]
        report = run_sensitivity(cfg, occ, occ[:1], occ[:1], factors=("occ",))
        spread = report.spreads["occ"][("b1", "BOL")]
        values = [spread.values[f"occ_occ{i}"] for i in range(3)]
        assert values[0] <= values[1] + 1e-6 <= values[2] + 2e-6
        assert spread.minimum <= spread.mean <= spread.maximum

    def test_three_by_three_runs_nine_solves(self):
        building = simple_building(1, devices=(boiler_spec(),))
        cfg = simple_config([building], horizon=24)
        scenarios = [
            simple_scenario(f"s{i}", 1 / 3, horizon=24,
                            t_amb_level=2.0 + 3 * i,
                            el_price=0.2 + 0.1 * i,
                            e_base_scale=0.5 + 0.5 * i)
            for i in range(3)
        ]
        report = run_sensitivity(cfg, scenarios, scenarios, scenarios)
        total = sum(
            len(spread.values)
            for spreads in report.spreads.values()
            for spread in [spreads[("b1", "BOL")]]
        )
        assert total == 9
        assert report.infeasible == ()

    def test_identical_scenarios_zero_spread(self):
        building = simple_building(1, devices=(boiler_spec(),))
        cfg = simple_config([building], horizon=24)
        base = simple_scenario(horizon=24)
        clones = [
            Scenario(f"s{i}", 1 / 3, base.occupant, base.economic, base.climate)
            for i in range(3)
        ]
        report = run_sensitivity(cfg, clones, clones, clones, factors=("occ",))
        spread = report.spreads["occ"][("b1", "BOL")]
        assert spread.std == pytest.approx(0.0, abs=1e-7)

    def test_reference_matches_centralized_bitwise(self):
        building = simple_building(1, devices=(boiler_spec(),))
        cfg = simple_config([building], horizon=24)
        scenarios = [
            simple_scenario(f"s{i}", 0.5, horizon=24, t_amb_level=2.0 + i)
            for i in range(2)
        ]
        report = run_sensitivity(cfg, scenarios, scenarios, scenarios,
                                 factors=("eco",))
        direct = solve_centralized(cfg, scenarios)
        assert report.reference == direct.designs

    def test_single_scenario_factor(self):
        building = simple_building(1, devices=(boiler_spec(),))
        cfg = simple_config([building], horizon=24)
        one = [simple_scenario(horizon=24)]
        report = run_sensitivity(cfg, one, one, one, factors=("clim",))
        spread = report.spreads["clim"][("b1", "BOL")]
        assert spread.std == 0.0
        assert spread.mean == spread.minimum == spread.maximum


class _NoIncumbentBackend:
    """A solver that hits its limit before finding any solution."""

    name = "no-incumbent"

    def solve(self, model, options=None):
        return SolveResult(Status.LIMIT, float("nan"), None, {"backend": self.name})


class _NameKeyedBackend:
    """A solver that reports its values keyed by variable name."""

    name = "name-keyed"

    def solve(self, model, options=None):
        result = ScipyBackend().solve(model, options)
        values = dict(zip(model.var_names(), result.x.tolist()))
        return SolveResult(result.status, result.objective,
                           vector_from_names(model, values), {"backend": self.name})


class _LimitOnceBackend:
    """A solver whose first result is relabelled as stopped at a limit,
    its solution kept."""

    name = "limit-once"

    def __init__(self) -> None:
        self.calls = 0

    def solve(self, model, options=None):
        result = ScipyBackend().solve(model, options)
        self.calls += 1
        status = Status.LIMIT if self.calls == 1 else result.status
        return SolveResult(status, result.objective, result.x, result.solver_meta)


class TestCustomBackend:
    def test_name_keyed_values_plan_like_scipy(self, boiler_community):
        cfg, scenario = boiler_community
        expected = solve_centralized(cfg, [scenario])
        plan = solve_centralized(cfg, [scenario], _NameKeyedBackend())
        assert plan.designs == expected.designs
        assert plan.objective == expected.objective
        distributed = solve_distributed(cfg, [scenario], backend=_NameKeyedBackend())
        assert distributed.designs == solve_distributed(cfg, [scenario]).designs
        evaluated = evaluate_design(cfg, [scenario], expected.designs, _NameKeyedBackend())
        assert evaluated.objective == evaluate_design(cfg, [scenario], expected.designs).objective


class _NamelessBackend:
    """A solver object without a ``name`` attribute."""

    def solve(self, model, options=None):
        return ScipyBackend().solve(model, options)


class TestDistributedMeta:
    def test_backend_is_the_name_the_sub_plans_report(self, boiler_community, tmp_path):
        cfg, scenario = boiler_community
        default = solve_distributed(cfg, [scenario], max_iters=1)
        assert default.solve_meta["backend"] == "scipy-highs"
        assert default.solve_meta["backend"] == solve_centralized(
            cfg, [scenario]).solve_meta["backend"]
        plan = solve_distributed(cfg, [scenario], max_iters=1, backend=_NamelessBackend())
        assert plan.solve_meta["backend"] == "scipy-highs"
        emit_reports(plan, tmp_path)
        stored = json.loads((tmp_path / "plan_result.json").read_text())
        assert stored["solve_meta"]["backend"] == "scipy-highs"


class _GapBackend:
    """ScipyBackend whose results report the given MIP gaps, one per call."""

    name = "gap"

    def __init__(self, gaps) -> None:
        self.gaps = list(gaps)

    def solve(self, model, options=None):
        result = ScipyBackend().solve(model, options)
        meta = dict(result.solver_meta, mip_gap=self.gaps.pop(0))
        return SolveResult(result.status, result.objective, result.x, meta)


class TestDistributedGap:
    def test_max_mip_gap_is_the_largest_among_merged_sub_plans(self):
        cfg = simple_config([simple_building(i, devices=(boiler_spec(),)) for i in (1, 2)],
                            horizon=24)
        scenarios = [simple_scenario(horizon=24, building_ids=(1, 2))]
        # two sweeps of two buildings; only the second sweep's plans are merged
        plan = solve_distributed(cfg, scenarios, epsilon=-1.0, max_iters=2,
                                 backend=_GapBackend([0.5, 0.0, 0.02, 0.01]))
        assert plan.solve_meta["iterations"] == 2
        assert plan.solve_meta["max_mip_gap"] == 0.02

    def test_absent_when_no_sub_plan_reports_a_gap(self, boiler_community):
        cfg, scenario = boiler_community
        plan = solve_distributed(cfg, [scenario], max_iters=1, backend=_NameKeyedBackend())
        assert "max_mip_gap" not in plan.solve_meta
        default = solve_distributed(cfg, [scenario], max_iters=1)
        assert default.solve_meta["max_mip_gap"] == solve_centralized(
            cfg, [scenario]).solve_meta["mip_gap"]


class TestDistributedStatus:
    def test_merged_limit_sub_plan_marks_the_plan_limit(self):
        cfg = simple_config([simple_building(i, devices=(boiler_spec(),)) for i in (1, 2)],
                            horizon=24)
        scenarios = [simple_scenario(horizon=24, building_ids=(1, 2))]
        optimal = solve_distributed(cfg, scenarios, max_iters=1)
        limited = solve_distributed(cfg, scenarios, max_iters=1, backend=_LimitOnceBackend())
        assert optimal.solve_meta["status"] == "optimal"
        assert limited.solve_meta["status"] == "limit"
        assert limited.designs == optimal.designs


class TestLimitWithoutIncumbent:
    def test_centralized_time_limit_raises_solver_error(self):
        from test_acceptance import five_building_instance

        cfg, scenarios = five_building_instance(interactive=True)
        with pytest.raises(SolverError, match="limit without a solution"):
            solve_centralized(cfg, scenarios[:2], _NoIncumbentBackend(),
                              SolveOptions(time_limit_s=0.01))

    def test_every_entry_point_raises_solver_error(self, boiler_community):
        cfg, scenario = boiler_community
        backend = _NoIncumbentBackend()
        with pytest.raises(SolverError):
            solve_centralized(cfg, [scenario], backend)
        with pytest.raises(SolverError):
            solve_distributed(cfg, [scenario], backend=backend)
        designs = solve_centralized(cfg, [scenario]).designs
        with pytest.raises(SolverError):
            evaluate_design(cfg, [scenario], designs, backend)
