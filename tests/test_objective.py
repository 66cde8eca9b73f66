import numpy as np
import pytest

from communityplan.devices import DeviceBlockRefs, emit_design
from communityplan.milp import LinExpr, Model, evaluate
from communityplan.network import create_grid_refs
from communityplan.objective import (
    ObjectiveBreakdown,
    annuity_factor,
    assemble_two_stage_objective,
    emit_carbon_cost,
    emit_investment_cost,
    emit_operational_cost,
    emit_slack_cost,
)
from communityplan.planner import solve_centralized

from conftest import battery_spec, boiler_spec, simple_building, simple_config, simple_scenario
from oracles import annuity_reference


class TestAnnuity:
    def test_one_year_exact(self):
        assert annuity_factor(0.05, 1) == 1.05

    def test_twenty_years(self):
        assert annuity_factor(0.05, 20) == pytest.approx(0.080243, abs=5e-7)

    def test_perpetuity_limit(self):
        assert annuity_factor(0.05, 5000) == pytest.approx(0.05, abs=1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            annuity_factor(0.0, 10)
        with pytest.raises(ValueError):
            annuity_factor(-0.02, 10)
        with pytest.raises(ValueError):
            annuity_factor(0.05, 0.5)

    def test_matches_high_precision_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            r = float(rng.uniform(0.005, 0.25))
            tau = float(rng.integers(1, 41))
            mine = annuity_factor(r, tau)
            reference = annuity_reference(r, tau)
            assert abs(mine - reference) <= 1e-12 * max(1.0, abs(reference))


def design_block(model, spec, tag):
    refs = emit_design(model, spec, tag)
    return DeviceBlockRefs(kind=spec.kind, design=refs, flows={})


class TestInvestment:
    def test_single_device_value(self):
        m = Model()
        spec = battery_spec(size_price=100.0, base_price=1000.0)
        block = design_block(m, spec, "b1")
        expr = emit_investment_cost(m, [block], r=0.05)
        values = {block.design.design.name: 10.0, block.design.chi.name: 1.0}
        factor = annuity_factor(0.05, spec.lifetime_years)
        assert evaluate(expr, m, values) == pytest.approx(
            (100.0 * 10.0 + 1000.0) * factor, rel=1e-12
        )

    def test_absent_device_costs_nothing(self):
        m = Model()
        block = design_block(m, battery_spec(size_price=100.0, base_price=1000.0), "b1")
        expr = emit_investment_cost(m, [block], r=0.05)
        values = {block.design.design.name: 0.0, block.design.chi.name: 0.0}
        assert evaluate(expr, m, values) == 0.0

    def test_two_identical_devices_double(self):
        m = Model()
        spec = boiler_spec()
        blocks = [design_block(m, spec, "b1"), design_block(m, spec, "b2")]
        expr = emit_investment_cost(m, blocks, r=0.05)
        values = {}
        for block in blocks:
            values[block.design.design.name] = 5.0
            values[block.design.chi.name] = 1.0
        single = emit_investment_cost(m, blocks[:1], r=0.05)
        assert evaluate(expr, m, values) == pytest.approx(
            2 * evaluate(single, m, values), rel=1e-12
        )


class TestOperationalAndCarbon:
    def test_zero_flows_zero_cost(self):
        m = Model()
        hv = [m.add_var(f"hv{t}") for t in range(3)]
        expr = emit_operational_cost(m, hv, {}, np.full(3, 0.3), np.full(3, 0.1))
        assert evaluate(expr, m, {v.name: 0.0 for v in hv}) == 0.0

    def test_import_for_two_hours(self):
        m = Model()
        hv = [m.add_var(f"hv{t}") for t in range(2)]
        expr = emit_operational_cost(m, hv, {}, np.full(2, 0.30), np.full(2, 0.1))
        assert evaluate(expr, m, {v.name: 1.0 for v in hv}) == pytest.approx(0.60)

    def test_gas_and_electricity_sum(self):
        m = Model()
        hv = [m.add_var("hv0")]
        gas = {1: [m.add_var("g0")]}
        expr = emit_operational_cost(m, hv, gas, np.array([0.30]), np.array([0.10]))
        values = {"hv0": 1.0, "g0": 5.0}
        assert evaluate(expr, m, values) == pytest.approx(0.30 + 0.50)

    def test_carbon_dot_product_matches_numpy(self):
        m = Model()
        rng = np.random.default_rng(3)
        gas_vars = [m.add_var(f"g{t}") for t in range(24)]
        p_co2 = rng.uniform(0.01, 0.05, 24)
        flows = rng.uniform(0, 8, 24)
        expr = emit_carbon_cost(m, {1: gas_vars}, p_co2)
        values = {v.name: flows[t] for t, v in enumerate(gas_vars)}
        assert evaluate(expr, m, values) == pytest.approx(float(np.dot(flows, p_co2)))

    def test_no_gas_no_carbon(self):
        m = Model()
        expr = emit_carbon_cost(m, {}, np.array([0.02]))
        assert expr.terms == {} and expr.constant == 0.0


class TestSlackCost:
    def test_values(self):
        m = Model()
        grid = create_grid_refs(m, [1, 2, 3], horizon=2)
        expr = emit_slack_cost(m, grid, 1e5)
        zeros = {grid.s_mv.name: 0.0, **{v.name: 0.0 for v in grid.s_lv.values()}}
        assert evaluate(expr, m, zeros) == 0.0
        mv_one = dict(zeros)
        mv_one[grid.s_mv.name] = 1.0
        assert evaluate(expr, m, mv_one) == pytest.approx(1e5)
        all_half = {grid.s_mv.name: 1.0, **{v.name: 0.5 for v in grid.s_lv.values()}}
        assert evaluate(expr, m, all_half) == pytest.approx(1e5 + 3 * 0.5 * 1e5)


class TestTwoStageAssembly:
    def test_single_scenario_is_deterministic_sum(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        total = assemble_two_stage_objective(
            x * 2.0, {"w": y * 3.0}, {"w": 1.0}
        )
        assert evaluate(total, m, {"x": 1.0, "y": 1.0}) == pytest.approx(5.0)

    def test_duplicated_scenarios_collapse(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        dup = assemble_two_stage_objective(
            x * 2.0, {"a": y * 3.0, "b": y * 3.0}, {"a": 0.5, "b": 0.5}
        )
        single = assemble_two_stage_objective(x * 2.0, {"a": y * 3.0}, {"a": 1.0})
        values = {"x": 2.0, "y": 5.0}
        assert evaluate(dup, m, values) == pytest.approx(evaluate(single, m, values))

    def test_weighted_sum_value(self):
        m = Model()
        inv = LinExpr(constant=5.0)
        per = {"a": LinExpr(constant=10.0), "b": LinExpr(constant=20.0)}
        total = assemble_two_stage_objective(inv, per, {"a": 0.3, "b": 0.7})
        assert evaluate(total, m, {}) == pytest.approx(22.0)

    def test_accumulates_like_expression_sum_and_keeps_inv(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        inv = x * 2.0
        per = {"a": x * 1.0 + y * 3.0, "b": x * -5.0 + 1.0}
        probs = {"a": 0.5, "b": 0.5}
        total = assemble_two_stage_objective(inv, per, probs)
        expected = inv + probs["a"] * per["a"] + probs["b"] * per["b"]
        assert total.terms == expected.terms == {y.id: 1.5}  # x cancels exactly
        assert total.constant == expected.constant == 0.5
        assert inv.terms == {x.id: 2.0} and inv.constant == 0.0

    def test_foreign_model_rejected(self):
        m, other = Model(), Model()
        x = m.add_var("x")
        z = other.add_var("z")
        with pytest.raises(ValueError, match="different models"):
            assemble_two_stage_objective(x * 1.0, {"a": z * 1.0}, {"a": 1.0})


class TestBreakdown:
    def test_identity_holds_by_construction(self):
        breakdown = ObjectiveBreakdown.from_terms(
            10.0,
            {"a": {"o_opr": 4.0, "o_co2": 1.0, "o_slk": 0.0},
             "b": {"o_opr": 6.0, "o_co2": 2.0, "o_slk": 0.0}},
            {"a": 0.5, "b": 0.5},
        )
        assert breakdown.identity_gap() <= 1e-15
        assert breakdown.o_tot == pytest.approx(10.0 + 5.0 + 1.5)

    def test_price_scaling_scales_components_keeps_design(self):
        def build(scale):
            building = simple_building(
                1, devices=(boiler_spec(size_price=50.0 * scale,
                                        base_price=700.0 * scale),)
            )
            cfg = simple_config([building], horizon=48,
                                slack_price=1e5 * scale)
            scenario = simple_scenario(horizon=48)
            econ = scenario.economic
            scaled = type(econ)(
                *(
                    type(series)(
                        series.start, series.step_hours,
                        series.values * scale, series.unit,
                    )
                    for series in (econ.p_el, econ.p_gas, econ.p_co2)
                )
            )
            scenario = type(scenario)(
                scenario.id, scenario.probability, scenario.occupant, scaled,
                scenario.climate,
            )
            return solve_centralized(cfg, [scenario])

        base = build(1.0)
        scaled = build(3.0)
        assert scaled.breakdown.o_tot == pytest.approx(3 * base.breakdown.o_tot, rel=1e-6)
        assert scaled.breakdown.o_opr == pytest.approx(3 * base.breakdown.o_opr, rel=1e-6)
        assert scaled.breakdown.o_inv_lvl == pytest.approx(
            3 * base.breakdown.o_inv_lvl, rel=1e-6
        )
        for key, decision in base.designs.items():
            assert scaled.designs[key].chi == decision.chi
            assert scaled.designs[key].value == pytest.approx(decision.value, abs=1e-6)
