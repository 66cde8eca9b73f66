import dataclasses

import numpy as np
import pytest

from communityplan.devices import emit_design
from communityplan.milp import LinExpr, Model
from communityplan.network import create_grid_refs
from communityplan.objective import (
    ObjectiveBreakdown,
    annuity_factor,
    emit_building_cost,
    emit_community_cost,
    emit_investment_cost,
    terms_value,
)
from communityplan.planner import build_centralized, solve_centralized

from conftest import (
    battery_spec,
    boiler_spec,
    grid_slack_terms,
    prices,
    simple_building,
    simple_config,
    simple_scenario,
)
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


def cost_at(model, terms, values):
    """Emitted terms evaluated at values keyed by variable name; every
    priced variable must have a value."""
    ids, coefs = terms
    names = model.var_names()
    return sum(coef * values[names[vid]] for vid, coef in zip(ids.tolist(), coefs.tolist()))


class TestInvestment:
    def test_single_device_value(self):
        m = Model()
        spec = battery_spec(size_price=100.0, base_price=1000.0)
        design = emit_design(m, spec, "b1")
        terms = emit_investment_cost([design], r=0.05)
        values = {design.design.name: 10.0, design.chi.name: 1.0}
        factor = annuity_factor(0.05, spec.lifetime_years)
        assert cost_at(m, terms, values) == pytest.approx(
            (100.0 * 10.0 + 1000.0) * factor, rel=1e-12
        )

    def test_absent_device_costs_nothing(self):
        m = Model()
        design = emit_design(m, battery_spec(size_price=100.0, base_price=1000.0), "b1")
        terms = emit_investment_cost([design], r=0.05)
        values = {design.design.name: 0.0, design.chi.name: 0.0}
        assert cost_at(m, terms, values) == 0.0

    def test_two_identical_devices_double(self):
        m = Model()
        spec = boiler_spec()
        designs = [emit_design(m, spec, "b1"), emit_design(m, spec, "b2")]
        terms = emit_investment_cost(designs, r=0.05)
        values = {}
        for design in designs:
            values[design.design.name] = 5.0
            values[design.chi.name] = 1.0
        single = emit_investment_cost(designs[:1], r=0.05)
        assert cost_at(m, terms, values) == pytest.approx(
            2 * cost_at(m, single, values), rel=1e-12
        )


def community_opr(m, hv, p_el):
    """The community's operation terms: ``hv`` bought at ``p_el``."""
    return emit_community_cost(hv, m.add_var("sMV"), prices(p_el=p_el), 1.0, 1e5)["o_opr"]


class TestOperationalAndCarbon:
    def test_zero_flows_zero_cost(self):
        m = Model()
        hv = [m.add_var(f"hv{t}") for t in range(3)]
        terms = community_opr(m, hv, np.full(3, 0.3))
        assert cost_at(m, terms, {v.name: 0.0 for v in hv}) == 0.0

    def test_import_for_two_hours(self):
        m = Model()
        hv = [m.add_var(f"hv{t}") for t in range(2)]
        terms = community_opr(m, hv, np.full(2, 0.30))
        assert cost_at(m, terms, {v.name: 1.0 for v in hv}) == pytest.approx(0.60)

    def test_gas_and_electricity_sum(self):
        m = Model()
        hv = [m.add_var("hv0")]
        gas = [m.add_var("g0")]
        economic = prices(p_el=[0.30], p_gas=[0.10])
        owners = [emit_community_cost(hv, m.add_var("sMV"), economic, 1.0, 1e5),
                  emit_building_cost(gas, m.add_var("sLV"), economic, 1.0, 1e5)]
        values = {"hv0": 1.0, "g0": 5.0}
        assert sum(cost_at(m, owner["o_opr"], values) for owner in owners) == pytest.approx(
            0.30 + 0.50)

    def test_carbon_dot_product_matches_numpy(self):
        m = Model()
        rng = np.random.default_rng(3)
        gas_vars = [m.add_var(f"g{t}") for t in range(24)]
        p_co2 = rng.uniform(0.01, 0.05, 24)
        flows = rng.uniform(0, 8, 24)
        terms = emit_building_cost(gas_vars, m.add_var("sLV"), prices(p_co2=p_co2), 1.0,
                                   1e5)["o_co2"]
        values = {v.name: flows[t] for t, v in enumerate(gas_vars)}
        assert cost_at(m, terms, values) == pytest.approx(float(np.dot(flows, p_co2)))

    def test_no_gas_no_carbon(self):
        m = Model()
        owners = [emit_community_cost([m.add_var("hv0")], m.add_var("sMV"), prices(), 1.0, 1e5),
                  emit_building_cost((), m.add_var("sLV"), prices(), 1.0, 1e5)]
        for owner in owners:
            ids, coefs = owner["o_co2"]
            assert ids.size == coefs.size == 0

    def test_owners_carry_every_second_stage_term(self):
        m = Model()
        owners = [emit_community_cost((), m.add_var("sMV"), prices(), 1.0, 1e5),
                  emit_building_cost((), m.add_var("sLV"), prices(), 1.0, 1e5)]
        assert all(list(owner) == ["o_opr", "o_co2", "o_slk"] for owner in owners)

    def test_terms_value_is_coefs_at_x(self):
        x = np.array([2.0, 3.0, 5.0])
        terms = (np.array([2, 0, 2]), np.array([1.0, 10.0, 0.5]))
        assert terms_value(terms, x) == 5.0 + 20.0 + 2.5
        assert terms_value((np.zeros(0, np.int64), np.zeros(0)), x) == 0.0


class TestSlackCost:
    def test_values(self):
        m = Model()
        grid = create_grid_refs(m, [1, 2, 3], horizon=2)
        terms = grid_slack_terms(grid, 1e5)

        def cost(values):
            return sum(cost_at(m, owner, values) for owner in terms)

        zeros = {grid.s_mv.name: 0.0, **{v.name: 0.0 for v in grid.s_lv.values()}}
        assert cost(zeros) == 0.0
        mv_one = dict(zeros)
        mv_one[grid.s_mv.name] = 1.0
        assert cost(mv_one) == pytest.approx(1e5)
        all_half = {grid.s_mv.name: 1.0, **{v.name: 0.5 for v in grid.s_lv.values()}}
        assert cost(all_half) == pytest.approx(1e5 + 3 * 0.5 * 1e5)


def two_stage_instance(probs, **levels):
    """One building with a boiler and a battery, the community battery and
    one scenario per probability, each at its own temperature and prices."""
    building = simple_building(1, devices=(boiler_spec(), battery_spec()))
    shared = dataclasses.replace(battery_spec(cap_max=40.0), kind="BAT_COM")
    cfg = simple_config([building], horizon=24, community_devices=(shared,))
    scenarios = [
        simple_scenario(f"w{w}", p, horizon=24, t_amb_level=2.0 + 3 * w,
                        el_price=0.2 + 0.07 * w, gas_price=0.09 + 0.013 * w, **levels)
        for w, p in enumerate(probs)
    ]
    return cfg, scenarios


def expression_sum(built):
    """The two-stage objective summed as expressions from the terms the
    model stored: investment plus, per scenario, probability times
    (operation + carbon + slack)."""
    variables = built.model.variables

    def expr(terms):
        out = LinExpr()
        for vid, coef in zip(*(a.tolist() for a in terms)):
            out.add(variables[vid], coef)
        return out

    inv = LinExpr()
    for terms in built.investment.values():
        inv = inv + expr(terms)
    total = inv
    for scenario in built.scenarios:
        stage = LinExpr()
        for name in ("o_opr", "o_co2", "o_slk"):
            for owner in built.costs[scenario.id].values():
                stage = stage + expr(owner[name])
        total = total + scenario.probability * stage
    return inv, total


def design_columns(built):
    """Count of first-stage columns: they come before every scenario's."""
    return 1 + max(max(var.id, chi.id) for var, chi in built.design_entries().values())


def dense(model, expr):
    out = np.zeros(len(model.variables))
    out[list(expr.terms)] = list(expr.terms.values())
    return out


class TestTwoStageAssembly:
    def test_single_scenario_is_deterministic_sum(self):
        built = build_centralized(*two_stage_instance([1.0]))
        _, total = expression_sum(built)
        assert built.model.cost().tobytes() == dense(built.model, total).tobytes()
        assert built.model.objective_constant == 0.0

    def test_duplicated_scenarios_collapse(self):
        cfg, (scenario,) = two_stage_instance([1.0])
        clones = [type(scenario)(f"c{i}", 0.5, scenario.occupant, scenario.economic,
                                 scenario.climate) for i in range(2)]
        built = build_centralized(cfg, [scenario])
        single, first = built.model, design_columns(built)
        dup = build_centralized(cfg, clones).model
        x = np.random.default_rng(5).uniform(0.0, 3.0, len(single.variables))
        x_dup = np.concatenate([x[:first], x[first:], x[first:]])
        assert len(x_dup) == len(dup.variables)
        assert dup.cost() @ x_dup == pytest.approx(single.cost() @ x, rel=1e-12)

    def test_weighted_sum_value(self):
        built = build_centralized(*two_stage_instance([0.3, 0.7]))
        pair, first = built.model, design_columns(built)
        width = (len(pair.variables) - first) // 2
        for w, p in enumerate((0.3, 0.7)):
            cfg, scenarios = two_stage_instance([0.3, 0.7])
            alone = build_centralized(cfg, [scenarios[w]]).model
            a = first + w * width
            assert np.array_equal(pair.cost()[a:a + width], alone.cost()[first:] * p)
            assert np.array_equal(pair.cost()[:first], alone.cost()[:first])

    def test_accumulates_like_expression_sum_and_keeps_inv(self):
        built = build_centralized(*two_stage_instance([1 / 3] * 3))
        inv, total = expression_sum(built)
        cost = built.model.cost()
        assert cost.tobytes() == dense(built.model, total).tobytes()
        designs = sorted(inv.terms)
        assert cost[designs].tolist() == [inv.terms[vid] for vid in designs]

    def test_foreign_model_rejected(self):
        m, other = Model(), Model()
        m.add_var("x")
        z = other.add_var("z")
        with pytest.raises(ValueError, match="foreign"):
            m.minimize(z * 1.0)


class TestBreakdown:
    def test_matches_pricing_from_traces_and_specs(self):
        # an oracle independent of the stored terms: the plan's designs
        # priced from the configured specs, its traces at the scenario prices
        cfg, scenarios = two_stage_instance([0.3, 0.7])
        plan = solve_centralized(cfg, scenarios)
        specs = {(f"b{b.id}", s.kind.value): s for b in cfg.buildings for s in b.devices}
        specs.update({("COM", s.kind.value): s for s in cfg.community_devices})
        o_inv = sum((specs[key].size_price * d.value + specs[key].base_price * d.chi)
                    * annuity_factor(cfg.discount_rate, specs[key].lifetime_years)
                    for key, d in plan.designs.items())
        assert plan.breakdown.o_inv_lvl == pytest.approx(o_inv, rel=1e-9)
        for scenario in scenarios:
            ops, eco, step = plan.operations[scenario.id], scenario.economic, cfg.step_hours
            gas = [np.array(trace.gas) for trace in ops.buildings.values()]
            p_el, p_gas, p_co2 = (p.values[:len(ops.hv_import)]
                                  for p in (eco.p_el, eco.p_gas, eco.p_co2))
            expected = {
                "o_opr": (np.dot(ops.hv_import, p_el) + sum(np.dot(g, p_gas) for g in gas)) * step,
                "o_co2": sum(np.dot(g, p_co2) for g in gas) * step,
                "o_slk": cfg.slack_price * (ops.slack_mv + sum(ops.slack_lv.values())),
            }
            assert plan.breakdown.per_scenario[scenario.id] == pytest.approx(
                expected, rel=1e-9, abs=1e-9)

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
