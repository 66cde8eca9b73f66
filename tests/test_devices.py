import numpy as np
import pytest

from communityplan.core import (
    KIND_CATALOGUE, HYDROGEN_CHAIN, ClimateProfile, DeviceKind, DeviceSpec, Unit,
)
from communityplan.devices import (
    BALANCE_TERMS,
    GAS_FLOW,
    cop_profile,
    emit_building_balances,
    emit_community_balance,
    emit_design,
    emit_designs,
    emit_hydrogen_design,
    emit_operations,
    emit_roof_coupling,
    roof_capped,
    simulate_storage,
    stc_yield_profile,
)
from communityplan.fixtures import generate_fixture
from communityplan.io import ingest_community
from communityplan.milp import LinExpr, Model, Sense, Status
from communityplan.solvers import solve

from conftest import battery_spec, boiler_spec, simple_scenario, ts
from oracles import storage_replay


def pin(model, var, value, name=None):
    model.add_constraint(
        LinExpr({var.id: 1.0}, 0.0, var.model_id), Sense.EQ, value,
        name or f"pin_{var.name}",
    )


def pin_all(model, refs_vars, values):
    for t, var in enumerate(refs_vars):
        pin(model, var, values[t])


def _designed(model, spec, roof=None, tag=None):
    """The design an emitter operates, roof-capped as the planner does."""
    capped = spec if roof is None else roof_capped(spec, roof)
    return emit_design(model, capped, tag or spec.kind.value.lower())


def climate(horizon, t_amb=0.0, i_sol=0.0):
    """A climate of ``horizon`` steps; a scalar holds for every step."""
    return ClimateProfile(ts(np.broadcast_to(t_amb, horizon)),
                          ts(np.broadcast_to(i_sol, horizon), Unit.WATT_PER_M2))


def operated(model, design, horizon, weather=None, tag="op"):
    """The block that ``emit_operations`` makes of ``design`` alone, under
    its own kind (the tank's for the hydrogen chain)."""
    kind = DeviceKind.HYD if len(design.entries) > 1 else design.entries[0][0].kind
    blocks = emit_operations(model, {kind: design}, weather or climate(horizon), horizon,
                             1.0, tag)
    return blocks[kind]


def solved(model):
    result = solve(model)
    assert result.status == Status.OPTIMAL, result.solver_meta.get("message")
    return result


class TestBattery:
    def test_lossless_idle_keeps_state(self):
        m = Model()
        spec = battery_spec(sigma=1.0)
        refs = operated(m, _designed(m, spec), 5)
        pin_all(m, refs.flows["charge"], np.zeros(5))
        pin_all(m, refs.flows["discharge"], np.zeros(5))
        m.minimize(LinExpr())
        result = solved(m)
        states = [result.x[v.id] for v in refs.state]
        assert np.ptp(states) <= 1e-9

    def test_single_step_charge(self):
        m = Model()
        spec = battery_spec(eta=0.95)
        refs = operated(m, _designed(m, spec), 2)
        pin(m, refs.state[0], 0.0)
        pin(m, refs.flows["charge"][0], 1.0)
        pin(m, refs.flows["discharge"][0], 0.0)
        pin(m, refs.design.chi, 1.0)
        m.minimize(LinExpr())
        result = solved(m)
        assert result.x[refs.state[1].id] == pytest.approx(0.95, abs=1e-9)

    def test_idle_self_discharge_decay(self):
        # three idle steps decay the state; a final free charge step lets
        # the relaxed cyclic bound E(0) <= E(H) stay satisfiable
        expected = 10.0 * 0.99**3  # 9.70299
        m = Model()
        spec = battery_spec(sigma=0.99, cap_max=20.0)
        refs = operated(m, _designed(m, spec), 4)
        pin(m, refs.state[0], 10.0)
        for t in range(3):
            pin(m, refs.flows["charge"][t], 0.0)
        pin_all(m, refs.flows["discharge"], np.zeros(4))
        pin(m, refs.design.chi, 1.0)
        m.minimize(LinExpr())
        result = solved(m)
        assert result.x[refs.state[3].id] == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(9.70299, abs=1e-5)

    def test_horizon_too_short(self):
        m = Model()
        design = _designed(m, battery_spec())
        with pytest.raises(ValueError, match="horizon"):
            operated(m, design, 1)

    def test_state_capped_by_design(self):
        m = Model()
        spec = battery_spec(cap_max=10.0)
        refs = operated(m, _designed(m, spec), 3)
        pin(m, refs.design.design, 4.0)
        pin(m, refs.design.chi, 1.0)
        m.minimize(LinExpr.of([(refs.state[1], -1.0)]))  # push state up
        result = solved(m)
        assert result.x[refs.state[1].id] <= 4.0 + 1e-8


class TestTes:
    def test_lossless_round_trip(self):
        spec = DeviceSpec(kind="TES", cap_min=0.0, cap_max=10.0, eta_ch=1.0,
                          eta_dch=1.0, sigma=1.0, gamma_ch=1.0, gamma_dch=1.0)
        m = Model()
        refs = operated(m, _designed(m, spec), 2)
        pin(m, refs.state[0], 0.0)
        pin(m, refs.flows["charge"][0], 2.0)
        pin(m, refs.flows["discharge"][0], 0.0)
        pin(m, refs.flows["charge"][1], 0.0)
        pin(m, refs.flows["discharge"][1], 2.0)
        pin(m, refs.design.chi, 1.0)
        m.minimize(LinExpr())
        result = solved(m)
        assert result.x[refs.state[2].id] == pytest.approx(0.0, abs=1e-9)

    def test_rate_cap_binds(self):
        spec = DeviceSpec(kind="TES", cap_min=0.0, cap_max=10.0, gamma_ch=0.5,
                          gamma_dch=0.5, eta_ch=1.0, eta_dch=1.0, sigma=1.0)
        m = Model()
        refs = operated(m, _designed(m, spec), 2)
        pin(m, refs.design.design, 10.0)
        pin(m, refs.design.chi, 1.0)
        m.minimize(LinExpr.of([(refs.flows["charge"][0], -1.0)]))
        result = solved(m)
        assert result.x[refs.flows["charge"][0].id] == pytest.approx(5.0, abs=1e-8)

    def test_lossy_round_trip_recovers_81_percent(self):
        spec = DeviceSpec(kind="TES", cap_min=0.0, cap_max=20.0, eta_ch=0.9,
                          eta_dch=0.9, sigma=1.0, gamma_ch=1.0, gamma_dch=1.0)
        m = Model()
        refs = operated(m, _designed(m, spec), 2)
        pin(m, refs.state[0], 0.0)
        pin(m, refs.flows["charge"][0], 10.0)  # 10 kWh in -> 9 stored
        pin(m, refs.flows["discharge"][0], 0.0)
        pin(m, refs.flows["charge"][1], 0.0)
        pin(m, refs.state[2], 0.0)  # drain fully
        pin(m, refs.design.chi, 1.0)
        m.minimize(LinExpr())
        result = solved(m)
        recovered = result.x[refs.flows["discharge"][1].id]
        assert recovered == pytest.approx(10.0 * 0.81, abs=1e-9)


class TestBoiler:
    def test_conversion(self):
        m = Model()
        spec = boiler_spec(eta=0.97)
        refs = operated(m, _designed(m, spec), 1)
        pin(m, refs.flows["gas"][0], 1.0)
        pin(m, refs.design.chi, 1.0)
        m.minimize(LinExpr())
        result = solved(m)
        assert result.x[refs.flows["heat"][0].id] == pytest.approx(0.97, abs=1e-12)

    def test_existence_gating_forces_zero_output(self):
        m = Model()
        refs = operated(m, _designed(m, boiler_spec()), 2)
        pin(m, refs.design.chi, 0.0)
        m.minimize(LinExpr.of((v, -1.0) for v in refs.flows["heat"]))
        result = solved(m)
        assert all(result.x[v.id] <= 1e-9 for v in refs.flows["heat"])
        assert result.x[refs.design.design.id] == pytest.approx(0.0, abs=1e-9)

    def test_inverse_conversion_demand(self):
        m = Model()
        spec = boiler_spec(eta=0.9, cap_max=20.0)
        refs = operated(m, _designed(m, spec), 1)
        pin(m, refs.flows["heat"][0], 8.0)
        m.minimize(LinExpr())
        result = solved(m)
        assert result.x[refs.flows["gas"][0].id] == pytest.approx(
            8.0 / 0.9, abs=1e-9
        )


class TestHeatPump:
    def hp_spec(self, coeffs, t_dist=35.0, cap_max=10.0):
        return DeviceSpec(kind="HP", cap_min=0.0, cap_max=cap_max,
                          extra={"cop_coeffs": list(coeffs), "t_dist": t_dist})

    def test_cop_zero_gap(self):
        spec = self.hp_spec([4.0, -0.02, 1.5, -0.03])
        cop = cop_profile(spec, np.array([35.0]))
        assert cop[0] == pytest.approx(4.0 + 1.5, abs=1e-12)

    def test_cop_formula(self):
        spec = self.hp_spec([5.0, -0.02, 0.0, 0.0])
        cop = cop_profile(spec, np.array([5.0]))  # gap 30
        assert cop[0] == pytest.approx(5.0 * np.exp(-0.6), abs=1e-12)

    def test_conversion_identity(self):
        spec = self.hp_spec([3.0, 0.0, 0.0, 0.0])
        m = Model()
        refs = operated(m, _designed(m, spec), 2, climate(2, t_amb=5.0))
        pin(m, refs.flows["power"][0], 2.0)
        m.minimize(LinExpr())
        result = solved(m)
        assert result.x[refs.flows["heat"][0].id] == pytest.approx(6.0, abs=1e-9)

    def test_nonpositive_cop_rejected(self):
        spec = self.hp_spec([-1.0, 0.0, 0.0, 0.0])
        m = Model()
        design = _designed(m, spec)
        with pytest.raises(ValueError, match="COP"):
            operated(m, design, 3, climate(3, t_amb=5.0))


class TestPv:
    def pv_spec(self, eta=0.2, cap_max=40.0):
        return DeviceSpec(kind="PV", cap_min=0.0, cap_max=cap_max, extra={"eta": eta})

    def test_night_zero(self):
        m = Model()
        spec = self.pv_spec()
        refs = operated(m, _designed(m, spec), 2, climate(2, i_sol=0.0))
        pin(m, refs.design.design, 10.0)
        m.minimize(LinExpr())
        result = solved(m)
        assert result.x[refs.flows["power"][0].id] == pytest.approx(0.0, abs=1e-12)

    def test_conversion_value(self):
        m = Model()
        spec = self.pv_spec(eta=0.2)
        refs = operated(m, _designed(m, spec), 1, climate(1, i_sol=500.0))
        pin(m, refs.design.design, 10.0)
        m.minimize(LinExpr())
        result = solved(m)
        assert result.x[refs.flows["power"][0].id] == pytest.approx(1.0, abs=1e-9)

    def test_existence_gating_zeroes_area(self):
        m = Model()
        spec = self.pv_spec()
        refs = operated(m, _designed(m, spec), 1, climate(1, i_sol=500.0))
        pin(m, refs.design.chi, 0.0)
        m.minimize(LinExpr.of([(refs.design.design, -1.0)]))
        result = solved(m)
        assert result.x[refs.design.design.id] == pytest.approx(0.0, abs=1e-9)


class TestStc:
    def stc_spec(self, eta=0.7, u_loss=4.0, t_col=35.0):
        return DeviceSpec(kind="STC", cap_min=0.0, cap_max=12.0,
                          extra={"eta": eta, "u_loss": u_loss, "t_collector": t_col})

    def test_loss_balance_point(self):
        spec = self.stc_spec()
        # irradiance exactly offsets losses: u*(t_col-amb) = 4*30 = 120
        coefs = stc_yield_profile(spec, np.array([120.0]), np.array([5.0]))
        assert coefs[0] == pytest.approx(0.0, abs=1e-12)

    def test_yield_value(self):
        spec = self.stc_spec()
        m = Model()
        refs = operated(m, _designed(m, spec), 1, climate(1, t_amb=5.0, i_sol=600.0))
        pin(m, refs.design.design, 4.0)
        m.minimize(LinExpr())
        result = solved(m)
        assert result.x[refs.flows["heat"][0].id] == pytest.approx(
            1.344, abs=1e-9
        )  # 4 * 0.7 * (600 - 120) W = 1344 W

    def test_night_clamped_not_negative(self):
        spec = self.stc_spec()
        coefs = stc_yield_profile(spec, np.zeros(3), np.full(3, 5.0))
        assert np.all(coefs == 0.0)


class TestRoofCoupling:
    def test_zero_roof_forces_both_zero(self):
        m = Model()
        pv_spec, stc_spec = TestPv().pv_spec(), TestStc().stc_spec()
        weather = climate(1, t_amb=5.0, i_sol=500.0)
        pv = operated(m, _designed(m, pv_spec, roof=0.0), 1, weather)
        stc = operated(m, _designed(m, stc_spec, roof=0.0), 1, weather)
        emit_roof_coupling(m, pv.design, stc.design, 0.0, "roof")
        m.minimize(LinExpr.of([(pv.design.design, -1.0), (stc.design.design, -1.0)]))
        result = solved(m)
        assert result.x[pv.design.design.id] == pytest.approx(0.0, abs=1e-9)
        assert result.x[stc.design.design.id] == pytest.approx(0.0, abs=1e-9)

    def test_pv_leaves_room_for_stc(self):
        m = Model()
        pv_spec, stc_spec = TestPv().pv_spec(), TestStc().stc_spec()
        weather = climate(1, t_amb=5.0, i_sol=500.0)
        pv = operated(m, _designed(m, pv_spec, roof=20.0), 1, weather)
        stc = operated(m, _designed(m, stc_spec, roof=20.0), 1, weather)
        emit_roof_coupling(m, pv.design, stc.design, 20.0, "roof")
        pin(m, pv.design.design, 15.0)
        m.minimize(LinExpr.of([(stc.design.design, -1.0)]))
        result = solved(m)
        assert result.x[stc.design.design.id] == pytest.approx(5.0, abs=1e-8)


def hydrogen_specs(eta_el=0.7, eta_fc=0.5, sigma=1.0):
    return {
        DeviceKind.EL: DeviceSpec(kind="EL", cap_min=0.0, cap_max=100.0,
                                  eta_ch=eta_el, gamma_ch=1.0),
        DeviceKind.HYD: DeviceSpec(kind="HYD", cap_min=0.0, cap_max=1000.0,
                                   sigma=sigma),
        DeviceKind.FC: DeviceSpec(kind="FC", cap_min=0.0, cap_max=100.0,
                                  eta_dch=eta_fc, gamma_dch=1.0),
    }


class TestHydrogenChain:
    def test_shared_gating(self):
        m = Model()
        refs = operated(m, emit_hydrogen_design(m, hydrogen_specs(), "COM"), 3)
        pin(m, refs.design.chi, 0.0)
        m.minimize(
            LinExpr.of((var, -1.0) for _, var in refs.design.entries)
        )
        result = solved(m)
        for _, var in refs.design.entries:
            assert result.x[var.id] == pytest.approx(0.0, abs=1e-9)

    def test_round_trip_efficiency_35_percent(self):
        m = Model()
        design = emit_hydrogen_design(m, hydrogen_specs(0.7, 0.5), "COM")
        refs = operated(m, design, 3)
        pin(m, refs.state[0], 0.0)
        pin(m, refs.flows["charge"][0], 10.0)
        pin(m, refs.flows["discharge"][0], 0.0)
        pin(m, refs.flows["charge"][1], 0.0)
        pin(m, refs.state[2], 0.0)  # require full recovery of the stored 7 kWh
        pin(m, refs.flows["charge"][2], 0.0)
        pin(m, refs.flows["discharge"][2], 0.0)
        m.minimize(LinExpr())
        result = solved(m)
        recovered = result.x[refs.flows["discharge"][1].id]
        assert recovered / 10.0 == pytest.approx(0.35, abs=1e-9)

    def test_idle_lossless_tank(self):
        m = Model()
        design = emit_hydrogen_design(m, hydrogen_specs(sigma=1.0), "COM")
        refs = operated(m, design, 4)
        pin(m, refs.state[0], 5.0)
        pin_all(m, refs.flows["charge"], np.zeros(4))
        pin_all(m, refs.flows["discharge"], np.zeros(4))
        pin(m, refs.design.chi, 1.0)
        m.minimize(LinExpr())
        result = solved(m)
        assert result.x[refs.state[4].id] == pytest.approx(5.0, abs=1e-9)

    def test_missing_member_rejected(self):
        specs = hydrogen_specs()
        del specs[DeviceKind.FC]
        with pytest.raises(ValueError, match="FC"):
            emit_hydrogen_design(Model(), specs, "COM")


class TestBuildingBalances:
    def test_pass_through_base_load(self):
        m = Model()
        q_sp = [m.add_var(f"q{t}") for t in range(2)]
        for var in q_sp:
            pin(m, var, 0.0)
        flows = emit_building_balances(m, {}, q_sp, np.full(2, 0.3), horizon=2, tag="b")
        m.minimize(LinExpr.of((v, 1.0) for v in flows.e_in))
        result = solved(m)
        assert result.x[flows.e_in[0].id] == pytest.approx(0.3, abs=1e-9)
        assert result.x[flows.e_out[0].id] == pytest.approx(0.0, abs=1e-9)

    def test_boiler_meets_heat_demand(self):
        m = Model()
        spec = boiler_spec(eta=0.9)
        blocks = {DeviceKind.BOL: operated(m, _designed(m, spec), 2)}
        q_sp = [m.add_var(f"q{t}") for t in range(2)]
        for var in q_sp:
            pin(m, var, 4.5)
        flows = emit_building_balances(m, blocks, q_sp, np.zeros(2), horizon=2, tag="b")
        m.minimize(LinExpr.of((v, 1.0) for v in blocks[DeviceKind.BOL].flows["gas"]))
        result = solved(m)
        assert result.x[
            blocks[DeviceKind.BOL].flows["heat"][0].id
        ] == pytest.approx(4.5, abs=1e-9)
        assert result.x[
            blocks[DeviceKind.BOL].flows["gas"][0].id
        ] == pytest.approx(5.0, abs=1e-9)

    def test_pv_surplus_exports(self):
        m = Model()
        spec = TestPv().pv_spec(eta=0.2)
        pv = operated(m, _designed(m, spec), 1, climate(1, i_sol=500.0))
        pin(m, pv.design.design, 10.0)  # 1 kW output
        q_sp = [m.add_var("q0")]
        pin(m, q_sp[0], 0.0)
        flows = emit_building_balances(
            m, {DeviceKind.PV: pv}, q_sp, np.array([0.2]), horizon=1, tag="b"
        )
        m.minimize(LinExpr.of([(flows.e_in[0], 1.0)]))
        result = solved(m)
        assert result.x[flows.e_out[0].id] == pytest.approx(0.8, abs=1e-9)
        assert result.x[flows.e_in[0].id] == pytest.approx(0.0, abs=1e-9)


class TestCommunityBalance:
    def test_no_devices_pass_through(self):
        m = Model()
        mvlv = [m.add_var("mvlv0")]
        lvmv = [m.add_var("lvmv0")]
        hv = emit_community_balance(m, {}, mvlv, lvmv, horizon=1, tag="COM")
        pin(m, mvlv[0], 2.0)
        pin(m, lvmv[0], 0.5)
        m.minimize(LinExpr())
        result = solved(m)
        assert result.x[hv[0].id] == pytest.approx(1.5, abs=1e-9)

    def test_community_pv_surplus_charges_battery(self):
        # PV makes 5 kW, the feeder draws 3: the 2 kW excess must land in
        # the community battery because HV is import-only
        m = Model()
        pv_spec = DeviceSpec(kind="PV_COM", cap_min=0.0, cap_max=100.0,
                             extra={"eta": 0.2})
        bat_spec = DeviceSpec(kind="BAT_COM", cap_min=0.0, cap_max=50.0,
                              eta_ch=0.9, eta_dch=0.9, sigma=1.0,
                              gamma_ch=1.0, gamma_dch=1.0)
        pv = operated(m, _designed(m, pv_spec, tag="COM"), 2, climate(2, i_sol=[500.0, 0.0]),
                      tag="COM")
        bat = operated(m, _designed(m, bat_spec, tag="COM"), 2, tag="COM")
        pin(m, pv.design.design, 50.0)  # 5 kW at t0
        pin(m, bat.design.design, 50.0)
        pin(m, bat.state[0], 0.0)
        mvlv = [m.add_var(f"mvlv{t}") for t in range(2)]
        lvmv = [m.add_var(f"lvmv{t}") for t in range(2)]
        hv = emit_community_balance(
            m, {DeviceKind.PV_COM: pv, DeviceKind.BAT_COM: bat}, mvlv, lvmv, 2, "COM"
        )
        pin(m, mvlv[0], 3.0)  # LV side draws 3 kW
        pin(m, lvmv[0], 0.0)
        pin(m, mvlv[1], 0.0)
        pin(m, lvmv[1], 0.0)
        m.minimize(LinExpr.of((v, 1.0) for v in hv))
        result = solved(m)
        assert result.x[bat.flows["charge"][0].id] == pytest.approx(2.0, abs=1e-8)
        assert result.x[hv[0].id] == pytest.approx(0.0, abs=1e-9)

    def test_all_zero_flows_feasible(self):
        m = Model()
        mvlv = [m.add_var("mvlv0")]
        lvmv = [m.add_var("lvmv0")]
        hv = emit_community_balance(m, {}, mvlv, lvmv, horizon=1, tag="COM")
        pin(m, mvlv[0], 0.0)
        pin(m, lvmv[0], 0.0)
        m.minimize(LinExpr())
        result = solved(m)
        assert result.x[hv[0].id] == pytest.approx(0.0, abs=1e-9)


class TestCatalogueTables:
    def test_balance_terms_in_row_order(self):
        kind = DeviceKind
        assert BALANCE_TERMS == (
            ("heat", kind.TES, "charge", 1.0),
            ("heat", kind.TES, "discharge", -1.0),
            ("heat", kind.BOL, "heat", -1.0),
            ("heat", kind.HP, "heat", -1.0),
            ("elec", kind.BAT, "charge", 1.0),
            ("elec", kind.BAT, "discharge", -1.0),
            ("elec", kind.HP, "power", 1.0),
            ("elec", kind.PV, "power", -1.0),
            ("mv", kind.BAT_COM, "charge", 1.0),
            ("mv", kind.BAT_COM, "discharge", -1.0),
            ("mv", kind.HYD, "charge", 1.0),
            ("mv", kind.HYD, "discharge", -1.0),
            ("mv", kind.PV_COM, "power", -1.0),
        )
        assert GAS_FLOW == (kind.BOL, "gas")

    def test_every_kind_is_designed_and_operated(self, tmp_path):
        # the fixture holds every kind; designs and blocks keep the specs'
        # order with the hydrogen chain last, under the tank's kind, and
        # every flow the balance tables name exists
        cfg = ingest_community(generate_fixture(tmp_path, 1, seed=3)).config
        specs = {"b1": cfg.buildings[0].devices,
                 "COM": cfg.community_devices[::-1]}  # FC and EL before the rest
        climate = simple_scenario(horizon=4).climate
        m = Model()
        operated = {}
        for tag, entity_specs in specs.items():
            designs = emit_designs(m, entity_specs, tag)
            expected = [s.kind for s in entity_specs if s.kind not in HYDROGEN_CHAIN]
            if tag == "COM":
                expected.append(DeviceKind.HYD)
                assert tuple(s.kind for s, _ in designs[DeviceKind.HYD].entries) == HYDROGEN_CHAIN
            assert list(designs) == expected
            for refs in designs.values():
                for spec, var in refs.entries:
                    prefix = "A_" if KIND_CATALOGUE[spec.kind].area else "C_"
                    assert var.name == f"{prefix}{spec.kind.value}_{tag}"
            blocks = emit_operations(m, designs, climate, 4, 1.0, tag)
            assert list(blocks) == list(designs)
            operated.update(blocks)
        assert set(operated) == set(DeviceKind) - {DeviceKind.EL, DeviceKind.FC}
        for kind, flow in [term[1:3] for term in BALANCE_TERMS] + [GAS_FLOW]:
            assert len(operated[kind].flows[flow]) == 4


class TestOperatorKinds:
    DESIGNS = {
        "BOL": lambda m: _designed(m, boiler_spec()),
        "BAT": lambda m: _designed(m, battery_spec()),
        "PV": lambda m: _designed(m, TestPv().pv_spec()),
        "HYD": lambda m: emit_hydrogen_design(m, hydrogen_specs(), "COM"),
    }

    @pytest.mark.parametrize("key, held, message", [
        pytest.param(DeviceKind[key], held, message, id=f"{key}-got-{held}")
        for key, held, message in [
            ("BAT", "BOL", "BAT operates BAT designs, got BOL"),
            ("BAT_COM", "BAT", "BAT_COM operates BAT_COM designs, got BAT"),
            ("TES", "BAT", "TES operates TES designs, got BAT"),
            ("HP", "BOL", "HP operates HP designs, got BOL"),
            ("PV_COM", "PV", "PV_COM operates PV_COM designs, got PV"),
            ("STC", "PV", "STC operates STC designs, got PV"),
            ("BAT", "HYD", "BAT operates BAT designs, got EL, HYD, FC"),
            ("HYD", "BAT", "HYD operates EL, HYD, FC designs, got BAT"),
        ]
    ])
    def test_design_of_another_kind_rejected(self, key, held, message):
        # every design is checked against its key before any kind emits
        m = Model()
        designs = {DeviceKind.BOL: _designed(m, boiler_spec(), tag="first"),
                   key: self.DESIGNS[held](m)}
        columns = len(m.variables)
        with pytest.raises(ValueError, match=message):
            emit_operations(m, designs, climate(3), 3, 1.0, "op")
        assert len(m.variables) == columns

    @pytest.mark.parametrize("kind", [DeviceKind.EL, DeviceKind.FC])
    def test_chain_member_has_no_operator_of_its_own(self, kind):
        m = Model()
        designs = {DeviceKind.BOL: _designed(m, boiler_spec(), tag="first"),
                   kind: _designed(m, hydrogen_specs()[kind])}
        columns = len(m.variables)
        with pytest.raises(ValueError, match=f"^{kind.value} has no operator of its own; "
                                             "the hydrogen chain is operated under HYD$"):
            emit_operations(m, designs, climate(3), 3, 1.0, "op")
        assert len(m.variables) == columns


class TestStorageReplayProperty:
    def test_arbitrage_replay_and_no_simultaneous_flows(self):
        # price valley then peak: charge cheap, discharge dear
        horizon = 8
        price = np.array([0.05, 0.05, 0.05, 0.3, 0.3, 0.3, 0.3, 0.05])
        spec = battery_spec(cap_max=8.0, eta=0.9, sigma=0.999, gamma=1.0)
        m = Model()
        refs = operated(m, _designed(m, spec), horizon)
        pin(m, refs.design.chi, 1.0)
        pin(m, refs.design.design, 8.0)
        grid = [m.add_var(f"grid{t}") for t in range(horizon)]  # purchase only
        for t in range(horizon):
            expr = LinExpr()
            expr.add(grid[t], 1.0)
            expr.add(refs.flows["charge"][t], -1.0)
            expr.add(refs.flows["discharge"][t], 1.0)
            m.add_constraint(expr, Sense.GE, 0.5, f"demand{t}")  # 0.5 kW load
        m.minimize(LinExpr.of((grid[t], price[t]) for t in range(horizon)))
        result = solved(m)
        charge = np.array([result.x[v.id] for v in refs.flows["charge"]])
        discharge = np.array([result.x[v.id] for v in refs.flows["discharge"]])
        states = np.array([result.x[v.id] for v in refs.state])
        replay = storage_replay(states[0], charge, discharge, 0.9, 0.9, 0.999)
        assert np.max(np.abs(states - replay)) <= 1e-8
        assert states[0] <= states[-1] + 1e-9  # relaxed cyclic bound
        assert np.max(np.minimum(charge, discharge)) <= 1e-6  # never both
        assert discharge.sum() > 0.1  # arbitrage actually happened

    def test_package_simulator_agrees_with_oracle(self):
        rng = np.random.default_rng(5)
        charge = rng.uniform(0, 2, 12)
        discharge = rng.uniform(0, 1, 12)
        mine = simulate_storage(3.0, charge, discharge, 0.93, 0.91, 0.995)
        theirs = storage_replay(3.0, charge, discharge, 0.93, 0.91, 0.995)
        assert np.max(np.abs(mine - theirs)) <= 1e-12


class TestDesignGating:
    def test_design_bounds_when_active(self):
        spec = battery_spec(cap_max=10.0)
        m = Model()
        refs = emit_design(m, spec, "b1")
        pin(m, refs.chi, 1.0)
        m.minimize(LinExpr.of([(refs.design, 1.0)]))
        result = solved(m)
        assert result.x[refs.design.id] == pytest.approx(spec.cap_min, abs=1e-9)
