import numpy as np
import pytest

from communityplan.core import (
    BUILDING_KINDS,
    CHANNELS,
    COMMUNITY_KINDS,
    KIND_CATALOGUE,
    ROOF_KINDS,
    DeviceKind,
    DeviceSpec,
    TimeSeries,
    Unit,
    align_scenarios,
    channel_factor,
    channel_names,
    channel_unit,
    check_channel_names,
    scenario_channels,
    scenario_from_channels,
    validate_config,
)

from conftest import (
    START,
    boiler_spec,
    simple_building,
    simple_config,
    simple_scenario,
    ts,
)


class TestDeviceCatalogue:
    def test_one_row_per_kind(self):
        assert list(KIND_CATALOGUE) == list(DeviceKind)

    def test_placement_sets(self):
        assert BUILDING_KINDS == {DeviceKind(k) for k in ("BAT", "TES", "BOL", "HP", "PV", "STC")}
        assert COMMUNITY_KINDS == {DeviceKind(k) for k in ("PV_COM", "BAT_COM", "EL", "HYD", "FC")}

    def test_area_kinds(self):
        areas = {kind for kind, facts in KIND_CATALOGUE.items() if facts.area}
        assert areas == {DeviceKind.PV, DeviceKind.PV_COM, DeviceKind.STC}
        assert ROOF_KINDS == (DeviceKind.PV, DeviceKind.STC)

    def test_required_extras(self):
        required = {kind: facts.extra for kind, facts in KIND_CATALOGUE.items() if facts.extra}
        assert required == {
            DeviceKind.BOL: ("eta",),
            DeviceKind.HP: ("cop_coeffs", "t_dist"),
            DeviceKind.PV: ("eta",),
            DeviceKind.STC: ("eta", "u_loss", "t_collector"),
            DeviceKind.PV_COM: ("eta",),
        }
        for kind, keys in required.items():
            spec = DeviceSpec(kind=kind, cap_min=0.0, cap_max=1.0)
            if kind in BUILDING_KINDS:
                cfg = simple_config([simple_building(1, devices=(spec,))], horizon=24)
                path = "buildings[0].devices[0]"
            else:
                cfg = simple_config([simple_building(1)], horizon=24, community_devices=(spec,))
                path = "community_devices[0]"
            missing = [v for v in validate_config(cfg) if ".extra" in v]
            assert missing == [f"{path}.extra: missing required key '{key}'" for key in keys]


class TestTimeSeries:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeSeries(START, 1.0, np.array([]), Unit.DEGC)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ts([1.0, np.nan])

    def test_rejects_zero_step(self):
        with pytest.raises(ValueError):
            TimeSeries(START, 0.0, np.array([1.0]), Unit.DEGC)

    def test_values_are_read_only(self):
        series = ts([1.0, 2.0])
        with pytest.raises(ValueError):
            series.values[0] = 9.0

    def test_truncated(self):
        series = ts([1.0, 2.0, 3.0])
        assert list(series.truncated(2).values) == [1.0, 2.0]
        with pytest.raises(ValueError):
            series.truncated(5)


class TestValidateConfig:
    def test_well_formed_two_buildings_pass(self):
        cfg = simple_config(
            [simple_building(1, devices=(boiler_spec(),)), simple_building(2)],
            horizon=24,
        )
        assert validate_config(cfg) == []

    def test_zero_lv_limit_single_violation(self):
        cfg = simple_config([simple_building(1)], horizon=24, lv_limit=0.0)
        violations = validate_config(cfg)
        assert len(violations) == 1
        assert "lv_limit > 0" in violations[0]

    def test_eta_out_of_range(self):
        bad = DeviceSpec(kind="BAT", cap_min=0, cap_max=5, eta_ch=1.2)
        cfg = simple_config([simple_building(1, devices=(bad,))], horizon=24)
        violations = validate_config(cfg)
        assert any("eta_" in v and "eta_ch" in v for v in violations)

    def test_cap_bounds_and_lifetime(self):
        bad = DeviceSpec(kind="BAT", cap_min=5, cap_max=1, lifetime_years=0.5)
        cfg = simple_config([simple_building(1, devices=(bad,))], horizon=24)
        violations = validate_config(cfg)
        assert any("cap_min <= cap_max" in v for v in violations)
        assert any("tau >= 1" in v for v in violations)

    def test_rc_key_set_must_match_order(self):
        rc = simple_building(1).rc
        bad_rc = type(rc)(
            order=2,
            resistances={"R_ia": 1e-2},  # missing R_ie, R_ea
            capacities={"C_i": 1e7, "C_e": 4e7},
            window_area=2.0,
        )
        cfg = simple_config([simple_building(1, rc=bad_rc)], horizon=24)
        violations = validate_config(cfg)
        assert any("resistances" in v and "order 2" in v for v in violations)

    def test_negative_building_id(self):
        # model names carry the id, and LP text would read its "-" as an operator
        cfg = simple_config([simple_building(-1, devices=(boiler_spec(),))], horizon=24)
        assert validate_config(cfg) == ["buildings[0].id: requires id >= 0"]
        cfg = simple_config([simple_building(0, devices=(boiler_spec(),))], horizon=24)
        assert validate_config(cfg) == []

    def test_missing_required_extra(self):
        bad = DeviceSpec(kind="BOL", cap_min=1, cap_max=10)
        cfg = simple_config([simple_building(1, devices=(bad,))], horizon=24)
        assert any("missing required key 'eta'" in v for v in validate_config(cfg))

    def test_idempotent_and_side_effect_free(self):
        cfg = simple_config([simple_building(1)], horizon=24, lv_limit=0.0)
        first = validate_config(cfg)
        second = validate_config(cfg)
        assert first == second
        assert cfg.lv_limit == 0.0

    def test_no_buildings(self):
        cfg = simple_config([simple_building(1)], horizon=24)
        empty = type(cfg)(
            buildings=(),
            lv_limit=cfg.lv_limit,
            mv_limit=cfg.mv_limit,
            slack_price=cfg.slack_price,
            discount_rate=cfg.discount_rate,
            horizon_steps=cfg.horizon_steps,
            step_hours=cfg.step_hours,
        )
        assert any("at least one building" in v for v in validate_config(empty))

    # each configuration used to pass validation and then fail in planning
    @pytest.mark.parametrize("devices, community_devices, violation", [
        ((boiler_spec(), boiler_spec()), (),
         "buildings[0].devices[1]: BOL listed twice"),
        ((DeviceSpec(kind="PV_COM", cap_min=0, cap_max=5, extra={"eta": 0.2}),), (),
         "buildings[0].devices[0]: PV_COM is not a building device"),
        ((), (boiler_spec(),),
         "community_devices[0]: BOL is not a community device"),
        ((), (DeviceSpec(kind="EL", cap_min=0, cap_max=5),),
         "community_devices: hydrogen chain EL, HYD, FC lacks HYD, FC"),
    ])
    def test_device_placement(self, devices, community_devices, violation):
        cfg = simple_config([simple_building(1, devices=devices)], horizon=24,
                            community_devices=community_devices)
        assert validate_config(cfg) == [violation]


class TestAlignScenarios:
    def test_equal_lengths_unchanged(self):
        scenarios = [
            simple_scenario("a", 0.5, horizon=48),
            simple_scenario("b", 0.5, horizon=48),
        ]
        aligned = align_scenarios(scenarios)
        assert [len(s.climate.t_amb) for s in aligned] == [48, 48]
        assert np.array_equal(
            aligned[0].climate.t_amb.values, scenarios[0].climate.t_amb.values
        )

    def test_probability_renormalization(self):
        scenarios = [
            simple_scenario("a", 0.2, horizon=24),
            simple_scenario("b", 0.2, horizon=24),
        ]
        aligned = align_scenarios(scenarios)
        assert [s.probability for s in aligned] == [0.5, 0.5]
        assert abs(sum(s.probability for s in aligned) - 1.0) < 1e-12

    def test_min_truncation(self):
        scenarios = [
            simple_scenario("a", 0.5, horizon=72),
            simple_scenario("b", 0.5, horizon=48),
        ]
        aligned = align_scenarios(scenarios)
        assert all(len(s.climate.t_amb) == 48 for s in aligned)
        assert all(len(s.occupant[1].e_base) == 48 for s in aligned)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            align_scenarios([])

    def test_incompatible_steps(self):
        a = simple_scenario("a", 0.5, horizon=24)
        b = simple_scenario("b", 0.5, horizon=24)
        slow = type(a.climate)(
            ts(a.climate.t_amb.values, step=2.0), a.climate.i_sol
        )
        b = type(b)(b.id, b.probability, b.occupant, b.economic, slow)
        with pytest.raises(ValueError, match="step"):
            align_scenarios([a, b])

    def test_zero_mass(self):
        scenarios = [simple_scenario("a", 0.0, horizon=24)]
        with pytest.raises(ValueError, match="zero"):
            align_scenarios(scenarios)

    @pytest.mark.parametrize("probability", [-0.2, np.nan, np.inf])
    def test_bad_probability_names_the_scenario(self, probability):
        scenarios = [
            simple_scenario("a", 0.7, horizon=24),
            simple_scenario("b", probability, horizon=24),
            simple_scenario("c", 0.5, horizon=24),
        ]
        with pytest.raises(ValueError, match="scenario 'b': probability"):
            align_scenarios(scenarios)


class TestChannelCatalogue:
    # the catalogue spelled out: stem -> (unit, factor)
    EXPECTED = {
        "T_amb": (Unit.DEGC, "clim"), "I_sol": (Unit.WATT_PER_M2, "clim"),
        "p_el": (Unit.EUR_PER_KWH, "eco"), "p_gas": (Unit.EUR_PER_KWH, "eco"),
        "p_co2": (Unit.EUR_PER_KWH, "eco"),
        "E_base": (Unit.KILOWATT, "occ"), "T_set": (Unit.DEGC, "occ"),
    }

    @staticmethod
    def stem(name):
        return name.rpartition("_b")[0] or name

    def test_round_trip_in_order(self):
        expected = ["T_amb", "I_sol", "p_el", "p_gas", "p_co2",
                    "E_base_b2", "T_set_b2", "E_base_b3", "T_set_b3",
                    "E_base_b12", "T_set_b12"]
        rng = np.random.default_rng(5)
        channels = {
            name: ts(rng.normal(size=6), self.EXPECTED[self.stem(name)][0])
            for name in reversed(expected)
        }
        scenario = scenario_from_channels("s", 0.25, channels)
        assert (scenario.id, scenario.probability) == ("s", 0.25)
        assert scenario.occupant[12].t_set == channels["T_set_b12"]
        assert scenario.economic.p_gas == channels["p_gas"]
        flat = scenario_channels(scenario)
        assert list(flat) == expected
        assert all(flat[name] == channels[name] for name in expected)
        assert scenario_from_channels("s", 0.25, flat) == scenario

    @pytest.mark.parametrize("name", channel_names([1, -3]) + [
        "E_base_b01", "E_base_bx", "E_base", "notes", "p_el_b1", "T_amb_b1",
        "T_set_b-0", "T_set_b--3",
    ])
    def test_name_functions_agree(self, name):
        unknown = check_channel_names([name])[1]
        known = name in channel_names([1, -3])
        assert unknown == ([] if known else [name])
        if known:
            unit, factor = self.EXPECTED[self.stem(name)]
            assert (channel_unit(name), channel_factor(name)) == (unit, factor)
        else:
            with pytest.raises(ValueError):
                channel_unit(name)
            with pytest.raises(ValueError):
                channel_factor(name)

    def test_catalogue_spelled_out(self):
        assert {c.stem: (c.unit, c.factor) for c in CHANNELS} == self.EXPECTED
