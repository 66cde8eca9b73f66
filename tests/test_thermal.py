import numpy as np
import pytest

from communityplan.core import BuildingConfig, ClimateProfile, RCParameters, Unit
from communityplan.milp import LinExpr, Model, Sense
from communityplan.solvers import solve
from communityplan.thermal import (
    check_euler_stability,
    emit_comfort_constraints,
    emit_thermal_constraints,
    simulate_thermal,
)

from conftest import ts
from oracles import euler_rc_trajectories, rc_steady_state_order5

RC_BY_ORDER = {
    1: RCParameters(1, {"R_ia": 6e-3}, {"C_i": 2e7}, window_area=2.0),
    2: RCParameters(
        2, {"R_ia": 8e-3, "R_ie": 4e-3, "R_ea": 6e-3},
        {"C_i": 1e7, "C_e": 4e7}, window_area=2.0, envelope_area=5.0,
    ),
    3: RCParameters(
        3, {"R_ia": 8e-3, "R_ie": 4e-3, "R_ea": 6e-3, "R_im": 3e-3},
        {"C_i": 1e7, "C_e": 4e7, "C_m": 6e7}, window_area=2.0, envelope_area=5.0,
    ),
    4: RCParameters(
        4, {"R_ia": 8e-3, "R_ie": 4e-3, "R_ea": 6e-3, "R_im": 3e-3, "R_ih": 5e-3},
        {"C_i": 1e7, "C_e": 4e7, "C_m": 6e7, "C_h": 5e6},
        window_area=2.0, envelope_area=5.0,
    ),
    5: RCParameters(
        5,
        {"R_ia": 8e-3, "R_ie": 4e-3, "R_ea": 6e-3, "R_im": 3e-3, "R_ih": 5e-3,
         "R_is": 8e-2},
        {"C_i": 1e7, "C_e": 4e7, "C_m": 6e7, "C_h": 5e6, "C_s": 3e5},
        window_area=2.0, envelope_area=5.0,
    ),
}


def building_of_order(order: int, bid: int = 1) -> BuildingConfig:
    return BuildingConfig(id=bid, rc=RC_BY_ORDER[order], roof_area=20.0)


def climate(horizon, t_amb=None, i_sol=None) -> ClimateProfile:
    hours = np.arange(horizon)
    if t_amb is None:
        t_amb = 5.0 + 4.0 * np.sin(hours / 5.0)
    if i_sol is None:
        i_sol = np.maximum(0.0, 250.0 * np.sin(hours / 7.0))
    return ClimateProfile(ts(t_amb), ts(i_sol, Unit.WATT_PER_M2))


def solve_with_fixed_heating(order, clim, q_fixed, t_init, horizon):
    model = Model("rc")
    refs = emit_thermal_constraints(
        model, building_of_order(order), clim, horizon, t_init=t_init,
        step_hours=1.0, tag="b1",
    )
    for t, var in enumerate(refs.q_sp):
        model.add_constraint(
            LinExpr({var.id: 1.0}, 0.0, var.model_id), Sense.EQ, q_fixed[t], f"pin{t}"
        )
    model.minimize(LinExpr())
    result = solve(model)
    assert result.status.value == "optimal"
    return refs, result


class TestDynamicsAgainstIndependentEuler:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_fixed_heating_matches_oracle(self, order):
        horizon = 48
        clim = climate(horizon)
        rng = np.random.default_rng(order)
        q_fixed = rng.uniform(0.0, 2.5, horizon)
        refs, result = solve_with_fixed_heating(order, clim, q_fixed, 19.0, horizon)
        rc = RC_BY_ORDER[order]
        oracle = euler_rc_trajectories(
            order, dict(rc.resistances), dict(rc.capacities), rc.window_area,
            rc.envelope_area, clim.t_amb.values, clim.i_sol.values, q_fixed, 19.0,
        )
        for node in rc.states():
            got = refs.state_celsius(node, result.x)
            assert np.max(np.abs(got - oracle[node])) <= 1e-8

    def test_equilibrium_fixed_point(self):
        horizon = 24
        clim = climate(horizon, t_amb=np.full(horizon, 20.0), i_sol=np.zeros(horizon))
        refs, result = solve_with_fixed_heating(1, clim, np.zeros(horizon), 20.0, horizon)
        assert np.allclose(refs.indoor_celsius(result.x), 20.0, atol=1e-8)

    def test_near_adiabatic_constant_heating_ramp(self):
        horizon = 24
        c_i = 1e7
        rc = RCParameters(1, {"R_ia": 1e6}, {"C_i": c_i}, window_area=0.0)
        building = BuildingConfig(id=1, rc=rc, roof_area=0.0)
        clim = climate(horizon, t_amb=np.full(horizon, 20.0), i_sol=np.zeros(horizon))
        q = 0.5  # kW
        model = Model("adiabatic")
        refs = emit_thermal_constraints(model, building, clim, horizon, t_init=20.0,
                                        step_hours=1.0, tag="b1")
        for t, var in enumerate(refs.q_sp):
            model.add_constraint(
                LinExpr({var.id: 1.0}, 0.0, var.model_id), Sense.EQ, q, f"pin{t}"
            )
        model.minimize(LinExpr())
        result = solve(model)
        got = refs.indoor_celsius(result.x)
        # exact Euler recursion including the tiny leak term
        oracle = euler_rc_trajectories(
            1, {"R_ia": 1e6}, {"C_i": c_i}, 0.0, 0.0,
            clim.t_amb.values, clim.i_sol.values, np.full(horizon, q), 20.0,
        )["i"]
        assert np.max(np.abs(got - oracle)) <= 1e-9
        # and the closed-form adiabatic ramp up to the leak
        ramp = 20.0 + np.arange(horizon) * (q * 1000.0 * 3600.0 / c_i)
        assert np.max(np.abs(got - ramp)) <= 1e-6

    def test_order5_constant_inputs_reach_steady_state(self):
        horizon = 3000
        t_amb, i_sol, q = 5.0, 150.0, 1.2
        rc = RC_BY_ORDER[5]
        sim = euler_rc_trajectories(
            5, dict(rc.resistances), dict(rc.capacities), rc.window_area,
            rc.envelope_area, np.full(horizon, t_amb), np.full(horizon, i_sol),
            np.full(horizon, q), 19.0,
        )
        steady = rc_steady_state_order5(
            dict(rc.resistances), dict(rc.capacities), rc.window_area,
            rc.envelope_area, t_amb, i_sol, q,
        )
        for node in "iemhs":
            assert sim[node][-1] == pytest.approx(steady[node], abs=1e-6)

    def test_package_simulator_matches_oracle(self):
        horizon = 72
        clim = climate(horizon)
        q = np.linspace(0.0, 2.0, horizon)
        mine = simulate_thermal(building_of_order(4), clim, q, 18.5, horizon)
        rc = RC_BY_ORDER[4]
        oracle = euler_rc_trajectories(
            4, dict(rc.resistances), dict(rc.capacities), rc.window_area,
            rc.envelope_area, clim.t_amb.values, clim.i_sol.values, q, 18.5,
        )
        for node in rc.states():
            assert np.max(np.abs(mine[node] - oracle[node])) <= 1e-12


class TestComfort:
    def _solve_min_energy(self, t_set, buffer, horizon, order=1, t_amb_level=0.0):
        clim = climate(horizon, t_amb=np.full(horizon, t_amb_level),
                       i_sol=np.zeros(horizon))
        model = Model("comfort")
        refs = emit_thermal_constraints(
            model, building_of_order(order), clim, horizon, t_init=float(t_set[0]),
            step_hours=1.0, tag="b1",
        )
        emit_comfort_constraints(model, refs, t_set, buffer, tag="comfort")
        model.minimize(LinExpr.of((v, 1.0) for v in refs.q_sp))
        result = solve(model)
        assert result.status.value == "optimal"
        return refs.indoor_celsius(result.x), np.array(
            [result.x[v.id] for v in refs.q_sp]
        )

    def test_buffer_gives_lower_bound(self):
        horizon = 36
        t_set = np.full(horizon, 19.0)
        indoor, _ = self._solve_min_energy(t_set, 0.5, horizon)
        assert np.all(indoor >= 18.5 - 1e-7)
        assert np.min(indoor) == pytest.approx(18.5, abs=1e-5)

    def test_zero_buffer(self):
        horizon = 24
        t_set = np.full(horizon, 19.0)
        indoor, _ = self._solve_min_energy(t_set, 0.0, horizon)
        assert np.all(indoor >= 19.0 - 1e-7)

    def test_stepped_set_point_steps_bound(self):
        horizon = 48
        t_set = np.where(np.arange(horizon) < 24, 17.0, 19.0)
        indoor, _ = self._solve_min_energy(t_set, 0.5, horizon)
        assert np.all(indoor >= t_set - 0.5 - 1e-7)
        # the early cheap half sits on the lower bound, not the later one
        assert indoor[5] == pytest.approx(16.5, abs=1e-5)

    def test_one_sided_no_upper_bound(self):
        horizon = 24
        clim = climate(horizon, t_amb=np.full(horizon, 30.0), i_sol=np.zeros(horizon))
        model = Model("warm")
        refs = emit_thermal_constraints(
            model, building_of_order(1), clim, horizon, t_init=19.0,
            step_hours=1.0, tag="b1",
        )
        emit_comfort_constraints(model, refs, np.full(horizon, 19.0), 0.5, tag="comfort")
        model.minimize(LinExpr.of((v, 1.0) for v in refs.q_sp))
        result = solve(model)
        indoor = refs.indoor_celsius(result.x)
        assert result.status.value == "optimal"
        assert np.max(indoor) > 19.5  # drifts above the set point freely

    def test_offset_invariance(self):
        horizon = 36
        delta = 7.0
        t_set = np.full(horizon, 19.0)
        base_indoor, base_q = self._solve_min_energy(t_set, 0.5, horizon, t_amb_level=2.0)
        clim = climate(horizon, t_amb=np.full(horizon, 2.0 + delta),
                       i_sol=np.zeros(horizon))
        model = Model("shifted")
        refs = emit_thermal_constraints(
            model, building_of_order(1), clim, horizon, t_init=19.0 + delta,
            step_hours=1.0, tag="b1",
        )
        emit_comfort_constraints(model, refs, t_set + delta, 0.5, tag="comfort")
        model.minimize(LinExpr.of((v, 1.0) for v in refs.q_sp))
        result = solve(model)
        shifted_indoor = refs.indoor_celsius(result.x)
        shifted_q = np.array([result.x[v.id] for v in refs.q_sp])
        assert np.max(np.abs(shifted_indoor - (base_indoor + delta))) <= 1e-5
        assert np.max(np.abs(shifted_q - base_q)) <= 1e-5

    def test_monotone_heating_in_set_point(self):
        horizon = 36
        _, q_low = self._solve_min_energy(np.full(horizon, 18.0), 0.5, horizon)
        _, q_high = self._solve_min_energy(np.full(horizon, 20.0), 0.5, horizon)
        assert q_high.sum() >= q_low.sum() - 1e-6


class TestGuards:
    def test_stability_guard_names_pair(self):
        stiff = RCParameters(
            1, {"R_ia": 1e-4}, {"C_i": 1e6}, window_area=1.0
        )  # step/(RC) = 36
        building = BuildingConfig(id=9, rc=stiff, roof_area=0.0)
        with pytest.raises(ValueError, match=r"R_ia.*C_i|pair"):
            check_euler_stability(building, 1.0)

    def test_short_series_rejected(self):
        clim = climate(10)
        with pytest.raises(ValueError, match="cover horizon"):
            emit_thermal_constraints(
                Model(), building_of_order(1), clim, 24, t_init=19.0,
                step_hours=1.0, tag="b1",
            )

    def test_nonpositive_rc_rejected(self):
        bad = RCParameters(1, {"R_ia": 6e-3}, {"C_i": 2e7}, window_area=1.0)
        object.__setattr__(bad, "resistances", {"R_ia": -1.0})
        building = BuildingConfig(id=1, rc=bad, roof_area=0.0)
        with pytest.raises(ValueError, match="non-positive"):
            emit_thermal_constraints(Model(), building, climate(24), 24, t_init=19.0,
                                     step_hours=1.0, tag="b1")
