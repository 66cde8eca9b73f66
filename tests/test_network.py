import numpy as np
import pytest

from communityplan.devices import BuildingEnergyRefs
from communityplan.milp import LinExpr, Model, Sense, Status
from communityplan.network import (
    create_grid_refs,
    emit_grid_limits,
    emit_lv_aggregation,
)
from communityplan.solvers import solve

from conftest import grid_slack_terms


def pin(model, var, value):
    model.add_constraint(
        LinExpr({var.id: 1.0}, 0.0, var.model_id), Sense.EQ, value, f"pin_{var.name}"
    )


def minimize_slack(model, grid, price):
    cost = np.zeros(len(model.variables))
    for terms in grid_slack_terms(grid, price):
        np.add.at(cost, *terms)
    model.minimize(cost)


def free_flows(model, bid, horizon) -> BuildingEnergyRefs:
    e_in = tuple(model.add_var(f"Ein_b{bid}_t{t}") for t in range(horizon))
    e_out = tuple(model.add_var(f"Eout_b{bid}_t{t}") for t in range(horizon))
    return BuildingEnergyRefs(e_in=e_in, e_out=e_out)


def solved(model):
    result = solve(model)
    assert result.status == Status.OPTIMAL, result.solver_meta.get("message")
    return result


class TestGridLimits:
    def test_slacks_zero_when_within_limits(self):
        m = Model()
        horizon = 3
        flows = free_flows(m, 1, horizon)
        grid = create_grid_refs(m, [1], horizon, "COM")
        emit_grid_limits(m, grid, {1: flows}, lv_limit=10.0, mv_limit=20.0, tag="COM")
        for t in range(horizon):
            pin(m, flows.e_in[t], 4.0)
            pin(m, flows.e_out[t], 0.0)
            pin(m, grid.mv_to_lv[t], 4.0)
            pin(m, grid.lv_to_mv[t], 0.0)
        minimize_slack(m, grid, 1e5)
        result = solved(m)
        assert result.x[grid.s_mv.id] == pytest.approx(0.0, abs=1e-9)
        assert result.x[grid.s_lv[1].id] == pytest.approx(0.0, abs=1e-9)

    def test_forced_overload_buys_exact_slack(self):
        m = Model()
        flows = free_flows(m, 1, 1)
        grid = create_grid_refs(m, [1], 1, "COM")
        emit_grid_limits(m, grid, {1: flows}, lv_limit=10.0, mv_limit=50.0, tag="COM")
        pin(m, flows.e_in[0], 12.0)
        pin(m, flows.e_out[0], 0.0)
        pin(m, grid.mv_to_lv[0], 12.0)
        pin(m, grid.lv_to_mv[0], 0.0)
        minimize_slack(m, grid, 1e5)
        result = solved(m)
        assert result.x[grid.s_lv[1].id] == pytest.approx(2.0, abs=1e-8)

    def test_exact_limit_is_tight_with_zero_slack(self):
        m = Model()
        flows = free_flows(m, 1, 1)
        grid = create_grid_refs(m, [1], 1, "COM")
        emit_grid_limits(m, grid, {1: flows}, lv_limit=10.0, mv_limit=7.0, tag="COM")
        pin(m, grid.mv_to_lv[0], 7.0)
        pin(m, grid.lv_to_mv[0], 0.0)
        pin(m, flows.e_in[0], 7.0)
        pin(m, flows.e_out[0], 0.0)
        minimize_slack(m, grid, 1e5)
        result = solved(m)
        assert result.x[grid.s_mv.id] == pytest.approx(0.0, abs=1e-9)

    def test_one_mv_slack_covers_both_directions(self):
        m = Model()
        flows = free_flows(m, 1, 2)
        grid = create_grid_refs(m, [1], 2, "COM")
        emit_grid_limits(m, grid, {1: flows}, lv_limit=50.0, mv_limit=5.0, tag="COM")
        pin(m, grid.mv_to_lv[0], 8.0)  # 3 over
        pin(m, grid.lv_to_mv[0], 0.0)
        pin(m, grid.mv_to_lv[1], 0.0)
        pin(m, grid.lv_to_mv[1], 7.0)  # 2 over, same slack
        for t in range(2):
            pin(m, flows.e_in[t], 0.0)
            pin(m, flows.e_out[t], 0.0)
        minimize_slack(m, grid, 1e5)
        result = solved(m)
        assert result.x[grid.s_mv.id] == pytest.approx(3.0, abs=1e-8)


class TestLvAggregation:
    def test_single_import(self):
        m = Model()
        flows = free_flows(m, 1, 1)
        grid = create_grid_refs(m, [1], 1, "COM")
        emit_lv_aggregation(m, {1: flows}, grid, 0.0, "COM")
        pin(m, flows.e_in[0], 1.0)
        pin(m, flows.e_out[0], 0.0)
        pin(m, grid.lv_to_mv[0], 0.0)
        m.minimize(LinExpr())
        result = solved(m)
        assert result.x[grid.mv_to_lv[0].id] == pytest.approx(1.0, abs=1e-9)

    def test_internal_netting(self):
        m = Model()
        f1, f2 = free_flows(m, 1, 1), free_flows(m, 2, 1)
        grid = create_grid_refs(m, [1, 2], 1, "COM")
        emit_lv_aggregation(m, {1: f1, 2: f2}, grid, 0.0, "COM")
        pin(m, f1.e_in[0], 2.0)
        pin(m, f1.e_out[0], 0.0)
        pin(m, f2.e_in[0], 0.0)
        pin(m, f2.e_out[0], 2.0)
        m.minimize(
            LinExpr.of([(grid.mv_to_lv[0], 1.0), (grid.lv_to_mv[0], 1.0)])
        )
        result = solved(m)
        assert result.x[grid.mv_to_lv[0].id] == pytest.approx(0.0, abs=1e-9)
        assert result.x[grid.lv_to_mv[0].id] == pytest.approx(0.0, abs=1e-9)

    def test_net_export(self):
        m = Model()
        f1, f2 = free_flows(m, 1, 1), free_flows(m, 2, 1)
        grid = create_grid_refs(m, [1, 2], 1, "COM")
        emit_lv_aggregation(m, {1: f1, 2: f2}, grid, 0.0, "COM")
        pin(m, f1.e_in[0], 1.0)
        pin(m, f1.e_out[0], 0.0)
        pin(m, f2.e_in[0], 0.0)
        pin(m, f2.e_out[0], 4.0)
        m.minimize(
            LinExpr.of([(grid.mv_to_lv[0], 1.0), (grid.lv_to_mv[0], 1.0)])
        )
        result = solved(m)
        assert result.x[grid.lv_to_mv[0].id] == pytest.approx(3.0, abs=1e-9)


class TestDistributedAggregation:
    def test_zero_others_reduces_to_single_building(self):
        m = Model()
        flows = free_flows(m, 1, 2)
        grid = create_grid_refs(m, [1], 2, "COM")
        emit_lv_aggregation(m, {1: flows}, grid, np.zeros(2), "COM")
        for t in range(2):
            pin(m, flows.e_in[t], 1.5)
            pin(m, flows.e_out[t], 0.0)
            pin(m, grid.lv_to_mv[t], 0.0)
        m.minimize(LinExpr())
        result = solved(m)
        assert result.x[grid.mv_to_lv[0].id] == pytest.approx(1.5, abs=1e-9)

    def test_others_export_nets_out_own_import(self):
        m = Model()
        flows = free_flows(m, 1, 1)
        grid = create_grid_refs(m, [1], 1, "COM")
        emit_lv_aggregation(m, {1: flows}, grid, np.array([-2.0]), "COM")
        pin(m, flows.e_in[0], 2.0)
        pin(m, flows.e_out[0], 0.0)
        m.minimize(
            LinExpr.of([(grid.mv_to_lv[0], 1.0), (grid.lv_to_mv[0], 1.0)])
        )
        result = solved(m)
        assert result.x[grid.mv_to_lv[0].id] == pytest.approx(0.0, abs=1e-9)
        assert result.x[grid.lv_to_mv[0].id] == pytest.approx(0.0, abs=1e-9)

    def test_sign_split_with_inactive_building(self):
        m = Model()
        flows = free_flows(m, 1, 2)
        grid = create_grid_refs(m, [1], 2, "COM")
        others = np.array([3.0, -4.0])  # others import 3, then export 4
        emit_lv_aggregation(m, {1: flows}, grid, others, "COM")
        for t in range(2):
            pin(m, flows.e_in[t], 0.0)
            pin(m, flows.e_out[t], 0.0)
        m.minimize(
            LinExpr.of(
                [(grid.mv_to_lv[0], 1.0), (grid.lv_to_mv[0], 1.0),
                 (grid.mv_to_lv[1], 1.0), (grid.lv_to_mv[1], 1.0)]
            )
        )
        result = solved(m)
        assert result.x[grid.mv_to_lv[0].id] == pytest.approx(3.0, abs=1e-9)
        assert result.x[grid.lv_to_mv[0].id] == pytest.approx(0.0, abs=1e-9)
        assert result.x[grid.mv_to_lv[1].id] == pytest.approx(0.0, abs=1e-9)
        assert result.x[grid.lv_to_mv[1].id] == pytest.approx(4.0, abs=1e-9)

    def test_length_mismatch_rejected(self):
        m = Model()
        flows = free_flows(m, 1, 4)
        grid = create_grid_refs(m, [1], 4, "COM")
        with pytest.raises(ValueError, match="others_net"):
            emit_lv_aggregation(m, {1: flows}, grid, np.zeros(2), "COM")

    def test_summed_distributed_balances_match_centralized(self):
        # two buildings with fixed flows: the distributed residuals summed
        # over buildings reproduce the centralized balance
        horizon = 3
        rng = np.random.default_rng(7)
        e_in = {b: rng.uniform(0, 3, horizon) for b in (1, 2)}
        e_out = {b: rng.uniform(0, 3, horizon) for b in (1, 2)}
        net = {b: e_in[b] - e_out[b] for b in (1, 2)}
        mv_net_seen = []
        for b in (1, 2):
            m = Model()
            flows = free_flows(m, b, horizon)
            grid = create_grid_refs(m, [b], horizon, "COM")
            others = net[2 if b == 1 else 1]
            emit_lv_aggregation(m, {1: flows}, grid, others, "COM")
            for t in range(horizon):
                pin(m, flows.e_in[t], e_in[b][t])
                pin(m, flows.e_out[t], e_out[b][t])
            m.minimize(
                LinExpr.of(
                    [(v, 1.0) for v in grid.mv_to_lv]
                    + [(v, 1.0) for v in grid.lv_to_mv]
                )
            )
            result = solved(m)
            mv_net_seen.append(
                np.array([result.x[v.id] for v in grid.mv_to_lv])
                - np.array([result.x[v.id] for v in grid.lv_to_mv])
            )
        total_net = net[1] + net[2]
        for seen in mv_net_seen:
            assert np.max(np.abs(seen - total_net)) <= 1e-6
