import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import communityplan

from communityplan.lpformat import (
    export_lp,
    export_mps,
    parse_lp,
    parse_mps,
    parse_solution_table,
)
from communityplan.milp import (
    Domain,
    LinExpr,
    Model,
    Sense,
    Status,
    constraint_violation,
)
from communityplan.solvers import (
    HIGHS_OPTIONS,
    CommandBackend,
    ScipyBackend,
    SolveOptions,
    SolverError,
    solve,
)

from oracles import enumerate_lp_minimum


def toy_model():
    m = Model("toy")
    x = m.add_var("x")
    y = m.add_var("y", hi=10.0)
    flag = m.add_binary("flag")
    m.add_constraint(x + y, Sense.GE, 3.0, "need")
    m.add_constraint(x - 2 * y + 4 * flag, Sense.LE, 8.0, "cap")
    m.minimize(2 * x + y + 0.5 * flag + 7.0)
    return m


class TestModelBuilding:
    def test_add_var_echoes_inputs(self):
        m = Model()
        v = m.add_var("C_BAT_b1", Domain.CONTINUOUS_NONNEG, 0.0, 13.5)
        assert (v.lo, v.hi) == (0.0, 13.5)
        assert v.domain == Domain.CONTINUOUS_NONNEG

    def test_binary_bounds(self):
        m = Model()
        v = m.add_binary("chi_BAT_b1")
        assert (v.lo, v.hi) == (0.0, 1.0)
        assert v.domain == Domain.BINARY

    def test_duplicate_name_rejected(self):
        m = Model()
        m.add_var("x")
        with pytest.raises(ValueError, match="duplicate"):
            m.add_var("x")

    def test_bad_bounds_rejected(self):
        m = Model()
        with pytest.raises(ValueError):
            m.add_var("x", lo=5.0, hi=1.0)
        with pytest.raises(ValueError):
            m.add_var("neg", lo=-1.0)

    def test_constraint_retrievable_by_name(self):
        m = Model()
        x = m.add_var("x")
        m.add_constraint(x * 1.0, Sense.LE, 5.0, "lid")
        assert m.constraint_by_name("lid").rhs == 5.0

    def test_foreign_variable_rejected(self):
        m1, m2 = Model(), Model()
        x = m1.add_var("x")
        with pytest.raises(ValueError):
            m2.add_constraint(x * 1.0, Sense.LE, 5.0, "bad")

    def test_empty_expr_vacuous_accepted(self):
        m = Model()
        m.add_var("x")
        cid = m.add_constraint(LinExpr(), Sense.LE, 0.0, "vac")
        assert m.constraints[cid].expr.terms == {}

    def test_zero_coefficients_normalized_away(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        expr = x + y - 1 * y
        m.add_constraint(expr, Sense.LE, 1.0, "c")
        assert set(m.constraints[0].expr.terms) == {x.id}


class TestObjective:
    def test_expression_is_scattered_and_keeps_its_constant(self):
        m = toy_model()
        assert m.cost().tolist() == [2.0, 1.0, 0.5]
        assert m.objective_constant == 7.0
        with pytest.raises(ValueError):
            m.cost()[0] = 1.0

    def test_vector_is_kept_read_only_and_clears_the_constant(self):
        m = toy_model()
        cost = np.array([1.0, -2.0, 0.0])
        m.minimize(cost)
        assert m.cost() is cost and not cost.flags.writeable
        assert m.objective_constant == 0.0

    def test_column_added_after_minimize_costs_zero(self):
        m = toy_model()
        z = m.add_var("z")
        assert m.cost().tolist() == [2.0, 1.0, 0.5, 0.0]
        m.add_constraint(z * 1.0, Sense.GE, 1.0, "z_floor")
        assert solve(m).objective == pytest.approx(solve(toy_model()).objective)

    @pytest.mark.parametrize("cost", [
        [1.0, 2.0],
        [1.0, 2.0, 3.0, 4.0],
        [[1.0, 2.0, 3.0]],
        [1.0, np.nan, 3.0],
        [1.0, 2.0, np.inf],
    ])
    def test_bad_vector_rejected(self, cost):
        m = toy_model()
        with pytest.raises(ValueError):
            m.minimize(np.array(cost))
        assert m.cost().tolist() == [2.0, 1.0, 0.5]

    def test_bad_expression_rejected(self):
        m, other = toy_model(), Model()
        x = m.var_by_name("x")
        with pytest.raises(ValueError, match="foreign"):
            m.minimize(other.add_var("z") * 1.0)
        with pytest.raises(ValueError, match="finite"):
            m.minimize(x * float("inf"))
        with pytest.raises(ValueError, match="unregistered"):
            m.minimize(LinExpr({7: 1.0}))
        assert m.cost().tolist() == [2.0, 1.0, 0.5]


class TestConstraintFamilies:
    def test_family_matches_scalar_rows(self):
        # a family with a repeated variable, a zero coefficient and a sum
        # that cancels must store what add_constraint stores row by row
        coef = np.array([2.0, 0.0, -1.5])
        fam, ref = Model("m"), Model("m")
        z, y = fam.add_vars("z", 3), fam.add_var("y")
        fam.add_constraints(
            ("a", "b"), 3,
            [[(z, 1.0), (y, coef), (z, 0.5)], [(y, 1.0), (z, -1.0), (y, -1.0)]],
            (Sense.LE, Sense.GE), (1.0, np.arange(3.0)), first=4,
        )
        z, y = ref.add_vars("z", 3), ref.add_var("y")
        for t in range(3):
            ref.add_constraint(LinExpr().add(z[t], 1.0).add(y, coef[t]).add(z[t], 0.5),
                               Sense.LE, 1.0, f"a_t{t + 4}")
            ref.add_constraint(LinExpr().add(y, 1.0).add(z[t], -1.0).add(y, -1.0),
                               Sense.GE, float(t), f"b_t{t + 4}")
        for a, b in zip(fam.constraints, ref.constraints, strict=True):
            assert (a.name, a.sense, a.rhs) == (b.name, b.sense, b.rhs)
            assert list(a.expr.terms.items()) == list(b.expr.terms.items())
        assert export_lp(fam) == export_lp(ref)

    def test_family_name_clashes_rejected(self):
        m = Model()
        m.add_var("x_t1")
        with pytest.raises(ValueError, match="duplicate"):
            m.add_vars("x", 3)
        v = m.add_vars("v", 2)
        with pytest.raises(ValueError, match="duplicate"):
            m.add_var("v_t1")
        assert m.var_by_name("v_t1").id == v[1].id


    def test_names_list_matches_name_lookup(self):
        # explicit runs, one- and many-stem families, shared and distinct
        # step ranges, an empty family between them and a stem with a
        # line break
        m = Model()
        m.add_var("a")
        x = m.add_vars("x", 3)
        m.add_vars("odd\nstem", 2)
        m.add_var("b_t7")
        m.add_var("c")
        w = m.add_vars("w", 3)
        m.add_constraint(x[0] + w[0], Sense.GE, 1.0, "first")
        m.add_constraints(("p", "q", "r"), 3, [[(x, 1.0)], [(w, 2.0)], [(x, -1.0)]],
                          (Sense.LE,) * 3, 4.0, first=2)
        m.add_constraints(("e",), 0, [[(x, 1.0)]], (Sense.LE,), 0.0)
        m.add_constraint(x[1] + w[2], Sense.LE, 9.0, "mid")
        m.add_constraints(("s",), 3, [[(w, 1.0)]], (Sense.GE,), 0.0, first=2)
        m.add_constraints(("u", "v"), 2, [[(x[:2], 1.0)], [(w[1:], 1.0)]],
                          (Sense.EQ,) * 2, 0.0, first=11)
        for axis in (m._cols, m._rows):
            assert axis.names() == [axis.name(p) for p in range(axis.size)]
        # names are pieces shared across members: one head per stem, one
        # text per step of a range, explicit names whole
        heads, tails = m._cols.pieces()
        assert (heads[0], tails[0]) == ("a", "")
        assert heads[1] is heads[2] and tails[1] is tails[8]
        assert m.row_names()[:8] == ["first", "p_t2", "q_t2", "r_t2", "p_t3", "q_t3",
                                     "r_t3", "p_t4"]
        assert m.var_names() == ["a", "x_t0", "x_t1", "x_t2", "odd\nstem_t0", "odd\nstem_t1",
                                 "b_t7", "c", "w_t0", "w_t1", "w_t2"]


class TestExport:
    def test_export_deterministic(self):
        assert export_lp(toy_model()) == export_lp(toy_model())
        assert export_mps(toy_model()) == export_mps(toy_model())

    def test_lp_round_trip_bytes(self):
        # the round-trip oracle: export, parse, export must reproduce bytes
        first = export_lp(toy_model())
        second = export_lp(parse_lp(first))
        assert first == second
        model = toy_model()
        for parsed in (parse_lp(first), parse_mps(export_mps(model))):
            assert parsed.var_names() == model.var_names()
            assert parsed.cost().tobytes() == model.cost().tobytes()
            assert parsed.objective_constant == model.objective_constant == 7.0

    def test_minimal_model_lp_text(self):
        m = Model("mini")
        x = m.add_var("x")
        m.add_constraint(x * 1.0, Sense.GE, 1.0, "floor")
        m.minimize(x * 1.0)
        text = export_lp(m)
        assert "obj: x" in text
        assert "floor: x >= 1" in text

    def test_mps_round_trip_solves_identically(self):
        m = toy_model()
        parsed = parse_mps(export_mps(m))
        r1 = solve(m)
        r2 = solve(parsed)
        assert r1.status == r2.status == Status.OPTIMAL
        assert r1.objective == pytest.approx(r2.objective, abs=1e-9)

    def test_lp_and_mps_same_optimum(self):
        m = toy_model()
        from_lp = parse_lp(export_lp(m))
        from_mps = parse_mps(export_mps(m))
        assert solve(from_lp).objective == pytest.approx(
            solve(from_mps).objective, rel=1e-9
        )

    def test_unsatisfiable_vacuous_row_blocks_export(self):
        m = Model()
        m.add_var("x")
        m.add_constraint(LinExpr(constant=1.0), Sense.LE, 0.0, "broken")
        with pytest.raises(ValueError, match="vacuous"):
            export_lp(m)


class TestSolve:
    def test_min_x_ge_3(self):
        m = Model()
        x = m.add_var("x")
        m.add_constraint(x * 1.0, Sense.GE, 3.0, "c")
        m.minimize(x * 1.0)
        res = solve(m)
        assert res.status == Status.OPTIMAL
        assert res.objective == pytest.approx(3.0, abs=1e-9)

    def test_min_neg_x_le_10(self):
        m = Model()
        x = m.add_var("x", hi=10.0)
        m.minimize(-1.0 * x)
        res = solve(m)
        assert res.status == Status.OPTIMAL
        assert res.objective == pytest.approx(-10.0, abs=1e-9)

    def test_infeasible(self):
        m = Model()
        x = m.add_var("x")
        m.add_constraint(x * 1.0, Sense.LE, 1.0, "a")
        m.add_constraint(x * 1.0, Sense.GE, 2.0, "b")
        m.minimize(x * 1.0)
        assert solve(m).status == Status.INFEASIBLE

    def test_unbounded(self):
        m = Model()
        x = m.add_var("x")
        m.minimize(-1.0 * x)
        assert solve(m).status == Status.UNBOUNDED

    def test_objective_matches_dot_product(self):
        m = toy_model()
        res = solve(m)
        recomputed = float(m.cost() @ res.x + m.objective_constant)
        assert res.objective == pytest.approx(recomputed, rel=1e-9)
        assert res.solver_meta["objective_recomputed"] == recomputed

    def test_optimal_solution_feasible(self):
        m = toy_model()
        res = solve(m)
        assert constraint_violation(m, res.values) <= 1e-6

    def test_empty_model(self):
        m = Model()
        m.minimize(LinExpr(constant=4.0))
        res = solve(m)
        assert res.status == Status.OPTIMAL
        assert res.objective == 4.0

    def test_unknown_backend(self):
        with pytest.raises(SolverError):
            solve(toy_model(), backend="no-such-solver")

    @pytest.mark.parametrize("x", [None, np.zeros(3)])
    def test_highs_failure_is_an_error_not_a_limit(self, monkeypatch, x):
        from scipy.optimize import OptimizeResult

        failed = OptimizeResult(status=4, message="HiGHS hit an internal error",
                                x=x, fun=None if x is None else 7.0, success=False)
        monkeypatch.setattr("communityplan.solvers.milp", lambda **kwargs: failed)
        with pytest.raises(SolverError, match="internal error"):
            solve(toy_model())

    def test_solves_after_highs_ran_with_another_thread_count(self):
        # HiGHS sizes one thread scheduler per process at its first run; a
        # later run asking for another count fails unless it is reset
        from scipy.optimize import Bounds, milp
        from scipy.optimize._highspy._core import _Highs

        threads = 2 if HIGHS_OPTIONS["threads"] == 1 else 1
        _Highs.resetGlobalScheduler(True)
        with pytest.warns(RuntimeWarning, match="Unrecognized options detected"):
            foreign = milp([-1.0], integrality=[1], bounds=Bounds(0, 1),
                           options={"threads": threads})
        assert foreign.status == 0
        res = ScipyBackend().solve(toy_model())
        assert res.status == Status.OPTIMAL


class TestRandomLPsAgainstVertexEnumeration:
    def test_random_instances(self):
        rng = np.random.default_rng(2024)
        for trial in range(25):
            n = int(rng.integers(2, 5))
            m_rows = int(rng.integers(1, 5))
            c = rng.integers(-5, 6, n).astype(float)
            rows = rng.integers(-3, 4, (m_rows, n)).astype(float)
            senses = [rng.choice(["<=", ">="]) for _ in range(m_rows)]
            rhs = rng.integers(1, 8, m_rows).astype(float)
            hi = rng.integers(2, 9, n).astype(float)
            lo = np.zeros(n)

            oracle = enumerate_lp_minimum(c, rows, senses, rhs, lo, hi)
            model = Model(f"rand{trial}")
            xs = [model.add_var(f"x{j}", hi=hi[j]) for j in range(n)]
            for i in range(m_rows):
                expr = LinExpr.of((xs[j], rows[i, j]) for j in range(n))
                model.add_constraint(expr, Sense(senses[i]), rhs[i], f"r{i}")
            model.minimize(LinExpr.of((xs[j], c[j]) for j in range(n)))
            res = solve(model)
            if oracle is None:
                assert res.status == Status.INFEASIBLE
            else:
                assert res.status == Status.OPTIMAL
                assert res.objective == pytest.approx(oracle, abs=1e-6)


# The solver process imports the package the tests import, whatever the
# caller's PYTHONPATH.
MOCK_SOLVER = textwrap.dedent(
    f"""
    import sys
    sys.path.insert(0, {str(Path(communityplan.__file__).parents[1])!r})
    from communityplan.lpformat import parse_lp, format_solution_table
    from communityplan.solvers import solve

    model_path, sol_path = sys.argv[1], sys.argv[2]
    model = parse_lp(open(model_path).read())
    res = solve(model)
    with open(sol_path, "w") as handle:
        handle.write(format_solution_table(res.status, res.objective, res.values))
    """
)


class TestCommandBackend:
    def test_round_trip_through_external_process(self, tmp_path):
        script = tmp_path / "mock_solver.py"
        script.write_text(MOCK_SOLVER)
        backend = CommandBackend(f"{sys.executable} {script} {{model}} {{sol}}")
        res = backend.solve(toy_model(), SolveOptions())
        reference = solve(toy_model())
        assert res.status == Status.OPTIMAL
        assert res.objective == pytest.approx(reference.objective, rel=1e-9)
        assert res.values == pytest.approx(reference.values)

    def test_launch_failure_raises(self):
        backend = CommandBackend("definitely-not-a-solver {model} {sol}")
        with pytest.raises(SolverError):
            backend.solve(toy_model(), SolveOptions())

    def test_solver_flag_string_dispatch(self, tmp_path):
        script = tmp_path / "mock_solver.py"
        script.write_text(MOCK_SOLVER)
        res = solve(toy_model(), backend=f"{sys.executable} {script} {{model}} {{sol}}")
        assert res.status == Status.OPTIMAL


class TestSolutionTable:
    def test_parse_directives_and_values(self):
        status, obj, values = parse_solution_table(
            "# comment\n=status= optimal\n=obj= 12.5\nx 1\ny 2.5\n"
        )
        assert status == Status.OPTIMAL
        assert obj == 12.5
        assert values == {"x": 1.0, "y": 2.5}

    def test_parse_infeasible_marker(self):
        status, _, values = parse_solution_table("=status= infeasible\n")
        assert status == Status.INFEASIBLE
        assert values == {}


def empty_row_model(rhs):
    """``min x`` over ``x <= 1`` plus the row without terms ``0 <= rhs``."""
    m = Model("m")
    x = m.add_var("x", hi=1.0)
    m.add_constraint(LinExpr(), Sense.LE, rhs, "vac")
    m.minimize(x * 1.0)
    return m


class TestRowContract:
    def test_broken_empty_row_is_infeasible_for_both_backends(self):
        m = empty_row_model(-1.0)
        missing = CommandBackend("/nonexistent/solver {model} {sol}")
        for backend in (missing, ScipyBackend()):
            res = backend.solve(m, SolveOptions())
            assert res.status == Status.INFEASIBLE
            assert res.solver_meta["infeasible_row"] == "vac"
        for export in (export_lp, export_mps):
            with pytest.raises(ValueError, match="'vac'"):
                export(m)

    def test_empty_row_within_tolerance_exports_and_solves(self):
        m = empty_row_model(-1e-9)
        lp, mps = export_lp(m), export_mps(m)
        assert "vac" not in lp and "vac" not in mps
        assert len(parse_lp(lp).constraints) == len(parse_mps(mps).constraints) == 0
        res = solve(m)
        assert res.status == Status.OPTIMAL
        assert res.solver_meta["max_violation"] == pytest.approx(1e-9)

    def test_row_constant_folds_into_rhs(self):
        m = Model("fold")
        x = m.add_var("x")
        m.add_constraint(x + 2, Sense.LE, 5.0, "cap")
        m.minimize(-1.0 * x)
        con = m.constraint_by_name("cap")
        assert (con.expr.constant, con.rhs) == (0.0, 3.0)
        assert " cap: x <= 3\n" in export_lp(m)
        assert constraint_violation(m, np.array([4.0])) == 1.0
        assert constraint_violation(m, np.array([3.0])) == 0.0
        assert solve(m).objective == pytest.approx(-3.0)
