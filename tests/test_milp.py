import re
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
    SolveResult,
    Status,
    constraint_violation,
)
from communityplan.solvers import (
    HIGHS_OPTIONS,
    CommandBackend,
    HighsRun,
    ScipyBackend,
    SolveOptions,
    SolverError,
    solve,
    vector_from_names,
)
from scipy.optimize._highspy._core import HighsModelStatus

from oracles import enumerate_lp_minimum

# the outcome of each HiGHS model status, as scipy.optimize.milp reported it
# (status 4 there, "Other", raises SolverError here)
HIGHS_STATUS_OUTCOMES = {
    "kNotset": SolverError,
    "kLoadError": SolverError,
    "kModelError": Status.INFEASIBLE,
    "kPresolveError": SolverError,
    "kSolveError": SolverError,
    "kPostsolveError": SolverError,
    "kModelEmpty": SolverError,
    "kOptimal": Status.OPTIMAL,
    "kInfeasible": Status.INFEASIBLE,
    "kUnboundedOrInfeasible": SolverError,
    "kUnbounded": Status.UNBOUNDED,
    "kObjectiveBound": SolverError,
    "kObjectiveTarget": SolverError,
    "kTimeLimit": Status.LIMIT,
    "kIterationLimit": Status.LIMIT,
    "kUnknown": SolverError,
    "kSolutionLimit": SolverError,
    "kInterrupt": SolverError,
    "kMemoryLimit": SolverError,
    "kHighsInterrupt": SolverError,
}


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

    @pytest.mark.parametrize("name", ["", "two words", "tab\tstop", "line\nbreak", "a:b",
                                      "5", "-1.5e3", ".5", "inf", "NaN", "1_000"])
    def test_name_lp_text_cannot_carry_rejected(self, name):
        # empty, with whitespace or ':', or read as a number
        m = Model()
        x = m.add_var("x")
        adds = [lambda: m.add_var(name), lambda: m.add_binary(name),
                lambda: m.add_vars(name, 2),
                lambda: m.add_constraint(x * 1.0, Sense.GE, 1.0, name),
                lambda: m.add_constraints(("ok", name), 2, [[(x, 1.0)]] * 2, (Sense.GE,) * 2)]
        for add in adds:
            with pytest.raises(ValueError, match=re.escape(repr(name))):
                add()
        assert (m.var_names(), m.row_names()) == (["x"], [])

    def test_number_named_column_would_read_as_a_constant(self):
        # a column named 5 with cost 1 would be written ' obj: 5', which
        # reads back as the objective constant 5, not as a column
        parsed = parse_lp(TOY_LP.replace(" obj: x + 3 y", " obj: 5"))
        assert parsed.objective_constant == 5.0 and "5" not in parsed.var_names()
        with pytest.raises(ValueError, match="variable name '5' reads as a number"):
            Model().add_var("5")

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
        # step ranges, an empty family between them and a stem that reads
        # like a member name
        m = Model()
        m.add_var("a")
        x = m.add_vars("x", 3)
        m.add_vars("odd_t1", 2)
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
        assert m.var_names() == ["a", "x_t0", "x_t1", "x_t2", "odd_t1_t0", "odd_t1_t1",
                                 "b_t7", "c", "w_t0", "w_t1", "w_t2"]


class TestRhsRewrite:
    @staticmethod
    def two_families():
        m = Model("m")
        z = m.add_vars("z", 3)
        first = m.add_constraints(("f",), 3, [[(z, 1.0)]], (Sense.EQ,), 1.0)
        m.add_constraints(("g",), 3, [[(z, 2.0)]], (Sense.LE,), 20.0)
        m.minimize(z[0] * 1.0)
        return m, first

    def test_rewrite_keeps_the_matrix_and_equals_a_fresh_build(self):
        m, first = self.two_families()
        matrix = m.matrix()
        m.set_rhs(first + 1, [5.0, 6.0])
        assert m.matrix() is matrix
        assert m.row_rhs().tolist() == [1.0, 5.0, 6.0, 20.0, 20.0, 20.0]
        fresh = Model("m")
        z = fresh.add_vars("z", 3)
        fresh.add_constraints(("f",), 3, [[(z, 1.0)]], (Sense.EQ,), [np.array([1.0, 5.0, 6.0])])
        fresh.add_constraints(("g",), 3, [[(z, 2.0)]], (Sense.LE,), 20.0)
        fresh.minimize(z[0] * 1.0)
        assert export_lp(m) == export_lp(fresh)
        assert solve(m).x.tolist() == solve(fresh).x.tolist()

    @pytest.mark.parametrize("first, values, match", [
        (0, [1.0, 2.0, 3.0, 4.0], "run past"),
        (0, [1.0, np.nan], "finite"),
        (0, [np.inf], "finite"),
        (-1, [1.0], "out of range"),
        (6, [1.0], "out of range"),
        (0, [[1.0, 2.0]], "one dimension"),
    ])
    def test_bad_rewrite_rejected_and_nothing_written(self, first, values, match):
        m, _ = self.two_families()
        with pytest.raises(ValueError, match=match):
            m.set_rhs(first, values)
        assert m.row_rhs().tolist() == [1.0] * 3 + [20.0] * 3


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


# what export_lp and export_mps write for min x + 3 y over x + 2 y + b >= 1,
# x <= 4, b binary
TOY_LP = """\
\\ m
Minimize
 obj: x + 3 y
Subject To
 r: x + 2 y + b >= 1
Bounds
 0 <= x <= 4
Binaries
 b
End
"""

TOY_MPS = """\
NAME          m
ROWS
 N  OBJ
 G  r
COLUMNS
    x  OBJ  1
    x  r  1
    y  OBJ  3
    y  r  2
    MARKER0    'MARKER'    'INTORG'
    b  r  1
    MARKER1    'MARKER'    'INTEND'
RHS
    RHS  r  1
BOUNDS
 UP BND  x  4
 BV BND  b
ENDATA
"""

# (reader, text, number of the first line it cannot read)
MALFORMED = {
    "lp row without rhs": (parse_lp, TOY_LP.replace("b >= 1", "b <="), 5),
    "lp bound without value": (parse_lp, TOY_LP.replace(" 0 <= x <= 4", " x >="), 7),
    "lp continued row": (parse_lp, TOY_LP.replace(" + b >= 1", "\n + b >= 1"), 5),
    "lp alias header": (parse_lp, TOY_LP.replace("Subject To", "st"), 4),
    "lp free bound": (parse_lp, TOY_LP.replace(" 0 <= x <= 4", " x free"), 7),
    "lp line after End": (parse_lp, TOY_LP + " y >= 2\n", 11),
    "mps rhs of undeclared row": (parse_mps, TOY_MPS.replace("RHS  r", "RHS  q"), 14),
    "mps short entry": (parse_mps, TOY_MPS.replace("    y  r  2", "    y  r"), 9),
    "mps entry of undeclared row": (parse_mps, TOY_MPS.replace("    y  r  2", "    y  q  2"), 9),
    "mps unknown row sense": (parse_mps, TOY_MPS.replace(" G  r", " X  r"), 4),
    "mps comment": (parse_mps, TOY_MPS.replace("ROWS\n", "ROWS\n* rows\n"), 3),
    "mps bound of undeclared column": (parse_mps, TOY_MPS.replace("BND  b", "BND  z"), 17),
    "lp second objective": (parse_lp, TOY_LP.replace("3 y\n", "3 y\n obj: y\n"), 4),
    "lp column bounded twice": (parse_lp, TOY_LP.replace("x <= 4\n", "x <= 4\n x >= 1\n"), 8),
    "lp crossed bounds": (parse_lp, TOY_LP.replace(" 0 <= x", " 5 <= x"), 7),
    "lp row label twice": (parse_lp, TOY_LP.replace("b >= 1\n", "b >= 1\n r: y >= 0\n"), 6),
    "lp without End": (parse_lp, TOY_LP.replace("End\n", ""), 9),
    "mps second bound": (parse_mps, TOY_MPS.replace("x  4\n", "x  4\n UP BND  x  5\n"), 17),
    "mps row declared twice": (parse_mps, TOY_MPS.replace(" G  r\n", " G  r\n L  r\n"), 5),
    "mps section left out": (parse_mps, TOY_MPS.replace("RHS\n", ""), 14),
    "lp column with ':'": (parse_lp, TOY_LP.replace("x + 3 y", "x + 3 a:b"), 3),
    "lp column read as a number": (parse_lp, TOY_LP.replace("2 y + b", "2 y + 2 1e5"), 5),
    "lp binary read as a number": (parse_lp, TOY_LP.replace(" b\nEnd", " b\n inf\nEnd"), 10),
    "lp row label read as a number": (parse_lp, TOY_LP.replace(" r: x", " 5: x"), 5),
    "mps column read as a number": (parse_mps, TOY_MPS.replace("    y  r  2", "    5  r  2"),
                                    9),
}


class TestReaders:
    def test_toy_texts_are_what_the_writers_write(self):
        assert export_lp(parse_lp(TOY_LP)) == TOY_LP
        assert export_mps(parse_mps(TOY_MPS)) == TOY_MPS
        assert export_lp(parse_mps(TOY_MPS)) == TOY_LP

    @pytest.mark.parametrize("reader, text, line", MALFORMED.values(), ids=MALFORMED)
    def test_malformed_line_raises_value_error_naming_it(self, reader, text, line):
        with pytest.raises(ValueError, match=f"^line {line}: "):
            reader(text)


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
        result = solve(m)
        assert result.status == Status.INFEASIBLE
        assert result.x is None

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
        assert constraint_violation(m, res.x) <= 1e-6

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
        failed = HighsRun(HighsModelStatus.kSolveError, "HiGHS hit an internal error",
                          x=x, fun=None if x is None else 7.0)
        monkeypatch.setattr("communityplan.solvers.milp", lambda **kwargs: failed)
        with pytest.raises(SolverError, match="internal error"):
            solve(toy_model())

    @pytest.mark.parametrize("member", sorted(HighsModelStatus.__members__))
    def test_every_highs_model_status_has_one_outcome(self, monkeypatch, member):
        # a member HiGHS adds later has no entry here and fails the test
        outcome = HIGHS_STATUS_OUTCOMES[member]
        run = HighsRun(HighsModelStatus.__members__[member], f"status {member}")
        monkeypatch.setattr("communityplan.solvers.milp", lambda **kwargs: run)
        if outcome is SolverError:
            with pytest.raises(SolverError, match=member):
                solve(toy_model())
            return
        result = solve(toy_model())
        assert result.status == outcome
        assert result.x is None and result.solver_meta["message"] == f"status {member}"

    def test_limit_without_a_solution_raises_solver_error_in_the_planner(
            self, monkeypatch, boiler_community):
        from communityplan.planner import solve_centralized

        run = HighsRun(HighsModelStatus.kTimeLimit, "Time limit reached")
        monkeypatch.setattr("communityplan.solvers.milp", lambda **kwargs: run)
        cfg, scenario = boiler_community
        with pytest.raises(SolverError, match="limit without a solution"):
            solve_centralized(cfg, [scenario])

    @pytest.mark.parametrize("option", [{"no_such_highs_option": 1}, {"threads": "two"}])
    def test_rejected_highs_option_raises(self, monkeypatch, option):
        # HiGHS refuses an unknown name and a value of the wrong type
        monkeypatch.setattr("communityplan.solvers.HIGHS_OPTIONS",
                            {**HIGHS_OPTIONS, **option})
        with pytest.raises(SolverError, match=next(iter(option))):
            solve(toy_model())

    def test_import_without_the_highs_binding_names_the_scipy_floor(self, monkeypatch):
        import importlib.util

        import communityplan.solvers

        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
        spec = importlib.util.spec_from_file_location(
            "communityplan._solvers_without_highs", communityplan.solvers.__file__)
        with pytest.raises(ImportError, match=r"scipy>=1\.15"):
            spec.loader.exec_module(importlib.util.module_from_spec(spec))

    def test_lp_stopped_at_a_limit_returns_no_solution(self, monkeypatch):
        # as scipy.optimize.milp did: an LP iterate at a limit is not returned
        m = Model("lp")
        x, y = m.add_var("x"), m.add_var("y")
        m.add_constraint(x + y, Sense.GE, 3.0, "need")
        m.add_constraint(x - y, Sense.LE, 1.0, "cap")
        m.minimize(2 * x + y)
        monkeypatch.setattr("communityplan.solvers.HIGHS_OPTIONS", {
            **HIGHS_OPTIONS, "simplex_iteration_limit": 0, "presolve": "off"})
        result = solve(m)
        assert result.status == Status.LIMIT and result.x is None

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
    pairs = list(zip(model.var_names(), res.x.tolist()))
    if sys.argv[3:] == ["reversed"]:
        pairs.reverse()
    with open(sol_path, "w") as handle:
        handle.write(format_solution_table(res.status, res.objective, dict(pairs)))
    """
)


# (solution table, number of its malformed line)
MALFORMED_TABLES = [
    ("=status= optimal\n=obj=\nx 1\n", 2),
    ("=status= optimal\nx abc\n", 2),
    ("=status= weird\nx 1\n", 1),
    ("=status= optimal\n=obj= 1\nx 1\ny\n", 4),
]


class TestCommandBackend:
    def test_round_trip_through_external_process(self, tmp_path):
        script = tmp_path / "mock_solver.py"
        script.write_text(MOCK_SOLVER)
        backend = CommandBackend(f"{sys.executable} {script} {{model}} {{sol}}")
        res = backend.solve(toy_model(), SolveOptions())
        reference = solve(toy_model())
        assert res.status == Status.OPTIMAL
        assert res.objective == pytest.approx(reference.objective, rel=1e-9)
        assert res.x == pytest.approx(reference.x)

    def test_matches_scipy_through_vector_from_names(self, tmp_path):
        # the table lists the variables last column first
        script = tmp_path / "mock_solver.py"
        script.write_text(MOCK_SOLVER)
        backend = CommandBackend(f"{sys.executable} {script} {{model}} {{sol}} reversed")
        res = backend.solve(toy_model(), SolveOptions())
        assert res.x.tolist() == solve(toy_model()).x.tolist()

    @pytest.mark.parametrize("status", [Status.LIMIT, Status.INFEASIBLE])
    def test_table_without_values_has_no_solution(self, status):
        res = CommandBackend(f"echo =status= {status.value} > {{sol}}").solve(toy_model())
        assert res.status == status and res.x is None

    @pytest.mark.parametrize("table, line", MALFORMED_TABLES)
    def test_malformed_table_is_a_solver_failure(self, table, line):
        # printf turns each backslash-n back into a line break
        backend = CommandBackend("printf '" + table.replace("\n", "\\n") + "' > {sol}")
        with pytest.raises(SolverError, match=f"malformed solution table: .*line {line}: "):
            backend.solve(toy_model(), SolveOptions())

    def test_launch_failure_raises(self):
        backend = CommandBackend("definitely-not-a-solver {model} {sol}")
        with pytest.raises(SolverError):
            backend.solve(toy_model(), SolveOptions())

    def test_solver_flag_string_dispatch(self, tmp_path):
        script = tmp_path / "mock_solver.py"
        script.write_text(MOCK_SOLVER)
        res = solve(toy_model(), backend=f"{sys.executable} {script} {{model}} {{sol}}")
        assert res.status == Status.OPTIMAL


class TestSolutionVector:
    def test_x_is_a_read_only_copy(self):
        given = np.array([1.0, 2.0, 3.0])
        result = SolveResult(Status.OPTIMAL, 0.0, given)
        given[0] = 5.0
        assert result.x.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="read-only"):
            result.x[0] = 4.0
        assert not solve(toy_model()).x.flags.writeable

    @pytest.mark.parametrize("size", [2, 4])
    def test_backend_solution_of_another_length_raises(self, size):
        class WrongLength:
            def solve(self, model, options=None):
                return SolveResult(Status.OPTIMAL, 0.0, np.zeros(size))

        with pytest.raises(SolverError, match=f"{size} values for a model of 3 columns"):
            solve(toy_model(), WrongLength())

    def test_vector_from_names_places_each_value_in_its_column(self):
        values = {"flag": 1.0, "y": 2.0, "x": 3.0, "not_a_column": 9.0}
        assert vector_from_names(toy_model(), values).tolist() == [3.0, 2.0, 1.0]

    def test_vector_from_names_names_a_missing_variable(self):
        with pytest.raises(SolverError, match="lacks variable 'flag'"):
            vector_from_names(toy_model(), {"x": 1.0, "y": 2.0})


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

    @pytest.mark.parametrize("table, line", MALFORMED_TABLES)
    def test_malformed_line_raises_value_error_naming_it(self, table, line):
        with pytest.raises(ValueError, match=f"^solution table line {line}: "):
            parse_solution_table(table)


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
