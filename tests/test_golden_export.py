"""Golden LP/MPS exports and the LP round trip of emitted models.

The digests pin the exact bytes the emitters and exporters produce for
seeded instances; any change to row or column order, names, duplicate
summing, zero dropping or coefficient arithmetic shows up here.  The
three-scenario instances weight each scenario by 1/3, so a change in the
order the objective's terms are accumulated shows up too.  The round
trip re-reads an export through the scalar ``add_var`` /
``add_constraint`` path and requires the same matrix, bounds and
integrality as the emitted model.
"""

import dataclasses
import hashlib
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from communityplan.core import DeviceSpec, scenario_channels
from communityplan.fixtures import generate_fixture
from communityplan.io import ingest_community
from communityplan import lpformat
from communityplan.lpformat import export_lp, export_mps, parse_lp, parse_mps
from communityplan.milp import SENSES, Domain, LinExpr, Model, Sense
from communityplan.planner import build_centralized
from communityplan.scenarios import channels_to_scenario

from conftest import battery_spec, boiler_spec, simple_building, simple_config, simple_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

import instances  # noqa: E402

FIXTURE_SEED = 3  # RC orders 5 and 4: heater and sensor nodes are emitted
HORIZON = 48


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def catalogue_model(tmp_path_factory):
    """Two fixture buildings with every building device, the community
    battery, PV and hydrogen chain, two 48 h scenarios (winter, summer)."""
    directory = generate_fixture(tmp_path_factory.mktemp("golden"), 2, FIXTURE_SEED)
    ingest = ingest_community(directory)
    cfg = dataclasses.replace(ingest.config, horizon_steps=HORIZON)
    channels = scenario_channels(ingest.history)
    start = ingest.history.climate.t_amb.start
    scenarios = [
        channels_to_scenario(
            f"w{i}", 0.5,
            {name: series.values[offset:offset + HORIZON] for name, series in channels.items()},
            start, 1.0,
        )
        for i, offset in enumerate((24 * 20, 24 * 180))
    ]
    return build_centralized(cfg, scenarios).model


@pytest.fixture(scope="module")
def criterion1_model():
    """The criterion-1 shape at 2 buildings x 2 scenarios x 48 h."""
    pv = DeviceSpec(kind="PV", cap_min=20.0, cap_max=20.0, size_price=0.0,
                    base_price=0.0, lifetime_years=25.0, extra={"eta": 0.2})
    buildings = [
        simple_building(
            i,
            devices=(boiler_spec(), battery_spec(cap_max=8.0, size_price=20.0,
                                                 base_price=50.0)) + ((pv,) if i == 1 else ()),
            roof_area=30.0,
        )
        for i in (1, 2)
    ]
    shared = DeviceSpec(kind="BAT_COM", cap_min=1.0, cap_max=80.0, eta_ch=0.95,
                        eta_dch=0.95, sigma=0.999, gamma_ch=1.0, gamma_dch=1.0,
                        size_price=5.0, base_price=10.0, lifetime_years=20.0)
    cfg = simple_config(buildings, horizon=HORIZON, community_devices=(shared,),
                        mv_limit=150.0)
    scenarios = [
        simple_scenario(f"s{w}", 0.5, horizon=HORIZON, building_ids=(1, 2),
                        t_amb_level=level, el_price=price, gas_price=gas, sol_peak=peak)
        for w, (level, price, gas, peak) in enumerate(
            ((2.0, 0.21, 0.10, 180.0), (7.5, 0.38, 0.13, 420.0))
        )
    ]
    return build_centralized(cfg, scenarios).model


GOLDEN = {
    "catalogue": {
        "lp": "ec7d889dc3f1308c1f54ddf9e4b3827920ce91ab2a04df148531f741dd6c39ab",
        "mps": "4e2586dc50f1d92ebe8dba2a1329d1f5e4d05d229e40e6c43d7637296b0f753b",
    },
    "criterion1": {
        "lp": "c3359c9732b195eb844117c8d06fb7f54df40f5bd78a2d7488307f78b2f38114",
        "mps": "ff8608a4eec726c65b28f618f7912ee80bfad9fb9687c384aac2147581887cf2",
    },
}


# criterion-1 shape, 5 buildings x 3 scenarios (p = 1/3) x 24 h
THREE_SCENARIO_GOLDEN = {
    1: {
        "lp": "a4ac085b5b9c7be8713866915656c7c0908307a34bd1d25dbacf83256c3666f0",
        "mps": "972dab37069a67ad8fd90d9f43007f5b49e76e2d5022a9bac2378c93cc0784d1",
    },
    2: {
        "lp": "6c6d351b1e05986e4dd778598fd67f27c7c3d91c4037c2389b359d57444bde32",
        "mps": "6b7488b2a64567531b8fb96163bdfb9ca694cd8e0ac6cf7be82e9e708b2b8b50",
    },
}


@pytest.mark.parametrize("index", sorted(THREE_SCENARIO_GOLDEN))
def test_three_scenario_export_digest(index):
    cfg, scenarios = instances.criterion1_instance(300, index, horizon=24)
    assert [s.probability for s in scenarios] == [1 / 3] * 3
    model = build_centralized(cfg, scenarios).model
    assert _sha(export_lp(model)) == THREE_SCENARIO_GOLDEN[index]["lp"]
    assert _sha(export_mps(model)) == THREE_SCENARIO_GOLDEN[index]["mps"]


@pytest.mark.parametrize("fmt", ["lp", "mps"])
def test_catalogue_export_digest(catalogue_model, fmt):
    text = export_lp(catalogue_model) if fmt == "lp" else export_mps(catalogue_model)
    assert _sha(text) == GOLDEN["catalogue"][fmt]


@pytest.mark.parametrize("fmt", ["lp", "mps"])
def test_criterion1_export_digest(criterion1_model, fmt):
    text = export_lp(criterion1_model) if fmt == "lp" else export_mps(criterion1_model)
    assert _sha(text) == GOLDEN["criterion1"][fmt]


def test_pv_residue_coefficients_are_exported(criterion1_model):
    # sin(pi) irradiance residue at dusk gives ~4e-18 kW/m2 coefficients;
    # they are part of the model as built and must stay in the digest
    text = export_lp(criterion1_model)
    tiny = [line for line in text.splitlines()
            if line.startswith(" conv_PV_") and "e-18" in line]
    assert tiny


def _arrays(model):
    """Matrix (CSC), bounds and integrality through the scalar views."""
    rows, cols, vals, names = [], [], [], []
    for con in model.constraints:
        for vid, coef in con.expr.terms.items():
            rows.append(con.index)
            cols.append(vid)
            vals.append(coef)
        names.append(con.name)
    variables = list(model.variables)
    matrix = sparse.csc_matrix(
        (np.asarray(vals, float), (np.asarray(rows, int), np.asarray(cols, int))),
        shape=(len(names), len(variables)),
    )
    return (
        matrix,
        names,
        [v.name for v in variables],
        np.array([v.lo for v in variables]),
        np.array([v.hi for v in variables]),
        np.array([v.domain == Domain.BINARY for v in variables]),
        [con.sense for con in model.constraints],
        np.array([con.rhs - con.expr.constant for con in model.constraints]),
    )


@pytest.mark.parametrize("which", ["catalogue", "criterion1"])
def test_lp_round_trip_gives_same_arrays(request, which):
    model = request.getfixturevalue(f"{which}_model")
    parsed = parse_lp(export_lp(model))
    a, row_names, col_names, lo, hi, binary, senses, rhs = _arrays(model)
    b, p_rows, p_cols, p_lo, p_hi, p_binary, p_senses, p_rhs = _arrays(parsed)
    assert p_rows == row_names  # no vacuous rows, so nothing is dropped
    assert sorted(p_cols) == sorted(col_names)
    # parse_lp registers columns in first-appearance order; put them back
    position = {name: j for j, name in enumerate(p_cols)}
    perm = [position[name] for name in col_names]
    b = b[:, perm].tocsc()
    b.sort_indices()
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(lo, p_lo[perm])
    assert np.array_equal(hi, p_hi[perm])
    assert np.array_equal(binary, p_binary[perm])
    assert senses == p_senses and all(isinstance(s, Sense) for s in senses)
    assert np.array_equal(rhs, p_rhs)
    # the objective reads back bit for bit, from LP text and from MPS text
    from_mps = parse_mps(export_mps(model))
    assert from_mps.var_names() == col_names
    for cost, constant in ((parsed.cost()[perm], parsed.objective_constant),
                           (from_mps.cost(), from_mps.objective_constant)):
        assert cost.tobytes() == model.cost().tobytes()
        assert constant == model.objective_constant


COEFFICIENTS = [1.0, -1.0, -2.5, 3.0, 1e-05, -1e-05]
RHS_VALUES = [0.0, 1.0, -1.5, 2.5, 1e-05]
BOUNDS = [(0.0, math.inf), (1.5, math.inf), (0.0, 4.0), (1e-05, 2.5)]


@st.composite
def small_models(draw):
    """Explicit and family columns: bounded, binary, and some with neither
    cost nor terms; explicit rows whose terms may repeat a column, and a
    row family; negative, unit and 1e-5 coefficients and an objective
    constant."""
    model = Model(draw(st.sampled_from(["m", "", "two words"])))
    columns, blocks = [], []
    kinds = draw(st.lists(st.sampled_from(["var", "binary", "block"]), min_size=1, max_size=6))
    for i, kind in enumerate(kinds):
        if kind == "var":
            lo, hi = draw(st.sampled_from(BOUNDS))
            columns.append(model.add_var(f"c{i}", lo=lo, hi=hi))
        elif kind == "binary":
            columns.append(model.add_binary(f"b{i}"))
        else:
            block = model.add_vars(f"f{i}", draw(st.integers(1, 3)),
                                   lo=draw(st.sampled_from([0.0, 1.5])))
            blocks.append(block)
            columns.extend(block)
    terms = st.lists(st.tuples(st.sampled_from(columns), st.sampled_from(COEFFICIENTS)),
                     min_size=1, max_size=4)
    for r, row in enumerate(draw(st.lists(terms, max_size=4))):
        expr = LinExpr.of(row)
        if expr.terms:  # a row whose terms cancel is not written
            model.add_constraint(expr, draw(st.sampled_from(SENSES)),
                                 draw(st.sampled_from(RHS_VALUES)), f"r{r}")
    if blocks and draw(st.booleans()):
        model.add_constraints(("g",), len(blocks[0]),
                              [[(blocks[0], draw(st.sampled_from(COEFFICIENTS)))]],
                              (draw(st.sampled_from(SENSES)),), draw(st.sampled_from(RHS_VALUES)))
    costs = st.sampled_from([0.0, *COEFFICIENTS])
    model.minimize(LinExpr.of(((var, draw(costs)) for var in columns),
                              draw(st.sampled_from([0.0, 7.0, -0.5]))))
    return model


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.uint64))


def _by_name(model, names):
    """The columns in ``names`` and every row and the objective constant,
    keyed by name, each number as its bit pattern."""
    lo, hi = model.bounds()
    binary, cost, col_names = model.binary_mask(), model.cost(), model.var_names()
    columns = {name: (_bits(lo[j]), _bits(hi[j]), bool(binary[j]), _bits(cost[j]))
               for j, name in enumerate(col_names) if name in names}
    rows = {con.name: (con.sense, _bits(con.rhs),
                       {col_names[j]: _bits(c) for j, c in con.expr.terms.items()})
            for con in model.constraints}
    return columns, rows, _bits(model.objective_constant)


@settings(max_examples=200, deadline=None)
@given(small_models())
def test_small_models_read_back(model):
    mps = export_mps(model)
    assert export_mps(parse_mps(mps)) == mps
    # LP text carries every column but one with no cost, no terms, the
    # default bounds and no binary flag
    lo, hi = model.bounds()
    carried = ((model.cost() != 0.0) | (model.matrix().getnnz(axis=0) > 0) | (lo != 0.0)
               | (hi != math.inf) | model.binary_mask())
    names = {name for name, kept in zip(model.var_names(), carried) if kept}
    parsed = parse_lp(export_lp(model))
    assert set(parsed.var_names()) == names
    assert _by_name(parsed, names) == _by_name(model, names)


@pytest.mark.parametrize("which", ["catalogue", "criterion1"])
def test_export_digests_hold_across_row_blocks(request, monkeypatch, which):
    # the LP rows are written in blocks; three-row blocks put block edges
    # inside every constraint family
    model = request.getfixturevalue(f"{which}_model")
    monkeypatch.setattr(lpformat, "_ROW_CHUNK", 3)
    assert _sha(export_lp(model)) == GOLDEN[which]["lp"]
    assert _sha(export_mps(model)) == GOLDEN[which]["mps"]


def layered_model():
    """Explicit names between column families, a three-stem row family with
    its own step range, rows whose terms were added out of column order,
    and rows without terms on block edges: rows 2, 3 and 5 to 8 are empty,
    so three-row blocks start and end on them and block [6, 9) has none."""
    m = Model("layers")
    a = m.add_var("a", hi=4.0)
    x = m.add_vars("x", 4)
    on = m.add_binary("on")
    y = m.add_vars("y", 4, lo=1.5)
    m.add_var("b_t9")
    z = m.add_vars("z", 3)
    last = m.add_binary("last")
    m.add_constraint(z[2] + 2.5 * y[0] - x[3] + a, Sense.LE, 6.0, "first")
    m.add_constraints(("p", "q", "r"), 2,
                      [[(y[:2], 1.0), (x[:2], -3.0)], [(x[1:3], 0.0)], [(z[:2], 0.0)]],
                      (Sense.GE, Sense.EQ, Sense.LE), [1.0, 0.0, 2.0], first=5)
    m.add_constraint(LinExpr(), Sense.LE, 1.0, "gap")
    m.add_constraint(LinExpr(constant=1.0), Sense.GE, 0.5, "gap_t2")
    m.add_constraints(("s",), 3, [[(z, np.array([1.0, -0.25, 7.0])), (x[:3], 2.0)]],
                      (Sense.GE,), [np.array([0.0, -1.5, 1e-7])])
    m.add_constraints(("u", "v"), 2, [[(y[2:], 1.0), (x[:2], 1.0), (on, -4.0)],
                                     [(z[:2], -1.0), (y[:2], 0.5)]],
                      (Sense.LE, Sense.EQ), [np.array([3.0, 4.0]), 0.0], first=1)
    m.add_constraint(4.0 * on - x[0] + 1e20 * z[1] - last, Sense.LE, 1.0, "tail")
    m.minimize(-2.5 * a + x[0] - on + 0.1 * y[3] + 3.0)
    return m


# the text the exporters wrote when they still built every name and took
# whole-matrix copies
LAYERED_LP = """\
\\ layers
Minimize
 obj: - 2.5 a + x_t0 - on + 0.1 y_t3 + 3
Subject To
 first: a - x_t3 + 2.5 y_t0 + z_t2 <= 6
 p_t5: - 3 x_t0 + y_t0 >= 1
 p_t6: - 3 x_t1 + y_t1 >= 1
 s_t0: 2 x_t0 + z_t0 >= 0
 s_t1: 2 x_t1 - 0.25 z_t1 >= -1.5
 s_t2: 2 x_t2 + 7 z_t2 >= 1e-07
 u_t1: x_t0 - 4 on + y_t2 <= 3
 v_t1: 0.5 y_t0 - z_t0 = 0
 u_t2: x_t1 - 4 on + y_t3 <= 4
 v_t2: 0.5 y_t1 - z_t1 = 0
 tail: - x_t0 + 4 on + 1e+20 z_t1 - last <= 1
Bounds
 0 <= a <= 4
 y_t0 >= 1.5
 y_t1 >= 1.5
 y_t2 >= 1.5
 y_t3 >= 1.5
Binaries
 on
 last
End
"""

LAYERED_MPS = """\
NAME          layers
ROWS
 N  OBJ
 L  first
 G  p_t5
 G  p_t6
 G  s_t0
 G  s_t1
 G  s_t2
 L  u_t1
 E  v_t1
 L  u_t2
 E  v_t2
 L  tail
COLUMNS
    a  OBJ  -2.5
    a  first  1
    x_t0  OBJ  1
    x_t0  p_t5  -3
    x_t0  s_t0  2
    x_t0  u_t1  1
    x_t0  tail  -1
    x_t1  p_t6  -3
    x_t1  s_t1  2
    x_t1  u_t2  1
    x_t2  s_t2  2
    x_t3  first  -1
    MARKER0    'MARKER'    'INTORG'
    on  OBJ  -1
    on  u_t1  -4
    on  u_t2  -4
    on  tail  4
    MARKER1    'MARKER'    'INTEND'
    y_t0  first  2.5
    y_t0  p_t5  1
    y_t0  v_t1  0.5
    y_t1  p_t6  1
    y_t1  v_t2  0.5
    y_t2  u_t1  1
    y_t3  OBJ  0.1
    y_t3  u_t2  1
    b_t9  OBJ  0
    z_t0  s_t0  1
    z_t0  v_t1  -1
    z_t1  s_t1  -0.25
    z_t1  v_t2  -1
    z_t1  tail  1e+20
    z_t2  first  1
    z_t2  s_t2  7
    MARKER2    'MARKER'    'INTORG'
    last  tail  -1
    MARKER3    'MARKER'    'INTEND'
RHS
    RHS  OBJ  -3
    RHS  first  6
    RHS  p_t5  1
    RHS  p_t6  1
    RHS  s_t1  -1.5
    RHS  s_t2  1e-07
    RHS  u_t1  3
    RHS  u_t2  4
    RHS  tail  1
BOUNDS
 UP BND  a  4
 BV BND  on
 LO BND  y_t0  1.5
 LO BND  y_t1  1.5
 LO BND  y_t2  1.5
 LO BND  y_t3  1.5
 BV BND  last
ENDATA
"""


@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_layered_export_text(monkeypatch, chunk):
    monkeypatch.setattr(lpformat, "_ROW_CHUNK", chunk)
    model = layered_model()
    assert export_lp(model) == LAYERED_LP
    assert export_mps(model) == LAYERED_MPS


@pytest.fixture(scope="module")
def year_model(tmp_path_factory):
    """The one-building 8760 h model of the benchmark's year pipeline, seed 0."""
    data = instances.data_directory(tmp_path_factory.mktemp("year") / "data", 1, 0)
    ingest = ingest_community(data)
    return build_centralized(ingest.config, [ingest.history]).model


# MPS text of the year model, pinned when the MPS export moved onto the
# LP export's name pieces and per-distinct-value texts
YEAR_MPS_SHA256 = "89f6d0951d2f99be3b539c574108cabaf3d97f42c3f017d41f701a66de7fba16"


def test_year_export_matches_benchmark_record(year_model):
    record = json.loads((PERFBENCH / "year_build_lp.json").read_text())
    assert year_model.stats() == record["structure"]
    assert _sha(export_lp(year_model)) == record["lp_sha256"]["0"]
    assert _sha(export_mps(year_model)) == YEAR_MPS_SHA256


def test_year_lp_export_holds_little_beside_its_text(year_model):
    # names are gathered as shared pieces and each block of rows goes into
    # one byte buffer, decoded once, so the export's peak stays near twice
    # the text (it was 4.3 times the text when it built every name).  A
    # profile hook, as a coverage tool or profiler sets, must not change
    # that: growing a str by "+=" stays in place only without one, and
    # read 2.75 times under one.
    export_lp(year_model)  # fills the step-text and formatting caches
    for hooked in (False, True):
        tracemalloc.start()
        if hooked:
            sys.setprofile(lambda frame, event, arg: None)
        try:
            text = export_lp(year_model)
        finally:
            sys.setprofile(None)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak <= 2.5 * len(text), hooked
