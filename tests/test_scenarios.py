import hashlib
import sys
from datetime import datetime
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import communityplan.scenarios
from communityplan.core import scenario_channels
from communityplan.io import ingest_community
from communityplan.scenarios import (
    FACTORS,
    BootstrapSpec,
    _drop_agreeing_columns,
    _euclidean_distances,
    bootstrap_years,
    channels_to_scenario,
    compose_factor_scenarios,
    kmedoids,
    nominal_scenario,
    reduce_scenarios,
    scenario_feature_matrix,
    validate_bootstrap_spec,
)

from oracles import brute_force_kmedoids

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

import instances  # noqa: E402

YEAR_HOURS = 8760
HISTORY_START = datetime(2019, 1, 1)  # a Tuesday


def make_history(seed=0, n_buildings=1, hours=YEAR_HOURS):
    rng = np.random.default_rng(seed)
    t = np.arange(hours)
    doy = t // 24
    hod = t % 24
    channels = {
        "T_amb": 10 - 8 * np.cos(2 * np.pi * doy / 365) + rng.normal(0, 1, hours),
        "I_sol": np.maximum(0, 300 * np.sin(np.pi * (hod - 6) / 12)),
        "p_el": 0.25 + 0.05 * np.sin(2 * np.pi * hod / 24) + rng.normal(0, 0.01, hours),
        "p_gas": np.full(hours, 0.11),
        "p_co2": np.full(hours, 0.02),
    }
    for b in range(1, n_buildings + 1):
        channels[f"E_base_b{b}"] = 0.3 + 0.2 * rng.random(hours)
        channels[f"T_set_b{b}"] = np.where(hod > 6, 19.0, 17.0)
    return channels_to_scenario("history", 1.0, channels, HISTORY_START, 1.0)


def price_scenarios(levels, seed_channels=None):
    """One-dimensional economics: same occ/clim, p_el level varies."""
    scenarios = []
    hours = 48
    for i, level in enumerate(levels):
        channels = {
            "T_amb": np.full(hours, 8.0),
            "I_sol": np.zeros(hours),
            "p_el": np.full(hours, float(level)),
            "p_gas": np.full(hours, 0.1),
            "p_co2": np.full(hours, 0.02),
            "E_base_b1": np.full(hours, 0.3),
            "T_set_b1": np.full(hours, 19.0),
        }
        scenarios.append(
            channels_to_scenario(f"s{i}", 1.0 / len(levels), channels,
                                 HISTORY_START, 1.0)
        )
    return scenarios


class TestBootstrap:
    def test_spec_validation(self):
        bad = BootstrapSpec(window_weeks=0.5, n_years=0)
        problems = validate_bootstrap_spec(bad)
        assert len(problems) == 2

    def test_window_zero_reproduces_history(self):
        history = make_history()
        spec = BootstrapSpec(window_weeks=0.0, n_years=2, rng_seed=1)
        result = bootstrap_years(history, spec)
        for year in result.years:
            for name, series in scenario_channels(year).items():
                original = scenario_channels(history)[name]
                assert np.array_equal(series.values, original.values[:YEAR_HOURS])

    def test_blocks_are_verbatim_days(self):
        history = make_history(seed=3)
        spec = BootstrapSpec(window_weeks=2.0, n_years=3, rng_seed=9)
        result = bootstrap_years(history, spec)
        hist = {n: s.values for n, s in scenario_channels(history).items()}
        for year, days in zip(result.years, result.source_days):
            for name, series in scenario_channels(year).items():
                values = series.values
                for d, src in enumerate(days):
                    got = values[d * 24 : (d + 1) * 24]
                    ref = hist[name][src * 24 : (src + 1) * 24]
                    assert np.array_equal(got, ref)

    def test_seasonal_window_and_weekday_class(self):
        history = make_history()
        window_weeks = 2.0
        spec = BootstrapSpec(window_weeks=window_weeks, n_years=2, rng_seed=5)
        result = bootstrap_years(history, spec)
        first_weekday = HISTORY_START.weekday()
        for days in result.source_days:
            for d, src in enumerate(days):
                dist = abs((src % 365) - (d % 365))
                dist = min(dist, 365 - dist)
                assert dist <= 7 * window_weeks
                is_weekday = (src + first_weekday) % 7 < 5
                target_weekday = (d + first_weekday) % 7 < 5
                assert is_weekday == target_weekday

    def test_seed_determinism(self):
        history = make_history()
        spec = BootstrapSpec(window_weeks=3.0, n_years=2, rng_seed=42)
        a = bootstrap_years(history, spec)
        b = bootstrap_years(history, spec)
        assert a.source_days == b.source_days
        for ya, yb in zip(a.years, b.years):
            for name in scenario_channels(ya):
                assert np.array_equal(
                    scenario_channels(ya)[name].values,
                    scenario_channels(yb)[name].values,
                )

    def test_short_history_rejected(self):
        with pytest.raises(ValueError, match="full year"):
            bootstrap_years(make_history(hours=5000), BootstrapSpec(n_years=1))

    @pytest.mark.parametrize("n_years", [0, -3])
    def test_no_years_rejected(self, n_years):
        with pytest.raises(ValueError, match="n_years"):
            bootstrap_years(make_history(), BootstrapSpec(n_years=n_years))


# SHA-256 of bootstrap_years(24 years) + reduce_scenarios(k=3) on the
# one-building benchmark fixture history of each (fixture seed, rng seed):
# source days, every channel of every year, medoids, assignment and the
# repr of the objective.  Recorded with the scalar-draw bootstrap and the
# full cdist matrix; any change in draws, slicing or distances shows here.
SCENARIO_GOLDEN = {
    (0, 11): "b907180b59043ba710386f7b23bf79d926ed5ff94d9a054b02ce250004cb22b6",
    (3, 7): "95a06c136bf861527d10b43354b32478b56ed4bb2b1974191f2603a9d516b1d3",
    (5, 2024): "3a3c7c58a35e97fcb81e67775a674f84bc18c9f6b78b4e1db4838eadec036f49",
}


@pytest.mark.parametrize("seed, rng_seed", sorted(SCENARIO_GOLDEN))
def test_bootstrap_and_reduction_are_pinned(tmp_path, seed, rng_seed):
    history = ingest_community(instances.data_directory(tmp_path, 1, seed)).history
    boot = bootstrap_years(history, BootstrapSpec(n_years=24, rng_seed=rng_seed))
    _, cluster = reduce_scenarios(list(boot.years), k=3, rng_seed=rng_seed)
    digest = hashlib.sha256(repr(boot.source_days).encode())
    for year in boot.years:
        for name, series in scenario_channels(year).items():
            digest.update(name.encode())
            digest.update(np.asarray(series.values).tobytes())
    digest.update(
        repr((cluster.medoid_ids, cluster.assignment, repr(cluster.objective))).encode()
    )
    assert digest.hexdigest() == SCENARIO_GOLDEN[(seed, rng_seed)]


def assert_full_cdist_result(points, result):
    """The assignment and objective of ``result`` are those its medoids
    give on the full ``cdist(points, points)`` matrix, bit for bit."""
    medoids = list(result.medoid_ids)
    sub = cdist(points, points)[:, medoids]
    assignment = np.argmin(sub, axis=1)
    assignment[medoids] = np.arange(len(medoids))
    assert result.assignment == tuple(assignment.tolist())
    objective = float(sub[np.arange(len(points)), assignment].sum())
    assert repr(result.objective) == repr(objective)


class TestKmedoids:
    @pytest.mark.parametrize("k, exact_limit", [(1, 1000), (2, 1000), (4, 1000), (3, 1)])
    def test_clusters_on_the_full_cdist_bits(self, k, exact_limit, monkeypatch):
        # kmedoids may compute fewer pairs, and reduce_scenarios drops the
        # columns on which every point agrees, but the assignment and the
        # objective must be those of the full cdist(pts, pts) matrix, bit
        # for bit, duplicates included (exact and PAM paths)
        rng = np.random.default_rng(8)
        varying = rng.normal(0.0, 1.0, (40, 7))
        varying[[5, 17, 33]] = varying[2]
        varying[21] = varying[20]
        night = np.zeros((40, 5))  # a channel that reads zero at night
        constant = np.full((40, 2), -1.2345678901234567)
        points = np.hstack([constant[:, :1], varying[:, :3], night, -night[:, :2],
                            varying[:, 3:], constant[:, 1:]])
        monkeypatch.setattr(communityplan.scenarios, "EXACT_LIMIT", exact_limit)
        result = kmedoids(points, k=k, rng_seed=3)
        assert_full_cdist_result(points, result)
        compacted = _drop_agreeing_columns(points.copy())
        assert np.array_equal(compacted, varying)
        assert _euclidean_distances(compacted).tobytes() == cdist(points, points).tobytes()
        again = kmedoids(compacted, k=k, rng_seed=3)
        assert again == result

    def test_dropping_agreeing_columns_compacts_in_place(self):
        points = np.array([[1.0, 0.0, 2.0, np.inf, 5.0, np.nan],
                           [1.0, -0.0, 3.0, np.inf, 5.0, np.nan],
                           [1.0, 0.0, 4.0, np.inf, 6.0, np.nan]])
        compacted = _drop_agreeing_columns(points)
        # a column of one finite value is dropped (-0.0 == 0.0 included);
        # a non-finite column is kept, since inf - inf is NaN
        assert np.shares_memory(compacted, points)
        assert compacted.flags.c_contiguous
        np.testing.assert_array_equal(
            compacted, [[2.0, np.inf, 5.0, np.nan], [3.0, np.inf, 5.0, np.nan],
                        [4.0, np.inf, 6.0, np.nan]])
        same = np.zeros((4, 3))
        assert _drop_agreeing_columns(same).shape == (4, 0)
        assert _euclidean_distances(np.zeros((4, 0))).tobytes() == cdist(same, same).tobytes()
        kept = np.arange(6.0).reshape(2, 3)
        assert _drop_agreeing_columns(kept) is kept

    def test_distance_matrix_is_cdist_bitwise(self):
        rng = np.random.default_rng(21)
        points = rng.normal(0.0, 3.0, (33, 50))
        points[[4, 9]] = points[30]
        assert _euclidean_distances(points).tobytes() == cdist(points, points).tobytes()

    def test_saturation_every_point_its_own_medoid(self):
        points = np.array([[0.0], [1.0], [5.0]])
        result = kmedoids(points, k=3)
        assert result.medoid_ids == (0, 1, 2)
        assert result.probabilities == (Fraction(1, 3),) * 3

    def test_single_medoid_of_line(self):
        # brute force over the 4 candidates: totals 13, 11, 11, 27; points
        # 1 and 2 tie at 11 and the lowest index wins
        result = kmedoids(np.array([0.0, 1.0, 2.0, 10.0]), k=1)
        assert result.objective == pytest.approx(11.0)
        assert result.medoid_ids == (1,)

    def test_two_separated_blobs(self):
        points = np.array([[0.0], [0.5], [1.0], [100.0], [100.5], [101.0]])
        result = kmedoids(points, k=2)
        assert result.medoid_ids == (1, 4)
        assert result.probabilities == (Fraction(1, 2), Fraction(1, 2))

    def test_matches_brute_force_on_small_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, min(4, n + 1)))
            points = rng.normal(0, 1, (n, 3))
            result = kmedoids(points, k)
            dist = cdist(points, points)
            best_obj, _ = brute_force_kmedoids(dist, k)
            assert result.objective == pytest.approx(best_obj, abs=1e-9)
            assert all(m in range(n) for m in result.medoid_ids)
            assert sum(result.probabilities) == Fraction(1)

    def test_pam_path_on_blobs(self, monkeypatch):
        # force the iterative PAM path and check it still lands on the
        # global optimum of a well separated instance
        rng = np.random.default_rng(4)
        blob_a = rng.normal(0.0, 0.3, (10, 2))
        blob_b = rng.normal(50.0, 0.3, (12, 2))
        points = np.vstack([blob_a, blob_b])
        monkeypatch.setattr(communityplan.scenarios, "EXACT_LIMIT", 1)
        result = kmedoids(points, k=2, rng_seed=7)
        best_obj, _ = brute_force_kmedoids(cdist(points, points), 2)
        assert result.objective == pytest.approx(best_obj, rel=1e-12)
        sizes = sorted(result.cluster_sizes)
        assert sizes == [10, 12]

    def test_duplicates_allowed(self):
        points = np.zeros((5, 2))
        result = kmedoids(points, k=2)
        assert sum(result.cluster_sizes) == 5

    def test_errors(self):
        with pytest.raises(ValueError):
            kmedoids(np.zeros((3, 1)), k=0)
        with pytest.raises(ValueError):
            kmedoids(np.zeros((3, 1)), k=4)


class TestReduce:
    def test_medoids_are_members_and_probs_sum_to_one(self):
        history = make_history(seed=6)
        years = list(
            bootstrap_years(history, BootstrapSpec(n_years=12, rng_seed=2)).years
        )
        reduced, cluster = reduce_scenarios(years, k=3)
        assert len(reduced) == 3
        assert sum(cluster.probabilities) == Fraction(1)
        ids = {y.id for y in years}
        for scenario in reduced:
            assert scenario.id in ids
            source = next(y for y in years if y.id == scenario.id)
            for name in scenario_channels(scenario):
                assert np.array_equal(
                    scenario_channels(scenario)[name].values,
                    scenario_channels(source)[name].values,
                )

    @pytest.mark.parametrize("n_years, k", [(12, 3), (20, 3)])  # exact, PAM
    def test_clusters_on_every_feature_column(self, n_years, k, monkeypatch):
        # night irradiance, the flat gas and CO2 prices and the set-point
        # schedule agree across years; clustering without those columns
        # gives the result of the full feature matrix, bit for bit
        history = make_history(seed=6)
        years = list(
            bootstrap_years(history, BootstrapSpec(n_years=n_years, rng_seed=2)).years
        )
        features = scenario_feature_matrix(years)
        assert _drop_agreeing_columns(features.copy()).shape[1] < features.shape[1]
        _, cluster = reduce_scenarios(years, k=k, rng_seed=5)
        assert cluster == kmedoids(features, k, rng_seed=5)
        assert_full_cdist_result(features, cluster)
        clusters = []
        monkeypatch.setattr(communityplan.scenarios, "kmedoids",
                            lambda *args: clusters.append(kmedoids(*args)) or clusters[-1])
        for factor in FACTORS:
            complement = tuple(f for f in FACTORS if f != factor)
            full = kmedoids(scenario_feature_matrix(years, complement), 1)
            assert nominal_scenario(years, factor) == years[full.medoid_ids[0]].id
            assert clusters.pop() == full

    def test_k_one(self):
        years = price_scenarios([0.1, 0.2, 0.9])
        reduced, cluster = reduce_scenarios(years, k=1)
        assert len(reduced) == 1
        assert reduced[0].probability == 1.0


class TestNominal:
    def test_single_element(self):
        scenarios = price_scenarios([0.3])
        assert nominal_scenario(scenarios, "occ") == "s0"

    def test_medoid_of_three_price_levels(self):
        # occupant nominal clusters over the complement (eco + clim)
        # channels; only p_el differs, at levels 1, 2, 9
        scenarios = price_scenarios([1.0, 2.0, 9.0])
        assert nominal_scenario(scenarios, "occ") == "s1"

    def test_identical_elements_first_wins(self):
        scenarios = price_scenarios([0.5, 0.5, 0.5])
        assert nominal_scenario(scenarios, "occ") == "s0"

    def test_unknown_factor(self):
        with pytest.raises(ValueError):
            nominal_scenario(price_scenarios([0.1]), "weather")


class TestCompose:
    def test_counting_one_at_a_time(self):
        scenarios = price_scenarios([0.1, 0.2, 0.3, 0.4])
        problems = compose_factor_scenarios(scenarios)
        assert [p.factor for p in problems] == ["occ", "eco", "clim"]
        assert all(len(p.scenarios) == 4 for p in problems)
        assert all(s.probability == 1.0 for p in problems for s in p.scenarios)

    def test_all_singletons(self):
        single = price_scenarios([0.2])
        problems = compose_factor_scenarios(single)
        assert all(len(p.scenarios) == 1 for p in problems)

    def test_pinned_channels_match_nominals_bytewise(self):
        rng = np.random.default_rng(23)
        scenarios = []
        hours = 24
        for i in range(3):
            channels = {
                "T_amb": rng.normal(8, 2, hours),
                "I_sol": np.maximum(0, rng.normal(100, 50, hours)),
                "p_el": rng.uniform(0.1, 0.4, hours),
                "p_gas": np.full(hours, rng.uniform(0.08, 0.14)),
                "p_co2": np.full(hours, 0.02),
                "E_base_b1": rng.uniform(0.1, 0.6, hours),
                "T_set_b1": np.where(rng.random(hours) > 0.5, 19.0, 17.0),
            }
            scenarios.append(
                channels_to_scenario(f"s{i}", 1 / 3, channels, HISTORY_START, 1.0)
            )
        problems = compose_factor_scenarios(scenarios)
        by_factor = {p.factor: p for p in problems}
        occ = by_factor["occ"]
        eco_nominal = next(
            s for s in scenarios if s.id == occ.nominal_ids["eco"]
        )
        clim_nominal = next(
            s for s in scenarios if s.id == occ.nominal_ids["clim"]
        )
        for composed in occ.scenarios:
            assert np.array_equal(
                composed.economic.p_el.values, eco_nominal.economic.p_el.values
            )
            assert np.array_equal(
                composed.climate.t_amb.values, clim_nominal.climate.t_amb.values
            )
        # the varied factor keeps its own channels
        for composed, source in zip(occ.scenarios, scenarios):
            assert np.array_equal(
                composed.occupant[1].e_base.values,
                source.occupant[1].e_base.values,
            )


class TestFeatureMatrix:
    def test_z_normalization_makes_channels_comparable(self):
        scenarios = price_scenarios([0.1, 0.9])
        features = scenario_feature_matrix(scenarios)
        # constant channels contribute zeros, varying ones are normalized
        assert np.isfinite(features).all()
        assert features.shape[0] == 2

    def test_factor_filter(self):
        scenarios = price_scenarios([0.1, 0.9])
        eco = scenario_feature_matrix(scenarios, ("eco",))
        everything = scenario_feature_matrix(scenarios)
        assert eco.shape[1] < everything.shape[1]
