"""Scenario generation, reduction and factor decomposition.

Generation resamples whole 24-hour blocks from a seasonal window around
each calendar day (same weekday/weekend class, any historical year), all
channels jointly so cross-correlations between loads, weather and prices
survive.  Reduction clusters the synthetic years with k-medoids so the
representative scenarios are actual sampled years and keep the original
volatility; probabilities are the relative cluster sizes, kept as exact
fractions of counts.

Clustering distance: Euclidean on the flattened year vectors with every
channel z-normalized by its pooled mean/std, so kW loads and EUR prices
weigh comparably.  For tiny instances (C(n, k) small) the medoid set is
found by exhaustive enumeration, otherwise by PAM (k-medoids++ seeding,
best-improvement swaps, lowest-index tie breaks).

Channels, their units and their factors come from the one catalogue,
:data:`communityplan.core.CHANNELS`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .core import (  # channel_names and check_channel_names are kept importable here
    FACTOR_GROUPS,
    Scenario,
    TimeSeries,
    channel_factor,
    channel_names,
    channel_unit,
    check_channel_names,
    scenario_channels,
    scenario_from_channels,
)

__all__ = [
    "BootstrapSpec",
    "BootstrapResult",
    "ClusterResult",
    "FactorProblems",
    "FACTORS",
    "validate_bootstrap_spec",
    "bootstrap_years",
    "kmedoids",
    "scenario_feature_matrix",
    "reduce_scenarios",
    "nominal_scenario",
    "compose_factor_scenarios",
    "channels_to_scenario",
]

HOURS_PER_DAY = 24
DAYS_PER_YEAR = 365

FACTORS = ("occ", "eco", "clim")

# kmedoids enumerates every medoid set when there are at most this many
EXACT_LIMIT = 1000


def channels_to_scenario(
    sid: str,
    probability: float,
    channels: Mapping[str, np.ndarray],
    start,
    step_hours: float,
) -> Scenario:
    """The scenario of these channel arrays, all starting at ``start`` with
    steps of ``step_hours``, each in its catalogue unit."""
    return scenario_from_channels(sid, probability, {
        name: TimeSeries(start, step_hours, values, channel_unit(name))
        for name, values in channels.items()
    })


# -- generation ------------------------------------------------------------


@dataclass(frozen=True)
class BootstrapSpec:
    window_weeks: float = 8.0
    n_years: int = 1000
    rng_seed: int = 0
    weekday_partition: bool = True


def validate_bootstrap_spec(spec: BootstrapSpec) -> list[str]:
    violations = []
    if spec.window_weeks < 1:
        violations.append("window_weeks: requires window_weeks >= 1")
    if spec.n_years < 1:
        violations.append("n_years: requires n_years >= 1")
    return violations


@dataclass(frozen=True)
class BootstrapResult:
    years: tuple[Scenario, ...]
    source_days: tuple[tuple[int, ...], ...]  # per year, historical day index per slot
    spec: BootstrapSpec


def _day_classes(start, n_days: int) -> np.ndarray:
    """True where the day is a weekday (Mon-Fri)."""
    first = start.weekday()
    return (np.arange(n_days) + first) % 7 < 5


def _day_of_year(start, n_days: int) -> np.ndarray:
    doy0 = start.timetuple().tm_yday - 1
    return (np.arange(n_days) + doy0) % DAYS_PER_YEAR


def bootstrap_years(history: Scenario, spec: BootstrapSpec) -> BootstrapResult:
    """Resample synthetic years of day blocks from a year-plus history.

    Each target day draws uniformly from the historical days that fall
    within ``window_weeks`` of its day-of-year (wrapping the year
    boundary, any historical year) and share its weekday/weekend class
    when ``weekday_partition`` is set.  One draw moves every channel of
    that day jointly.
    """
    channels = {
        name: np.asarray(series.values)
        for name, series in scenario_channels(history).items()
    }
    step = history.climate.t_amb.step_hours
    if step != 1.0:
        raise ValueError("bootstrap expects hourly history")
    n_hours = min(arr.size for arr in channels.values())
    if n_hours < DAYS_PER_YEAR * HOURS_PER_DAY:
        raise ValueError("history must span at least one full year")
    if spec.n_years < 1:
        raise ValueError(f"n_years must be at least 1, got {spec.n_years}")
    n_days_hist = n_hours // HOURS_PER_DAY
    start = history.climate.t_amb.start
    hist_doy = _day_of_year(start, n_days_hist)
    hist_weekday = _day_classes(start, n_days_hist)
    window_days = round(7 * spec.window_weeks)

    # candidate pools of the target days, as rows of one (365, days) mask
    # picked from a (365, 365) table of days of year within the window, so
    # no temporary is larger than the bool mask; flatnonzero walks the mask
    # row by row, so each pool lists its days in order
    doy = np.arange(DAYS_PER_YEAR, dtype=np.int16)
    dist = np.abs(doy[:, None] - doy)
    near = np.minimum(dist, DAYS_PER_YEAR - dist) <= window_days
    mask = near[np.ix_(hist_doy[:DAYS_PER_YEAR], hist_doy)]
    if spec.weekday_partition:
        mask &= hist_weekday[None, :] == hist_weekday[:DAYS_PER_YEAR, None]
    pool_sizes = mask.sum(axis=1)
    if not pool_sizes.all():
        raise ValueError(
            f"empty candidate pool for day {int(np.argmin(pool_sizes))} "
            f"(window {window_days} d, weekday_partition={spec.weekday_partition})"
        )
    pool_days = np.flatnonzero(mask)
    pool_days %= n_days_hist
    pool_starts = np.cumsum(pool_sizes) - pool_sizes

    # one call draws every (year, day) slot, in the order of one scalar
    # draw per slot: the same stream as rng.integers(size) slot by slot
    rng = np.random.default_rng(spec.rng_seed)
    draws = rng.integers(np.tile(pool_sizes, spec.n_years))
    picks = pool_days[np.tile(pool_starts, spec.n_years) + draws]
    hours = np.arange(HOURS_PER_DAY)
    years: list[Scenario] = []
    provenance: list[tuple[int, ...]] = []
    for y, year_picks in enumerate(picks.reshape(spec.n_years, DAYS_PER_YEAR)):
        provenance.append(tuple(year_picks.tolist()))
        hour_index = (year_picks[:, None] * HOURS_PER_DAY + hours).ravel()
        sampled = {name: arr[hour_index] for name, arr in channels.items()}
        years.append(
            channels_to_scenario(
                f"boot{y}", 1.0 / spec.n_years, sampled, start, step
            )
        )
    return BootstrapResult(years=tuple(years), source_days=tuple(provenance), spec=spec)


# -- clustering --------------------------------------------------------------


@dataclass(frozen=True)
class ClusterResult:
    """Medoid indices into the input set, assignments and exact sizes."""

    medoid_ids: tuple[int, ...]
    assignment: tuple[int, ...]  # per input point: position in medoid_ids
    cluster_sizes: tuple[int, ...]
    objective: float

    @property
    def n_points(self) -> int:
        return len(self.assignment)

    @property
    def probabilities(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.n_points) for c in self.cluster_sizes)


def _assign(dist: np.ndarray, medoids: Sequence[int]) -> tuple[np.ndarray, float]:
    sub = dist[:, list(medoids)]
    assignment = np.argmin(sub, axis=1)  # argmin takes the lowest index on ties
    # a medoid always belongs to its own cluster, which keeps clusters
    # non-empty even when duplicate points are both chosen as medoids
    for pos, medoid in enumerate(medoids):
        assignment[medoid] = pos
    objective = float(sub[np.arange(sub.shape[0]), assignment].sum())
    return assignment, objective


def _euclidean_distances(pts: np.ndarray) -> np.ndarray:
    """``cdist(pts, pts)`` bit for bit, from the upper triangle alone.

    Row ``i`` measures ``pts[i]`` against ``pts[i:]``; the lower triangle
    is its mirror.  For Euclidean distance ``(x - y)**2 == (y - x)**2``
    exactly and the sum runs in the same order, so both halves carry the
    bits the full matrix would.
    """
    n = pts.shape[0]
    dist = np.empty((n, n))
    for i in range(n):
        dist[i, i:] = cdist(pts[i : i + 1], pts[i:])[0]
    lower = np.tril_indices(n, -1)
    dist[lower] = dist.T[lower]
    return dist


def kmedoids(
    points,
    k: int,
    rng_seed: int = 0,
) -> ClusterResult:
    """Partition around medoids; exact for tiny instances.

    The distance between two points is Euclidean (``points`` are rows;
    :func:`reduce_scenarios` passes z-normalized year vectors).
    When the number of candidate medoid sets C(n, k) is at most
    :data:`EXACT_LIMIT` the global optimum is found by enumeration (lowest
    index set wins ties); larger instances run PAM seeded with
    k-medoids++ draws from ``rng_seed`` until no single swap improves the
    total within-cluster distance.
    """
    pts = np.asarray(points, float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} available points")
    dist = _euclidean_distances(pts)

    if math.comb(n, k) <= EXACT_LIMIT:
        best: tuple[float, tuple[int, ...]] | None = None
        for combo in itertools.combinations(range(n), k):
            objective = float(dist[:, combo].min(axis=1).sum())
            if best is None or objective < best[0] - 1e-12:
                best = (objective, combo)
        medoids = list(best[1])
    else:
        rng = np.random.default_rng(rng_seed)
        medoids = [int(rng.integers(n))]
        while len(medoids) < k:
            d_min = dist[:, medoids].min(axis=1)
            weights = d_min**2
            total = weights.sum()
            if total <= 0:
                # all remaining points coincide with a medoid; take lowest free index
                free = [i for i in range(n) if i not in medoids]
                medoids.append(free[0])
                continue
            medoids.append(int(rng.choice(n, p=weights / total)))
        improved = True
        _, objective = _assign(dist, medoids)
        while improved:
            improved = False
            best_swap: tuple[float, int, int] | None = None
            for pos in range(k):
                trial = list(medoids)
                for candidate in range(n):
                    if candidate in medoids:
                        continue
                    trial[pos] = candidate
                    obj = float(dist[:, trial].min(axis=1).sum())
                    if obj < objective - 1e-12 and (
                        best_swap is None or obj < best_swap[0] - 1e-12
                    ):
                        best_swap = (obj, pos, candidate)
                trial[pos] = medoids[pos]
            if best_swap is not None:
                objective, pos, candidate = best_swap
                medoids[pos] = candidate
                improved = True

    medoids = sorted(medoids)
    assignment, objective = _assign(dist, medoids)
    sizes = np.bincount(assignment, minlength=k)
    return ClusterResult(
        medoid_ids=tuple(int(m) for m in medoids),
        assignment=tuple(int(a) for a in assignment),
        cluster_sizes=tuple(int(c) for c in sizes),
        objective=objective,
    )


def scenario_feature_matrix(
    scenarios: Sequence[Scenario], factors: Sequence[str] | None = None
) -> np.ndarray:
    """Flattened per-channel z-normalized year vectors.

    ``factors`` restricts the channels (e.g. ``("eco", "clim")`` for the
    complement clustering of the occupant nominal); the default uses all.
    """
    wanted = set(factors) if factors is not None else set(FACTORS)
    flat = [scenario_channels(s) for s in scenarios]
    names = [name for name in flat[0] if channel_factor(name) in wanted]
    if not names:
        raise ValueError(f"no channels left for factors {sorted(wanted)}")
    edges = np.cumsum([0] + [len(flat[0][name]) for name in names])
    # each channel is normalized in place: the matrix is the largest array
    # of the scenario stage, and a second copy of it would set its peak memory
    features = np.empty((len(scenarios), int(edges[-1])))
    for name, lo, hi in zip(names, edges[:-1], edges[1:]):
        stack = np.stack([np.asarray(channels[name].values) for channels in flat])
        mean = stack.mean()
        std = stack.std()
        column = features[:, lo:hi]
        if std > 0:
            np.divide(np.subtract(stack, mean, out=column), std, out=column)
        else:
            column[...] = 0.0
    return features


def _drop_agreeing_columns(features: np.ndarray) -> np.ndarray:
    """The rows of the C-contiguous matrix ``features`` without the columns
    on which every row holds one finite value, compacted in place.

    Each row's kept columns move to the front of the buffer, row by row
    (row ``i`` lands at or before where it started, after rows ``< i``
    were read), and the result is a view of that buffer: no second matrix
    is made, and ``features`` itself is overwritten.

    The Euclidean distances between the rows stay the same bit for bit.
    SciPy's ``cdist`` (checked for SciPy 1.17.1; another version may sum
    differently) adds each pair's squared differences column by column,
    in order, from +0.0.  An agreeing column adds ``(x - x)**2 == +0.0``,
    which leaves a sum that is never negative as it was.  A non-finite
    column is kept, since ``inf - inf`` is NaN.  With every column
    dropped, the rows are one point and ``cdist`` gives zeros, as on the
    full matrix.
    """
    n_rows, n_cols = features.shape
    lowest, highest = features.min(axis=0), features.max(axis=0)
    keep = np.flatnonzero((lowest != highest) | ~np.isfinite(lowest))
    if keep.size == n_cols:
        return features
    flat = features.reshape(-1)
    width = keep.size
    for i in range(n_rows):
        flat[i * width : (i + 1) * width] = features[i, keep]
    return flat[: n_rows * width].reshape(n_rows, width)


def reduce_scenarios(
    years: Sequence[Scenario], k: int = 10, rng_seed: int = 0
) -> tuple[list[Scenario], ClusterResult]:
    """Pick k medoid years as the representative scenario set.

    Returned scenarios are verbatim members of the input with
    probabilities set to the relative cluster sizes.  The feature matrix
    is clustered without the columns on which every year agrees (night
    irradiance, flat prices, set-point schedules), compacted in place by
    :func:`_drop_agreeing_columns`; the distances, and so the result, are
    those of the full matrix bit for bit.
    """
    features = _drop_agreeing_columns(scenario_feature_matrix(years))
    result = kmedoids(features, k, rng_seed=rng_seed)
    reduced = [
        replace(years[idx], probability=float(result.probabilities[pos]))
        for pos, idx in enumerate(result.medoid_ids)
    ]
    return reduced, result


def nominal_scenario(scenarios: Sequence[Scenario], factor: str) -> str:
    """Nominal scenario id for one uncertainty factor.

    Identified as the k = 1 medoid over the complement factors' channels:
    the occupant nominal is the year most central in economic and climate
    terms, and so on.  Columns on which every scenario agrees are dropped
    first, as in :func:`reduce_scenarios`, without changing the result.
    """
    if factor not in FACTORS:
        raise ValueError(f"unknown factor '{factor}'")
    complement = tuple(f for f in FACTORS if f != factor)
    features = _drop_agreeing_columns(scenario_feature_matrix(scenarios, complement))
    result = kmedoids(features, 1)
    return scenarios[result.medoid_ids[0]].id


@dataclass(frozen=True)
class FactorProblems:
    """Deterministic singleton problems for one varied factor."""

    factor: str
    scenarios: tuple[Scenario, ...]
    nominal_ids: Mapping[str, str]


def compose_factor_scenarios(scenarios: Sequence[Scenario]) -> list[FactorProblems]:
    """Build the one-at-a-time problem sets for the sensitivity analysis:
    per factor, one deterministic singleton per scenario with the other
    two factors pinned at their nominal scenarios' channels.
    """
    nominal_scn = {}
    for factor in FACTORS:
        nominal_id = nominal_scenario(scenarios, factor)
        nominal_scn[factor] = next(s for s in scenarios if s.id == nominal_id)
    problems = []
    for factor in FACTORS:
        others = [f for f in FACTORS if f != factor]
        pinned = {FACTOR_GROUPS[f]: getattr(nominal_scn[f], FACTOR_GROUPS[f])
                  for f in others}
        singletons = tuple(
            replace(member, id=f"{factor}_{member.id}", probability=1.0, **pinned)
            for member in scenarios
        )
        problems.append(FactorProblems(
            factor=factor,
            scenarios=singletons,
            nominal_ids={f: nominal_scn[f].id for f in others},
        ))
    return problems
