"""Synthetic community fixtures: plausible Dutch-style inputs for tests
and demos.

Generates one hourly year (2019) of climate, day-ahead-shaped electricity
prices, semi-annually stepped gas prices, a flat carbon price, and
per-building diurnal base loads plus 17/19 degC set-point schedules, along
with RC catalogues (orders 1 to 5 in stable parameter ranges) and a
techno-economic device catalogue.  Everything is a pure function of
(n_buildings, seed): calling twice writes identical bytes.
"""

from __future__ import annotations

from datetime import datetime
from pathlib import Path

import numpy as np

from .core import RC_CAPACITY_KEY, RC_RESISTANCES_BY_ORDER, RC_STATES_BY_ORDER
from .core import TimeSeries, channel_names, channel_unit
from .io import _write_json, write_series_csv

__all__ = ["generate_fixture", "DEVICE_CATALOGUE"]

HOURS = 8760
START = datetime(2019, 1, 1)

# techno-economic catalogue, loosely following public technology data
# sheets (EUR, kW, kWh, m2, years)
DEVICE_CATALOGUE: dict[str, dict] = {
    "BOL": {
        "kind": "BOL", "cap_min": 1.0, "cap_max": 15.0,
        "size_price": 60.0, "base_price": 1700.0, "lifetime_years": 20.0,
        "extra": {"eta": 0.97},
    },
    "HP": {
        "kind": "HP", "cap_min": 1.0, "cap_max": 10.0,
        "size_price": 900.0, "base_price": 4200.0, "lifetime_years": 18.0,
        "extra": {"cop_coeffs": [6.08, -0.0233, 0.0, 0.0], "t_dist": 35.0},
    },
    "PV": {
        "kind": "PV", "cap_min": 2.0, "cap_max": 40.0,
        "size_price": 180.0, "base_price": 1100.0, "lifetime_years": 25.0,
        "extra": {"eta": 0.20},
    },
    "STC": {
        "kind": "STC", "cap_min": 1.0, "cap_max": 12.0,
        "size_price": 350.0, "base_price": 900.0, "lifetime_years": 25.0,
        "extra": {"eta": 0.70, "u_loss": 4.0, "t_collector": 35.0},
    },
    "BAT": {
        "kind": "BAT", "cap_min": 1.0, "cap_max": 13.5,
        "eta_ch": 0.95, "eta_dch": 0.95, "sigma": 0.99996,
        "gamma_ch": 0.5, "gamma_dch": 0.5,
        "size_price": 300.0, "base_price": 1500.0, "lifetime_years": 12.0,
    },
    "TES": {
        "kind": "TES", "cap_min": 1.0, "cap_max": 12.0,
        "eta_ch": 0.95, "eta_dch": 0.95, "sigma": 0.99,
        "gamma_ch": 0.5, "gamma_dch": 0.5,
        "size_price": 25.0, "base_price": 450.0, "lifetime_years": 22.0,
    },
    "PV_COM": {
        "kind": "PV_COM", "cap_min": 50.0, "cap_max": 2000.0,
        "size_price": 120.0, "base_price": 12000.0, "lifetime_years": 25.0,
        "extra": {"eta": 0.20},
    },
    "BAT_COM": {
        "kind": "BAT_COM", "cap_min": 10.0, "cap_max": 500.0,
        "eta_ch": 0.92, "eta_dch": 0.92, "sigma": 0.9999,
        "gamma_ch": 0.25, "gamma_dch": 0.25,
        "size_price": 250.0, "base_price": 20000.0, "lifetime_years": 20.0,
    },
    "EL": {
        "kind": "EL", "cap_min": 5.0, "cap_max": 200.0,
        "eta_ch": 0.70, "gamma_ch": 1.0,
        "size_price": 650.0, "base_price": 15000.0, "lifetime_years": 15.0,
    },
    "HYD": {
        "kind": "HYD", "cap_min": 50.0, "cap_max": 5000.0,
        "sigma": 1.0,
        "size_price": 10.0, "base_price": 8000.0, "lifetime_years": 25.0,
    },
    "FC": {
        "kind": "FC", "cap_min": 5.0, "cap_max": 200.0,
        "eta_dch": 0.50, "gamma_dch": 1.0,
        "size_price": 1300.0, "base_price": 12000.0, "lifetime_years": 10.0,
    },
}

# sampling ranges for RC parameters, chosen so every pair keeps
# step/(R*C) well under the explicit-Euler bound at hourly resolution
_RC_RANGES = {
    "R_ia": (5e-3, 1.2e-2), "R_ie": (3e-3, 8e-3), "R_ea": (5e-3, 1.5e-2),
    "R_im": (2e-3, 6e-3), "R_ih": (4e-3, 1.0e-2), "R_is": (5e-2, 2e-1),
    "C_i": (6e6, 2e7), "C_e": (2e7, 8e7), "C_m": (3e7, 1e8),
    "C_h": (3e6, 8e6), "C_s": (2e5, 6e5),
}


def _hour_of_day(hours: np.ndarray) -> np.ndarray:
    return hours % 24


def _day_of_year(hours: np.ndarray) -> np.ndarray:
    return hours // 24


def _climate(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    hours = np.arange(HOURS)
    doy = _day_of_year(hours)
    hod = _hour_of_day(hours)
    seasonal = 10.5 - 7.5 * np.cos(2 * np.pi * (doy - 15) / 365.0)
    diurnal = 2.5 * np.sin(2 * np.pi * (hod - 9) / 24.0)
    noise = np.zeros(HOURS)
    eps = rng.normal(0.0, 0.45, HOURS)
    for t in range(1, HOURS):  # AR(1) keeps day-to-day persistence
        noise[t] = 0.95 * noise[t - 1] + eps[t]
    t_amb = seasonal + diurnal + noise

    elevation = np.sin(np.pi * (hod - 6) / 12.0)
    elevation = np.where((hod >= 6) & (hod <= 18), np.maximum(elevation, 0.0), 0.0)
    season_peak = 420.0 - 330.0 * np.cos(2 * np.pi * (doy - 10) / 365.0)
    cloud = np.clip(rng.beta(2.2, 1.6, HOURS), 0.05, 1.0)
    i_sol = season_peak * elevation * cloud
    return t_amb, np.maximum(i_sol, 0.0)


def _prices(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    hours = np.arange(HOURS)
    hod = _hour_of_day(hours)
    doy = _day_of_year(hours)
    base = 0.24 + 0.03 * np.cos(2 * np.pi * (doy - 20) / 365.0)
    morning = 0.05 * np.exp(-0.5 * ((hod - 8.0) / 1.8) ** 2)
    evening = 0.07 * np.exp(-0.5 * ((hod - 19.0) / 2.2) ** 2)
    night = -0.05 * np.exp(-0.5 * ((hod - 3.0) / 2.5) ** 2)
    p_el = base + morning + evening + night + rng.normal(0.0, 0.012, HOURS)
    p_el = np.maximum(p_el, 0.01)

    half_year = (doy >= 182).astype(float)
    p_gas = 0.105 + 0.02 * half_year + np.zeros(HOURS)
    p_co2 = np.full(HOURS, 0.022)
    return p_el, p_gas, p_co2


def _occupant(
    rng: np.random.Generator, weekday: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    hours = np.arange(HOURS)
    hod = _hour_of_day(hours)
    scale = rng.uniform(0.25, 0.55)
    morning = rng.uniform(0.3, 0.7) * np.exp(-0.5 * ((hod - 7.5) / 1.5) ** 2)
    evening = rng.uniform(0.6, 1.2) * np.exp(-0.5 * ((hod - 19.5) / 2.0) ** 2)
    day_home = np.where(weekday, 0.0, rng.uniform(0.1, 0.3))
    e_base = scale * (0.6 + morning + evening) + day_home * (
        (hod >= 9) & (hod <= 17)
    )
    e_base = np.maximum(e_base + rng.normal(0.0, 0.03, HOURS), 0.02)

    wake = int(rng.integers(6, 9))
    sleep = int(rng.integers(21, 24))
    comfortable = 19.0 if rng.random() < 0.8 else 20.0
    setback = 17.0
    t_set = np.where((hod >= wake) & (hod < sleep), comfortable, setback)
    # occasional lower plateau weeks (price-aware occupants)
    for _ in range(int(rng.integers(1, 4))):
        start = int(rng.integers(0, HOURS - 240))
        t_set[start : start + 168] = np.minimum(t_set[start : start + 168], 17.0)
    return e_base, t_set


def _rc_parameters(rng: np.random.Generator, order: int) -> dict:
    resistances = {}
    for key in RC_RESISTANCES_BY_ORDER[order]:
        lo, hi = _RC_RANGES[key]
        resistances[key] = float(rng.uniform(lo, hi))
    capacities = {}
    for state in RC_STATES_BY_ORDER[order]:
        key = RC_CAPACITY_KEY[state]
        lo, hi = _RC_RANGES[key]
        capacities[key] = float(rng.uniform(lo, hi))
    return {
        "order": order,
        "resistances": resistances,
        "capacities": capacities,
        "window_area": float(rng.uniform(1.0, 4.0)),
        "envelope_area": float(rng.uniform(2.0, 8.0)) if order >= 2 else 0.0,
    }


def generate_fixture(out_dir: Path | str, n_buildings: int, seed: int) -> Path:
    """Write a complete ingestible data directory; pure in (n, seed)."""
    if n_buildings < 1:
        raise ValueError("need at least one building")
    out_dir = Path(out_dir)
    (out_dir / "history").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    # the generators return their series in the order of channel_names
    history = [*_climate(rng), *_prices(rng)]
    weekday = (np.arange(HOURS) // 24 + START.weekday()) % 7 < 5

    rc_catalogue = {}
    buildings = []
    for i in range(1, n_buildings + 1):
        order = int(rng.integers(1, 6))
        rc_catalogue[str(i)] = _rc_parameters(rng, order)
        history.extend(_occupant(rng, weekday))
        buildings.append(
            {
                "id": i,
                "roof_area": round(float(rng.uniform(12.0, 40.0)), 2),
                "comfort_buffer": 0.5,
                "devices": ["BOL", "HP", "PV", "STC", "BAT", "TES"],
            }
        )

    names = channel_names(building["id"] for building in buildings)
    for name, values in zip(names, history, strict=True):
        write_series_csv(
            out_dir / "history" / f"{name}.csv",
            TimeSeries(START, 1.0, values, channel_unit(name)),
        )

    config = {
        "buildings": buildings,
        "community_devices": ["PV_COM", "BAT_COM", "EL", "HYD", "FC"],
        "lv_limit": 17.25,
        "mv_limit": round(max(50.0, 5.0 * n_buildings), 1),
        "slack_price": 1e5,
        "discount_rate": 0.05,
        "horizon_steps": HOURS,
        "step_hours": 1.0,
    }
    _write_json(out_dir / "config.json", config)
    _write_json(out_dir / "rc_catalogue.json", rc_catalogue)
    _write_json(out_dir / "device_catalogue.json", DEVICE_CATALOGUE)
    return out_dir
