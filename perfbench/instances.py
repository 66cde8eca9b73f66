"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of its arguments: the same seed gives
the same inputs, so two runs of one seed time the same work.  The library
only ever receives the objects (or files) these functions return.
"""

from __future__ import annotations

import json
from datetime import datetime
from pathlib import Path

import numpy as np

from communityplan import fixtures
from communityplan.core import (
    BuildingConfig,
    ClimateProfile,
    CommunityConfig,
    DeviceSpec,
    EconomicProfile,
    OccupantProfile,
    RCParameters,
    Scenario,
    TimeSeries,
    Unit,
)

START = datetime(2019, 1, 7)  # a Monday

# Order-3 RC draw ranges, the same ranges the library's fixture uses; every
# pair keeps step/(R*C) well under the explicit-Euler bound at 1 h steps.
_RC3_RANGES = {
    "R_ia": (5e-3, 1.2e-2), "R_ie": (3e-3, 8e-3), "R_ea": (5e-3, 1.5e-2),
    "R_im": (2e-3, 6e-3),
    "C_i": (6e6, 2e7), "C_e": (2e7, 8e7), "C_m": (3e7, 1e8),
}


# Scenario level ranges: ambient temperature (degC), electricity and gas
# price (EUR/kWh), solar peak (W/m2).  They sit within 5% of the middle of
# the acceptance suite's criterion-1 ranges (0-9 degC, 0.15-0.45, 0.09-0.14,
# 150-450 W/m2).  Over those full ranges HiGHS's time on one 48 h instance
# spreads from 0.46 s to 1.72 s, so a ten-seed median could not resolve a
# 20% change; narrow draws still give every operation a different instance.
SCENARIO_LEVELS = ((4.25, 4.75), (0.285, 0.315), (0.109, 0.121), (285.0, 315.0))


def _series(values, unit: Unit = Unit.DEGC) -> TimeSeries:
    return TimeSeries(START, 1.0, np.asarray(values, float), unit)


def criterion1_instance(
    seed: int,
    index: int,
    horizon: int = 48,
    n_scenarios: int = 3,
    n_buildings: int = 5,
) -> tuple[CommunityConfig, list[Scenario]]:
    """An instance shaped like the acceptance suite's criterion-1 community.

    Every building has an order-1 RC envelope, a boiler and a battery;
    buildings 1 and 2 carry a fixed 20 kW PV roof; the community owns a
    shared battery.  Each of the ``n_scenarios`` equiprobable scenarios
    draws its ambient temperature level, electricity and gas price and
    solar peak from :data:`SCENARIO_LEVELS` with ``(seed, index)``, so a run
    can draw several instances of the same shape.
    """
    rng = np.random.default_rng((seed, index))
    rc = RCParameters(order=1, resistances={"R_ia": 6e-3}, capacities={"C_i": 2e7},
                      window_area=2.0)
    boiler = DeviceSpec(kind="BOL", cap_min=1.0, cap_max=20.0, size_price=50.0,
                        base_price=700.0, lifetime_years=20.0, extra={"eta": 0.97})
    battery = DeviceSpec(kind="BAT", cap_min=0.5, cap_max=8.0, eta_ch=0.95,
                         eta_dch=0.95, sigma=1.0, gamma_ch=0.5, gamma_dch=0.5,
                         size_price=20.0, base_price=50.0, lifetime_years=12.0)
    pv = DeviceSpec(kind="PV", cap_min=20.0, cap_max=20.0, size_price=0.0,
                    base_price=0.0, lifetime_years=25.0, extra={"eta": 0.2})
    buildings = [
        BuildingConfig(id=i, rc=rc, roof_area=30.0,
                       devices=(boiler, battery) + ((pv,) if i <= 2 else ()))
        for i in range(1, n_buildings + 1)
    ]
    shared_battery = DeviceSpec(kind="BAT_COM", cap_min=1.0, cap_max=80.0,
                                eta_ch=0.95, eta_dch=0.95, sigma=0.999,
                                gamma_ch=1.0, gamma_dch=1.0, size_price=5.0,
                                base_price=10.0, lifetime_years=20.0)
    cfg = CommunityConfig(buildings=tuple(buildings),
                          community_devices=(shared_battery,), lv_limit=15.0,
                          mv_limit=150.0, slack_price=1e5, discount_rate=0.05,
                          horizon_steps=horizon, step_hours=1.0)

    hod = np.arange(horizon) % 24
    scenarios = []
    for w in range(n_scenarios):
        t_amb_level, el_price, gas_price, sol_peak = (
            float(rng.uniform(lo, hi)) for lo, hi in SCENARIO_LEVELS
        )
        occupant = {
            b.id: OccupantProfile(
                _series(0.25 + 0.15 * (hod >= 18), Unit.KILOWATT),
                _series(np.where((hod >= 7) & (hod < 23), 19.0, 17.0)),
            )
            for b in buildings
        }
        economic = EconomicProfile(
            _series(el_price + 0.05 * np.sin(2 * np.pi * hod / 24.0), Unit.EUR_PER_KWH),
            _series(np.full(horizon, gas_price), Unit.EUR_PER_KWH),
            _series(np.full(horizon, 0.02), Unit.EUR_PER_KWH),
        )
        climate = ClimateProfile(
            _series(t_amb_level + 3.0 * np.sin(2 * np.pi * (hod - 9) / 24.0)),
            _series(np.maximum(0.0, sol_peak * np.sin(np.pi * (hod - 6) / 12.0))
                    * ((hod >= 6) & (hod <= 18)), Unit.WATT_PER_M2),
        )
        scenarios.append(Scenario(f"s{w}", 1.0 / n_scenarios, occupant, economic, climate))
    return cfg, scenarios


def data_directory(out_dir: Path, n_buildings: int, seed: int) -> Path:
    """A year-long fixture data directory with order-3 buildings.

    The library's fixture draws each building's RC order from the seed,
    which would change the model size from seed to seed; the catalogue is
    rewritten with order-3 networks so that only the data varies.
    """
    directory = fixtures.generate_fixture(out_dir, n_buildings, seed)
    rng = np.random.default_rng((seed, n_buildings))
    catalogue_path = directory / "rc_catalogue.json"
    catalogue = json.loads(catalogue_path.read_text())
    for bid in catalogue:
        draw = {key: float(rng.uniform(lo, hi)) for key, (lo, hi) in _RC3_RANGES.items()}
        catalogue[bid] = {
            "order": 3,
            "resistances": {k: v for k, v in draw.items() if k.startswith("R_")},
            "capacities": {k: v for k, v in draw.items() if k.startswith("C_")},
            "window_area": float(rng.uniform(1.0, 4.0)),
            "envelope_area": float(rng.uniform(2.0, 8.0)),
        }
    catalogue_path.write_text(json.dumps(catalogue, indent=2, sort_keys=True) + "\n")
    return directory


def derived_seed(seed: int, index: int) -> int:
    """A library RNG seed for operation ``index`` of a run."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])
