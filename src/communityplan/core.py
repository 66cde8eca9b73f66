"""Domain types shared by every other module.

Unit conventions used throughout the package:

* power            kW      (electric and thermal)
* energy           kWh
* temperature      degC    (RC dynamics only use differences, so the
                            offset against Kelvin is immaterial)
* solar irradiance W/m2
* areas            m2
* prices           EUR/kWh (gas is carried in kWh of higher heating
                            value, which keeps boiler efficiency
                            dimensionless)
* thermal resistance K/W, thermal capacity J/K
* time step        hours

All types are plain frozen dataclasses: immutable after construction and
safe to share between concurrent workers.

:data:`CHANNELS` is the one place a scenario channel is defined; channel
names, units, factors and the flat channel view of a scenario derive from it.
:data:`KIND_CATALOGUE` is the one place a device kind's placement, design
unit and required parameters are defined.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable, Mapping, NamedTuple

import numpy as np

__all__ = [
    "Unit",
    "TimeSeries",
    "RCParameters",
    "DeviceKind",
    "DeviceSpec",
    "BuildingConfig",
    "CommunityConfig",
    "OccupantProfile",
    "EconomicProfile",
    "ClimateProfile",
    "Scenario",
    "KindFacts",
    "KIND_CATALOGUE",
    "BUILDING_KINDS",
    "COMMUNITY_KINDS",
    "ROOF_KINDS",
    "HYDROGEN_CHAIN",
    "Channel",
    "CHANNELS",
    "FACTOR_GROUPS",
    "channel_names",
    "check_channel_names",
    "channel_unit",
    "channel_factor",
    "validate_config",
    "align_scenarios",
    "scenario_channels",
    "scenario_from_channels",
    "scenario_length",
    "series_head",
    "distinct_bits",
    "check_keys",
]


class Unit(str, enum.Enum):
    """Physical unit carried by a :class:`TimeSeries`."""

    DEGC = "degC"
    KILOWATT = "kW"
    KILOWATT_HOUR = "kWh"
    EUR_PER_KWH = "EUR/kWh"
    WATT_PER_M2 = "W/m2"


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled series, one value per time step.

    ``start`` anchors the series to the calendar (fixed-offset timestamps
    only, no timezone arithmetic).
    """

    start: datetime
    step_hours: float
    values: np.ndarray
    unit: Unit

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("TimeSeries values must be a non-empty 1-D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("TimeSeries values must all be finite")
        if not self.step_hours > 0:
            raise ValueError("TimeSeries step_hours must be > 0")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "unit", Unit(self.unit))

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (
            self.start == other.start
            and self.step_hours == other.step_hours
            and self.unit == other.unit
            and np.array_equal(self.values, other.values)
        )

    def truncated(self, n: int) -> "TimeSeries":
        """First ``n`` samples as a new series."""
        if n > len(self):
            raise ValueError(f"cannot truncate length {len(self)} to {n}")
        return TimeSeries(self.start, self.step_hours, self.values[:n], self.unit)


# RC state nodes per model order.  Order 1 is a single interior node; each
# further order adds envelope, medium, heater and sensor nodes in that
# sequence, so the heater node exists from order 4 on and the space-heat
# input falls back to the interior node below that.
RC_STATES_BY_ORDER: dict[int, tuple[str, ...]] = {
    1: ("i",),
    2: ("i", "e"),
    3: ("i", "e", "m"),
    4: ("i", "e", "m", "h"),
    5: ("i", "e", "m", "h", "s"),
}

# Couplings required at each order: (resistance key, node the coupling is
# attached to).  The interior-ambient path R_ia exists at every order.
RC_RESISTANCES_BY_ORDER: dict[int, tuple[str, ...]] = {
    1: ("R_ia",),
    2: ("R_ia", "R_ie", "R_ea"),
    3: ("R_ia", "R_ie", "R_ea", "R_im"),
    4: ("R_ia", "R_ie", "R_ea", "R_im", "R_ih"),
    5: ("R_ia", "R_ie", "R_ea", "R_im", "R_ih", "R_is"),
}

RC_CAPACITY_KEY: dict[str, str] = {
    "i": "C_i",
    "e": "C_e",
    "m": "C_m",
    "h": "C_h",
    "s": "C_s",
}


@dataclass(frozen=True)
class RCParameters:
    """Lumped resistance-capacitance thermal network of one building.

    ``order`` picks the state set from :data:`RC_STATES_BY_ORDER`;
    ``resistances``/``capacities`` must carry exactly the keys that order
    requires. ``window_area`` scales solar gains into the interior node,
    ``envelope_area`` into the envelope node (orders >= 2).
    """

    order: int
    resistances: Mapping[str, float]
    capacities: Mapping[str, float]
    window_area: float
    envelope_area: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "resistances", dict(self.resistances))
        object.__setattr__(self, "capacities", dict(self.capacities))

    def states(self) -> tuple[str, ...]:
        return RC_STATES_BY_ORDER[self.order]


class DeviceKind(str, enum.Enum):
    """Technology identifier, community-level variants suffixed _COM."""

    BAT = "BAT"
    TES = "TES"
    BOL = "BOL"
    HP = "HP"
    PV = "PV"
    STC = "STC"
    EL = "EL"
    HYD = "HYD"
    FC = "FC"
    PV_COM = "PV_COM"
    BAT_COM = "BAT_COM"


class KindFacts(NamedTuple):
    """What a device kind is: where it may be installed (``"building"`` or
    ``"community"``), whether its design is an area (m2, named ``A_``
    instead of ``C_``, and capped by the roof on a building), and the
    ``extra`` keys its :class:`DeviceSpec` must carry."""

    placement: str
    area: bool
    extra: tuple[str, ...] = ()


KIND_CATALOGUE = {
    DeviceKind.BAT: KindFacts("building", False),
    DeviceKind.TES: KindFacts("building", False),
    DeviceKind.BOL: KindFacts("building", False, ("eta",)),
    DeviceKind.HP: KindFacts("building", False, ("cop_coeffs", "t_dist")),
    DeviceKind.PV: KindFacts("building", True, ("eta",)),
    DeviceKind.STC: KindFacts("building", True, ("eta", "u_loss", "t_collector")),
    DeviceKind.EL: KindFacts("community", False),
    DeviceKind.HYD: KindFacts("community", False),
    DeviceKind.FC: KindFacts("community", False),
    DeviceKind.PV_COM: KindFacts("community", True, ("eta",)),
    DeviceKind.BAT_COM: KindFacts("community", False),
}
BUILDING_KINDS = frozenset(kind for kind, facts in KIND_CATALOGUE.items()
                           if facts.placement == "building")
COMMUNITY_KINDS = frozenset(KIND_CATALOGUE) - BUILDING_KINDS
# the area kinds that share a building's roof, in catalogue order
ROOF_KINDS = tuple(kind for kind, facts in KIND_CATALOGUE.items()
                   if facts.placement == "building" and facts.area)

# the hydrogen chain's kinds, in the order of its design entries
HYDROGEN_CHAIN = (DeviceKind.EL, DeviceKind.HYD, DeviceKind.FC)


@dataclass(frozen=True)
class DeviceSpec:
    """Techno-economic description of one installable unit.

    ``cap_min``/``cap_max`` bound the design variable (kWh for storage,
    kW for converters, m2 for collectors).  ``size_price`` is the relative
    sizing price in EUR per design unit, ``base_price`` the fixed price of
    existence, both levelized over ``lifetime_years`` in the objective.
    ``sigma`` is the per-step state retention of storage (1 = lossless),
    ``gamma_ch``/``gamma_dch`` the power-to-capacity rate coefficients in
    1/h.  Kind-specific parameters live in ``extra``; the keys each kind
    requires are those of its :data:`KIND_CATALOGUE` row:

    * ``eta``: conversion efficiency (BOL), panel efficiency (PV, PV_COM),
      optical efficiency (STC)
    * ``cop_coeffs`` [a1, a2, a3, a4], ``t_dist`` distribution degC (HP)
    * ``u_loss`` W/m2K, ``t_collector`` degC (STC)
    * storage kinds: optional ``state_min`` kWh floor of the stored energy
    """

    kind: DeviceKind
    cap_min: float
    cap_max: float
    eta_ch: float = 1.0
    eta_dch: float = 1.0
    sigma: float = 1.0
    gamma_ch: float = 1.0
    gamma_dch: float = 1.0
    size_price: float = 0.0
    base_price: float = 0.0
    lifetime_years: float = 20.0
    extra: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", DeviceKind(self.kind))
        object.__setattr__(self, "extra", dict(self.extra))

    def state_min(self) -> float:
        return float(self.extra.get("state_min", 0.0))


@dataclass(frozen=True)
class BuildingConfig:
    """One building: thermal model, roof budget and installable devices."""

    id: int
    rc: RCParameters
    roof_area: float
    comfort_buffer: float = 0.5
    devices: tuple[DeviceSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "devices", tuple(self.devices))


@dataclass(frozen=True)
class CommunityConfig:
    """Building roster, shared devices, grid limits and horizon settings."""

    buildings: tuple[BuildingConfig, ...]
    community_devices: tuple[DeviceSpec, ...] = ()
    lv_limit: float = 17.25
    mv_limit: float = 400.0
    slack_price: float = 1e5
    discount_rate: float = 0.05
    horizon_steps: int = 8760
    step_hours: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "buildings", tuple(self.buildings))
        object.__setattr__(self, "community_devices", tuple(self.community_devices))


@dataclass(frozen=True)
class OccupantProfile:
    """Fixed base electric load and thermostat set points of one building."""

    e_base: TimeSeries
    t_set: TimeSeries


@dataclass(frozen=True)
class EconomicProfile:
    p_el: TimeSeries
    p_gas: TimeSeries
    p_co2: TimeSeries


@dataclass(frozen=True)
class ClimateProfile:
    t_amb: TimeSeries
    i_sol: TimeSeries


@dataclass(frozen=True)
class Scenario:
    """One synthetic year with its realization probability."""

    id: str
    probability: float
    occupant: Mapping[int, OccupantProfile]
    economic: EconomicProfile
    climate: ClimateProfile

    def __post_init__(self) -> None:
        object.__setattr__(self, "occupant", dict(self.occupant))


class Channel(NamedTuple):
    """One scenario channel: name stem, unit, uncertainty factor, and the
    :class:`Scenario` group and field that hold it.  The ``occupant`` group
    has one profile per building: its channels are ``<stem>_b<building id>``."""

    stem: str
    unit: Unit
    factor: str
    group: str
    field: str


# every scenario channel, in the order of scenario_channels: this order
# fixes feature-matrix columns, bundle file order and history reads
CHANNELS = (
    Channel("T_amb", Unit.DEGC, "clim", "climate", "t_amb"),
    Channel("I_sol", Unit.WATT_PER_M2, "clim", "climate", "i_sol"),
    Channel("p_el", Unit.EUR_PER_KWH, "eco", "economic", "p_el"),
    Channel("p_gas", Unit.EUR_PER_KWH, "eco", "economic", "p_gas"),
    Channel("p_co2", Unit.EUR_PER_KWH, "eco", "economic", "p_co2"),
    Channel("E_base", Unit.KILOWATT, "occ", "occupant", "e_base"),
    Channel("T_set", Unit.DEGC, "occ", "occupant", "t_set"),
)
_BY_STEM = {channel.stem: channel for channel in CHANNELS}
_SHARED = [channel for channel in CHANNELS if channel.group != "occupant"]
_PER_BUILDING = [channel for channel in CHANNELS if channel.group == "occupant"]

# the Scenario group each uncertainty factor owns
FACTOR_GROUPS = {channel.factor: channel.group for channel in CHANNELS}


def _channel_name(stem: str, building_id: int) -> str:
    """Name of a building's own channel."""
    return f"{stem}_b{building_id}"


def _split_channel_name(name: str) -> tuple[Channel, int | None]:
    """The channel a name refers to and its building id (``None`` for a
    shared channel); ``ValueError`` when the name is no channel, which
    includes a building id not written as :func:`_channel_name` writes it."""
    stem, _, building = name.rpartition("_b")
    if (_BY_STEM.get(stem) in _PER_BUILDING and building.removeprefix("-").isdecimal()
            and _channel_name(stem, int(building)) == name):
        return _BY_STEM[stem], int(building)
    if _BY_STEM.get(name) in _SHARED:
        return _BY_STEM[name], None
    raise ValueError(f"{name!r} is no scenario channel")


def channel_names(building_ids: Iterable[int]) -> list[str]:
    """Every channel of a scenario with these buildings: the shared
    channels, then the own channels of each building in the given order."""
    return [channel.stem for channel in _SHARED] + [
        _channel_name(channel.stem, bid) for bid in building_ids for channel in _PER_BUILDING
    ]


def check_channel_names(names: Iterable[str]) -> tuple[list[str], list[str]]:
    """Missing and unknown names among one scenario's channel names.

    Missing are the shared channels and the own channels of every
    building a name refers to; unknown are names that are no channel.
    """
    names = set(names)
    buildings: set[int | None] = set()
    unknown = []
    for name in sorted(names):
        try:
            buildings.add(_split_channel_name(name)[1])
        except ValueError:
            unknown.append(name)
    buildings.discard(None)
    missing = [name for name in channel_names(sorted(buildings)) if name not in names]
    return missing, unknown


def channel_unit(name: str) -> Unit:
    return _split_channel_name(name)[0].unit


def channel_factor(name: str) -> str:
    return _split_channel_name(name)[0].factor


def scenario_channels(scenario: Scenario) -> dict[str, TimeSeries]:
    """Flat channel-name -> series view in :data:`CHANNELS` order, the
    shared channels first, then each building's channels by ascending
    building id."""
    out = {
        channel.stem: getattr(getattr(scenario, channel.group), channel.field)
        for channel in _SHARED
    }
    for bid in sorted(scenario.occupant):
        for channel in _PER_BUILDING:
            out[_channel_name(channel.stem, bid)] = getattr(scenario.occupant[bid], channel.field)
    return out


def scenario_from_channels(sid: str, probability: float,
                           channels: Mapping[str, TimeSeries]) -> Scenario:
    """Inverse of :func:`scenario_channels`: the scenario holding these
    channels, which must be complete."""
    groups: dict[str, dict[int | None, dict[str, TimeSeries]]] = {}
    for name, series in channels.items():
        channel, bid = _split_channel_name(name)
        groups.setdefault(channel.group, {}).setdefault(bid, {})[channel.field] = series
    occupant = {bid: OccupantProfile(**fields)
                for bid, fields in groups.get("occupant", {}).items()}
    return Scenario(sid, probability, occupant, EconomicProfile(**groups["economic"][None]),
                    ClimateProfile(**groups["climate"][None]))


def scenario_length(scenario: Scenario) -> int:
    return len(scenario.climate.t_amb)


def series_head(series, horizon: int, name: str) -> np.ndarray:
    """The first ``horizon`` values of a series or array; ``name`` labels
    the error when it is shorter."""
    values = series.values if isinstance(series, TimeSeries) else np.asarray(series, float)
    if values.size < horizon:
        raise ValueError(f"{name}: series of length {values.size} cannot cover horizon {horizon}")
    return values[:horizon]


def check_keys(data: Mapping, allowed: Iterable[str], required: Iterable[str],
               where: str) -> None:
    """ValueError naming ``where`` and the keys of ``data`` that are not
    ``allowed``, or else the ``required`` keys that ``data`` lacks."""
    allowed = set(allowed)
    unknown = [key for key in data if key not in allowed]
    if unknown:
        raise ValueError(f"{where}: unknown key {', '.join(map(repr, unknown))}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"{where}: missing required key {', '.join(map(repr, missing))}")


def distinct_bits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct float64 bit patterns of ``values`` and the index of each
    element into them, for text writers that format each distinct value
    once.  Bit patterns, not values: ``-0.0`` and ``0.0`` stay apart, since
    ``repr`` prints them differently.  Sorts the ``uint64`` view, which is
    faster than ``np.unique``'s float sort.  The index is ``int32`` when
    every position fits, which halves what a writer keeps per element."""
    bits = np.ascontiguousarray(values, np.float64).ravel().view(np.uint64)
    order = np.argsort(bits, kind="stable")
    ordered = bits[order]
    first = np.empty(len(bits), bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(len(bits), np.int32 if len(bits) < 2**31 else np.intp)
    position = np.cumsum(first, dtype=inverse.dtype)
    position -= 1
    inverse[order] = position
    return ordered[first].view(np.float64), inverse


def _validate_device(spec: DeviceSpec, path: str, violations: list[str]) -> None:
    if not 0 <= spec.sigma <= 1:
        violations.append(f"{path}.sigma: requires 0 <= sigma <= 1")
    for name in ("eta_ch", "eta_dch"):
        eta = getattr(spec, name)
        if not 0 < eta <= 1:
            violations.append(f"{path}.{name}: requires 0 < eta_* <= 1")
    if not spec.cap_min <= spec.cap_max:
        violations.append(f"{path}: requires cap_min <= cap_max")
    if spec.cap_min < 0:
        violations.append(f"{path}.cap_min: requires cap_min >= 0")
    if not spec.lifetime_years >= 1:
        violations.append(f"{path}.lifetime_years: requires tau >= 1")
    if spec.gamma_ch < 0 or spec.gamma_dch < 0:
        violations.append(f"{path}: requires gamma_* >= 0")
    for key in KIND_CATALOGUE[spec.kind].extra:
        if key not in spec.extra:
            violations.append(f"{path}.extra: missing required key '{key}'")
    if spec.kind == DeviceKind.HP and "cop_coeffs" in spec.extra:
        coeffs = spec.extra["cop_coeffs"]
        if not (isinstance(coeffs, (list, tuple)) and len(coeffs) == 4):
            violations.append(f"{path}.extra.cop_coeffs: requires 4 coefficients")


def _validate_devices(specs: Iterable[DeviceSpec], placement: str, path: str,
                      violations: list[str]) -> None:
    """Each spec, its placement (``"building"`` or ``"community"``), one
    spec per kind, and a hydrogen chain that is whole or absent."""
    kinds: set[DeviceKind] = set()
    for didx, spec in enumerate(specs):
        where = f"{path}[{didx}]"
        _validate_device(spec, where, violations)
        if KIND_CATALOGUE[spec.kind].placement != placement:
            violations.append(f"{where}: {spec.kind.value} is not a {placement} device")
        elif spec.kind in kinds:
            violations.append(f"{where}: {spec.kind.value} listed twice")
        kinds.add(spec.kind)
    missing = [kind.value for kind in HYDROGEN_CHAIN if kind not in kinds]
    chain_here = all(KIND_CATALOGUE[kind].placement == placement for kind in HYDROGEN_CHAIN)
    if chain_here and 0 < len(missing) < len(HYDROGEN_CHAIN):
        violations.append(f"{path}: hydrogen chain EL, HYD, FC lacks {', '.join(missing)}")


def _validate_rc(rc: RCParameters, path: str, violations: list[str]) -> None:
    if rc.order not in RC_STATES_BY_ORDER:
        violations.append(f"{path}.order: requires order in 1..5")
        return
    required_r = set(RC_RESISTANCES_BY_ORDER[rc.order])
    required_c = {RC_CAPACITY_KEY[s] for s in rc.states()}
    have_r, have_c = set(rc.resistances), set(rc.capacities)
    if have_r != required_r:
        violations.append(
            f"{path}.resistances: order {rc.order} requires keys "
            f"{sorted(required_r)}, got {sorted(have_r)}"
        )
    if have_c != required_c:
        violations.append(
            f"{path}.capacities: order {rc.order} requires keys "
            f"{sorted(required_c)}, got {sorted(have_c)}"
        )
    for key, value in {**rc.resistances, **rc.capacities}.items():
        if not (value > 0 and math.isfinite(value)):
            violations.append(f"{path}.{key}: requires strictly positive value")
    if rc.window_area < 0:
        violations.append(f"{path}.window_area: requires >= 0")
    if rc.envelope_area < 0:
        violations.append(f"{path}.envelope_area: requires >= 0")


def validate_config(cfg: CommunityConfig) -> list[str]:
    """All declared invariants of the configuration tree.

    Returns an empty list iff the configuration is sound; every entry
    names the offending path and the violated rule.  Pure diagnostic, no
    exceptions.
    """
    violations: list[str] = []
    if not cfg.lv_limit > 0:
        violations.append("lv_limit: requires lv_limit > 0")
    if not cfg.mv_limit > 0:
        violations.append("mv_limit: requires mv_limit > 0")
    if not 0 < cfg.discount_rate < 1:
        violations.append("discount_rate: requires 0 < discount_rate < 1")
    if not cfg.step_hours > 0:
        violations.append("step_hours: requires step_hours > 0")
    if not cfg.horizon_steps >= 1:
        violations.append("horizon_steps: requires horizon_steps >= 1")
    if cfg.slack_price < 0:
        violations.append("slack_price: requires slack_price >= 0")
    if not cfg.buildings:
        violations.append("buildings: requires at least one building")
    seen_ids: set[int] = set()
    for idx, bld in enumerate(cfg.buildings):
        path = f"buildings[{idx}]"
        if bld.id < 0:  # model names carry the id, and LP text reads "-" as an operator
            violations.append(f"{path}.id: requires id >= 0")
        if bld.id in seen_ids:
            violations.append(f"{path}.id: duplicate building id {bld.id}")
        seen_ids.add(bld.id)
        if bld.roof_area < 0:
            violations.append(f"{path}.roof_area: requires roof_area >= 0")
        if bld.comfort_buffer < 0:
            violations.append(f"{path}.comfort_buffer: requires comfort_buffer >= 0")
        _validate_rc(bld.rc, f"{path}.rc", violations)
        _validate_devices(bld.devices, "building", f"{path}.devices", violations)
    _validate_devices(cfg.community_devices, "community", "community_devices", violations)
    return violations


def align_scenarios(scenarios: list[Scenario]) -> list[Scenario]:
    """Truncate all scenarios to the common length and renormalize pi.

    Scenario probabilities are rescaled so they sum to one (to 1e-12).
    Raises ``ValueError`` on an empty input, mismatched step sizes, a
    negative or non-finite probability (naming the scenario), or an
    all-zero probability mass.
    """
    if not scenarios:
        raise ValueError("align_scenarios requires at least one scenario")
    channels = [scenario_channels(s) for s in scenarios]
    steps = {series.step_hours for named in channels for series in named.values()}
    if len(steps) != 1:
        raise ValueError(f"incompatible scenario step sizes: {sorted(steps)}")
    common = min(len(series) for named in channels for series in named.values())
    for s in scenarios:
        if not (math.isfinite(s.probability) and s.probability >= 0):
            raise ValueError(
                f"scenario {s.id!r}: probability must be finite and >= 0, got {s.probability}"
            )
    total = sum(s.probability for s in scenarios)
    if total <= 0:
        raise ValueError("scenario probabilities sum to zero")
    return [
        scenario_from_channels(
            s.id,
            s.probability / total,
            {name: series.truncated(common) for name, series in named.items()},
        )
        for s, named in zip(scenarios, channels)
    ]
