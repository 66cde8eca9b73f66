"""File formats: series CSVs, configuration JSON, scenario bundles,
plan results, reports and the reproducibility manifest.

Conventions: CSVs carry a ``timestamp,value`` header with ISO-8601
timestamps at strictly increasing uniform spacing; numbers are written as
the shortest decimal that round-trips; JSON is emitted sorted and
indented so identical runs produce identical bytes.  Every randomness
source and input hash lands in the :class:`RunManifest`.
"""

from __future__ import annotations

import collections.abc
import csv
import functools
import hashlib
import json
import operator
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import __version__ as _tool_version
from .core import (
    BuildingConfig,
    CommunityConfig,
    DeviceSpec,
    RCParameters,
    Scenario,
    TimeSeries,
    Unit,
    channel_names,
    channel_unit,
    check_channel_names,
    check_keys,
    distinct_bits,
    scenario_channels,
    scenario_from_channels,
    validate_config,
)
from .planner import PlanResult, SensitivityReport

__all__ = [
    "read_series_csv",
    "write_series_csv",
    "load_config_tree",
    "ingest_community",
    "IngestResult",
    "save_scenarios",
    "load_scenarios",
    "save_plan_result",
    "load_plan_result",
    "emit_reports",
    "save_sensitivity_report",
    "RunManifest",
    "make_run_manifest",
    "verify_run_manifest",
    "sha256_of",
]


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_json(path: Path | str, data) -> Path:
    """Write ``data`` as JSON with sorted keys, two-space indents and a
    final line end, so equal data gives equal bytes."""
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


# -- records as JSON -------------------------------------------------------------
#
# A record's dataclass is the layout of its JSON object: one key per field,
# named as the field.  Mapping keys are written as text (building ids as
# "2", "10", design keys as "entity:device") and read back as the mapping's
# key type.  A record with its own ``as_dict``/``from_dict`` keeps its layout.


@functools.cache
def _field_types(cls: type) -> dict[str, object]:
    """Field name -> resolved type of each field of the dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _to_json(value):
    """JSON data of ``value``: a record as the object of its fields, a
    mapping with text keys, anything else as it is (tuples are arrays)."""
    if hasattr(value, "as_dict"):
        return value.as_dict()
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Mapping):
        return {
            _design_key(*key) if isinstance(key, tuple) else str(key): _to_json(item)
            for key, item in value.items()
        }
    return value


def _from_json(hint, value, where: str):
    """``value``, read from JSON, as type ``hint``: the inverse of
    :func:`_to_json`.  Numbers and mapping keys are cast to their types,
    arrays become tuples; records are checked by :func:`_fields_from_json`."""
    if hint in (int, float):
        return hint(value)
    if hasattr(hint, "from_dict"):
        return hint.from_dict(value)
    if is_dataclass(hint):
        return hint(**_fields_from_json(hint, value, where))
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        return tuple(value)
    if origin is collections.abc.Mapping:
        key_type, item_type = args
        return {
            (tuple(key.split(":", 1)) if typing.get_origin(key_type) is tuple
             else key_type(key)): _from_json(item_type, item, f"{where}: {key}")
            for key, item in value.items()
        }
    return value


def _fields_from_json(
    cls: type,
    data: Mapping,
    where: str,
    optional: Iterable[str] | None = None,
    elsewhere: Iterable[str] = (),
) -> dict:
    """The fields of the dataclass ``cls`` that ``data`` holds, each read
    as its field's type (:func:`_from_json`).

    Every key of ``data`` must name a field that is not read ``elsewhere``
    (another file); every other field not ``optional`` (by default, each
    field with a default) must be present.  Otherwise ``ValueError``
    names ``where`` and the keys.
    """
    types = _field_types(cls)
    if optional is None:
        optional = [f.name for f in fields(cls)
                    if f.default is not MISSING or f.default_factory is not MISSING]
    read = [name for name in types if name not in elsewhere]
    check_keys(data, read, [name for name in read if name not in optional], where)
    return {key: _from_json(types[key], value, f"{where}: {key}")
            for key, value in data.items()}


@functools.lru_cache(maxsize=4)
def _timestamp_fields(
    start: datetime, tzinfo, fold: int, step_hours: float, length: int
) -> tuple[str, ...]:
    """``"\\r\\n<isoformat>,"`` of each sample time, shared by every series
    with this anchor.  ``tzinfo`` and ``fold`` are part of the key because
    equal instants in different zones print differently."""
    step = timedelta(hours=step_hours)
    return tuple([f"\r\n{(start + i * step).isoformat()}," for i in range(length)])


def _value_texts(values: np.ndarray) -> list[str]:
    """``repr`` of every element, formatting each distinct bit pattern once."""
    unique, inverse = distinct_bits(values)
    return np.array(list(map(repr, unique.tolist())), dtype=object)[inverse].tolist()


def _series_text(series: TimeSeries, texts: Sequence[str]) -> str:
    """The file text of ``series`` whose values read ``texts``: the
    ``timestamp,value`` header, one row per sample and ``\\r\\n`` after
    every line."""
    start = series.start
    stamps = _timestamp_fields(
        start, start.tzinfo, start.fold, series.step_hours, len(series)
    )
    parts = [""] * (2 * len(stamps) + 2)
    parts[0], parts[-1] = "timestamp,value", "\r\n"
    parts[1:-1:2], parts[2:-1:2] = stamps, texts
    return "".join(parts)


def write_series_csv(path: Path | str, series: TimeSeries) -> None:
    """Write ``timestamp,value`` rows with ``\\r\\n`` line ends: ISO-8601
    timestamps and the shortest decimal (``repr``) of each value, each
    distinct value formatted once, in one ``write``."""
    Path(path).write_text(_series_text(series, _value_texts(series.values)), newline="")


# Lines split at once while a series file is read: bounds the strings held
# at once, which the allocator keeps after a long file is read.
_READ_BLOCK = 1024
_COMMA, _RETURN, _LINE_FEED = b",\r\n"


def _blocks(text: str) -> list[str]:
    """``text`` cut after every ``_READ_BLOCK``-th line feed, so a
    ``\\r\\n`` is never cut in two.  The cuts come from one byte scan,
    whose offsets are the text's own only when it is ASCII; other text
    is one block."""
    if not text.isascii():
        return [text] if text else []
    feeds = np.flatnonzero(np.frombuffer(text.encode(), np.uint8) == _LINE_FEED)
    cuts = [0, *(feeds[_READ_BLOCK - 1 :: _READ_BLOCK] + 1).tolist(), len(text)]
    return [text[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:]) if lo < hi]


def _one_pair_per_line(body: str, end: str) -> bool:
    """Whether every line of ``body``, its lines ended by ``end`` and the
    last one not, holds exactly one comma, and no other line end occurs.

    The commas, carriage returns and line feeds of ``body`` must run
    comma, ``end``, comma, ..., comma, and each ``end`` must be in one
    piece.  A byte scan: neither byte occurs inside a multi-byte UTF-8
    character."""
    raw = np.frombuffer(body.encode(), np.uint8)
    at = np.flatnonzero((raw == _COMMA) | (raw == _RETURN) | (raw == _LINE_FEED))
    marks, cycle = raw[at], f",{end}".encode()
    return bool(
        len(marks) % len(cycle) == 1
        and all((marks[i :: len(cycle)] == byte).all() for i, byte in enumerate(cycle))
        # each carriage return of a "\r\n" end is the byte before its line feed
        and (len(end) == 1 or (raw[at[1::3] + 1] == _LINE_FEED).all())
    )


def _split_rows(text: str) -> tuple[list[str], list[str]]:
    """Timestamp and value cells of lines that each read ``timestamp,value``,
    with any line ends; ``ValueError`` for any other shape.  Text whose
    line ends are all ``\\r\\n`` (as written) is split on them directly;
    other text has its ``\\r\\n`` and lone ``\\r`` turned into ``\\n`` first."""
    end, body = "\r\n", text.removesuffix("\r\n")
    if not _one_pair_per_line(body, end):
        end = "\n"
        body = text.replace("\r\n", end).replace("\r", end).removesuffix(end)
        if not _one_pair_per_line(body, end):
            raise ValueError("not one timestamp,value pair per line")
    cells = body.replace(end, ",").split(",")
    return cells[0::2], cells[1::2]


@functools.lru_cache(maxsize=16)
def _stamp_text(
    first: datetime, tzinfo, fold: int, step: timedelta, count: int
) -> str:
    """``isoformat()`` of ``count`` sample times from ``first`` at ``step``,
    joined by ``"\\n"``: shared by every file whose block of stamps starts
    there (the 9 blocks of an 8760 h series fit).  One string per block
    keeps the cache small.  Keyed like :func:`_timestamp_fields`."""
    return "\n".join([(first + i * step).isoformat() for i in range(count)])


def _continues(stamps: list[str], last: datetime, step: timedelta) -> bool:
    """Whether ``stamps`` read exactly as ``isoformat()`` of the times
    ``last + step``, ``last + 2 * step``, ...: then they are those times,
    unparsed.  No stamp holds a line end, so equal joined text means
    equal stamps."""
    try:
        first = last + step
        # the first stamp alone rules out other spellings before any are made
        return stamps[0] == first.isoformat() and "\n".join(stamps) == _stamp_text(
            first, first.tzinfo, first.fold, step, len(stamps))
    except OverflowError:
        return False


def _read_rows(handle) -> tuple[datetime, set[timedelta], np.ndarray]:
    """The fast path of :func:`read_series_csv`: the first sample time, the
    set of spacings between sample times, and the values.  The file is
    read in one pass and each block of lines (:func:`_blocks`) is split in
    one call; raises ``ValueError`` at any row that does not read
    ``timestamp,value``.  The first two stamps are parsed and give the
    step; the stamps after them in a block that continue the series at
    that step in canonical spelling are checked by comparison, any others
    are parsed."""
    start = last = step = None
    spacings: set[timedelta] = set()
    values = [np.empty(0)]
    for text in _blocks(handle.read()):
        stamps, block = _split_rows(text)
        values.append(np.fromiter(map(float, block), float, len(block)))
        if step is None:
            head = 2 if last is None else 1  # stamps still needed for the step
            times = [] if last is None else [last]
            times += map(datetime.fromisoformat, stamps[:head])
            stamps = stamps[head:]
            start = times[0] if start is None else start
            if len(times) > 1:
                step = times[1] - times[0]
                spacings.add(step)
            last = times[-1]
            if not stamps:
                continue
        if _continues(stamps, last, step):
            last += len(stamps) * step  # ``spacings`` already holds ``step``
            continue
        times = [last, *map(datetime.fromisoformat, stamps)]
        spacings.update(map(operator.sub, times[1:], times[:-1]))
        last = times[-1]
    return start, spacings, np.concatenate(values)


def _parse_rows(
    path: Path, rows: Iterable[list[str]]
) -> tuple[datetime | None, set[timedelta], list[float]]:
    """Row by row, skipping blank lines; a bad row raises a ``ValueError``
    naming its line."""
    timestamps: list[datetime] = []
    values: list[float] = []
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        try:
            timestamps.append(datetime.fromisoformat(row[0]))
            values.append(float(row[1]))
        except (ValueError, IndexError) as exc:
            raise ValueError(f"{path}:{lineno}: bad row {row}: {exc}") from exc
    spacings = set(map(operator.sub, timestamps[1:], timestamps[:-1]))
    return (timestamps[0] if timestamps else None), spacings, values


def read_series_csv(path: Path | str, unit: Unit) -> tuple[TimeSeries, list[str]]:
    """Parse one series file; returns the series plus non-fatal warnings.

    Rows that each read exactly ``timestamp,value`` take a fast path:
    the rows after the header are read in one pass, each block of
    ``_READ_BLOCK`` lines is split in one call, on its ``\\r\\n`` line ends
    directly when they are all ``\\r\\n``, and the values are parsed with
    ``float``.  The first
    two stamps are parsed and give the start and step; stamps that equal
    the canonical ``isoformat()`` of the times that continue the series
    at that step are checked by comparison, and any others are parsed
    with ``datetime.fromisoformat``.  Any other file (quoted or extra
    cells, blank lines, a bad row) is read again from the top with
    ``csv.reader``, row by row, which skips blank lines, ignores extra
    cells and names a bad row's line.  Both give the same series.
    """
    path = Path(path)
    warnings: list[str] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["timestamp", "value"]:
            raise ValueError(f"{path}:1: expected header 'timestamp,value', got {header}")
        if len(header) > 2:
            warnings.append(f"{path}:1: ignoring extra columns {header[2:]}")
        try:
            start, spacings, values = _read_rows(handle)
        except ValueError:
            handle.seek(0)
            rescan = csv.reader(handle)
            next(rescan)
            start, spacings, values = _parse_rows(path, rescan)
    if len(values) < 2:
        raise ValueError(f"{path}: needs at least two samples")
    if len(spacings) != 1:
        raise ValueError(f"{path}: timestamps are not uniformly spaced")
    step_s = spacings.pop().total_seconds()
    if step_s <= 0:
        raise ValueError(f"{path}: timestamps must be strictly increasing")
    series = TimeSeries(start, step_s / 3600.0, np.asarray(values), unit)
    return series, warnings


# -- configuration ------------------------------------------------------------


def load_config_tree(directory: Path | str) -> CommunityConfig:
    """config.json plus the RC and device catalogues of a data directory.

    Each building entry of ``config.json`` holds the fields of
    :class:`BuildingConfig` but ``rc``, which is the entry of
    ``rc_catalogue.json`` under the building's id; each catalogue entry
    holds the fields of :class:`RCParameters` or :class:`DeviceSpec`.
    Fields with a default may be left out and take that default.
    ``config.json`` holds the fields of :class:`CommunityConfig`, all of
    them required but ``community_devices``; devices are named by their
    catalogue key.  A key that is no field, or a missing required one,
    raises ``ValueError`` naming the file, the entry and the key.
    """
    directory = Path(directory)
    config_path = directory / "config.json"
    if not config_path.exists():
        raise ValueError(f"{config_path}: missing configuration file")
    rc_path = directory / "rc_catalogue.json"
    device_path = directory / "device_catalogue.json"
    raw = json.loads(config_path.read_text())
    rc_catalogue = json.loads(rc_path.read_text())
    devices = {
        name: DeviceSpec(
            **_fields_from_json(DeviceSpec, entry, f"{device_path}: entry '{name}'")
        )
        for name, entry in json.loads(device_path.read_text()).items()
    }

    def _resolve(names: Iterable[str], where: str) -> tuple[DeviceSpec, ...]:
        out = []
        for name in names:
            if name not in devices:
                raise ValueError(f"{where}: unknown device '{name}' (not in catalogue)")
            out.append(devices[name])
        return tuple(out)

    values = _fields_from_json(
        CommunityConfig, raw, str(config_path), optional=("community_devices",)
    )
    buildings = []
    for pos, entry in enumerate(values["buildings"]):
        building = _fields_from_json(
            BuildingConfig, entry, f"{config_path}: buildings[{pos}]", elsewhere=("rc",)
        )
        bid = building["id"]
        if str(bid) not in rc_catalogue:
            raise ValueError(f"{rc_path}: missing building id {bid}")
        building["rc"] = RCParameters(**_fields_from_json(
            RCParameters, rc_catalogue[str(bid)], f"{rc_path}: entry '{bid}'"
        ))
        if "devices" in building:
            building["devices"] = _resolve(building["devices"], f"buildings[{bid}]")
        buildings.append(BuildingConfig(**building))
    values["buildings"] = buildings
    if "community_devices" in values:
        values["community_devices"] = _resolve(
            values["community_devices"], "community_devices"
        )
    return CommunityConfig(**values)


@dataclass(frozen=True)
class IngestResult:
    config: CommunityConfig
    history: Scenario
    warnings: tuple[str, ...]


def ingest_community(directory: Path | str) -> IngestResult:
    """Parse a full data directory and validate the configuration.

    Expects ``config.json``, ``rc_catalogue.json``,
    ``device_catalogue.json`` and an ``history/`` folder of per-channel
    CSVs (shared climate and price channels plus per-building base load
    and set point files).
    """
    directory = Path(directory)
    config = load_config_tree(directory)
    violations = validate_config(config)
    if violations:
        raise ValueError(
            f"{directory / 'config.json'}: invalid configuration:\n"
            + "\n".join(violations)
        )
    history_dir = directory / "history"
    warnings: list[str] = []
    channels: dict[str, TimeSeries] = {}
    names = channel_names(building.id for building in config.buildings)
    for name in names:
        path = history_dir / f"{name}.csv"
        if not path.exists():
            raise ValueError(f"{path}: missing history file")
        series, warns = read_series_csv(path, channel_unit(name))
        warnings.extend(warns)
        first = channels.get(names[0], series)
        if (series.start, series.step_hours) != (first.start, first.step_hours):
            raise ValueError(f"{path}: series not aligned with {names[0]}.csv")
        channels[name] = series
    length = min(len(series) for series in channels.values())
    history = scenario_from_channels(
        "history", 1.0, {name: series.truncated(length) for name, series in channels.items()}
    )
    return IngestResult(config=config, history=history, warnings=tuple(warnings))


# -- scenario bundles ----------------------------------------------------------


@dataclass(frozen=True)
class _BundleEntry:
    """One scenario of a bundle manifest: its id, probability and folder,
    and, when the bundle records them, the exact probability as
    ``"numerator/denominator"`` and the bootstrap's source days."""

    id: str
    probability: float
    dir: str
    probability_fraction: str | None = None
    source_days: Sequence[int] | None = None


@dataclass(frozen=True)
class _BundleManifest:
    """The top level of a bundle's ``manifest.json``: the bundle format,
    the version of the tool that wrote it, the bootstrap seed (None when
    not given) and, per scenario, the JSON object of its
    :class:`_BundleEntry`."""

    format: str
    tool_version: str
    rng_seed: int | None
    scenarios: tuple[Mapping[str, object], ...]


def save_scenarios(
    directory: Path | str,
    scenarios: Sequence[Scenario],
    rng_seed: int | None = None,
    source_days: Sequence[Sequence[int]] | None = None,
    probabilities_exact: Sequence[Fraction] | None = None,
) -> Path:
    """Persist a scenario set as per-scenario CSV folders plus manifest.

    Each file holds the bytes :func:`write_series_csv` writes for its
    series, in one ``write``.  The scenarios of a bundle are draws from
    one history, so their values repeat across scenarios: each channel's
    distinct values are formatted once over the whole bundle, and only
    one channel's texts are held at a time.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    folders = [directory / f"s{pos:03d}" for pos in range(len(scenarios))]
    flats = [scenario_channels(scenario) for scenario in scenarios]
    for sub in folders:
        sub.mkdir(exist_ok=True)
    for name in dict.fromkeys(name for flat in flats for name in flat):
        held = [(sub, flat[name]) for sub, flat in zip(folders, flats) if name in flat]
        texts = _value_texts(np.concatenate([series.values for _, series in held]))
        at = 0
        for sub, series in held:
            text = _series_text(series, texts[at : at + len(series)])
            (sub / f"{name}.csv").write_text(text, newline="")
            at += len(series)
    entries = []
    for pos, (scenario, sub) in enumerate(zip(scenarios, folders)):
        frac = None if probabilities_exact is None else probabilities_exact[pos]
        entry = _BundleEntry(
            scenario.id, scenario.probability, sub.name,
            None if frac is None else f"{frac.numerator}/{frac.denominator}",
            None if source_days is None else list(source_days[pos]),
        )
        # what the bundle does not record is left out
        entries.append({key: value for key, value in _to_json(entry).items()
                        if value is not None})
    manifest = _BundleManifest(
        "communityplan-scenarios-v1", _tool_version, rng_seed, tuple(entries)
    )
    return _write_json(directory / "manifest.json", _to_json(manifest))


def load_scenarios(directory: Path | str) -> tuple[list[Scenario], dict]:
    """Read a bundle written by :func:`save_scenarios`; returns the
    scenarios and the manifest as read.  The manifest holds ``format``,
    ``tool_version``, ``rng_seed`` and ``scenarios``; each entry of
    ``scenarios`` holds the fields of a bundle entry (``id``,
    ``probability`` and ``dir`` required).  A key that is no field, or a
    missing required one, raises ``ValueError`` naming the manifest, the
    entry if any, and the key.  A scenario folder must
    hold every channel file of its scenario and no other CSV, all with
    one start, step and length."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise ValueError(f"{manifest_path}: missing scenario manifest")
    manifest = json.loads(manifest_path.read_text())
    bundle = _BundleManifest(**_fields_from_json(_BundleManifest, manifest, str(manifest_path)))
    scenarios = []
    for pos, raw in enumerate(bundle.scenarios):
        entry = _BundleEntry(**_fields_from_json(
            _BundleEntry, raw, f"{manifest_path}: scenarios[{pos}]"
        ))
        sub = directory / entry.dir
        channels: dict[str, TimeSeries] = {}
        paths = sorted(sub.glob("*.csv"))
        missing, unknown = check_channel_names(path.stem for path in paths)
        problems = [
            f"{kind} channel files {', '.join(f'{name}.csv' for name in names)}"
            for kind, names in (("missing", missing), ("unknown", unknown))
            if names
        ]
        if problems:
            raise ValueError(f"{sub}: {'; '.join(problems)}")
        anchor = None
        for path in paths:
            series, _ = read_series_csv(path, channel_unit(path.stem))
            key = (series.start, series.step_hours, len(series))
            if anchor is None:
                anchor, anchor_name = key, path.name
            elif key != anchor:
                raise ValueError(f"{path}: start, step or length differs from {anchor_name}")
            channels[path.stem] = series
        scenarios.append(scenario_from_channels(entry.id, entry.probability, channels))
    return scenarios, manifest


# -- plan results and reports --------------------------------------------------


def _design_key(entity: str, device: str) -> str:
    return f"{entity}:{device}"


# wall-clock measurements are the one non-deterministic part of a solve;
# serialized results must be byte-identical across identical runs
_VOLATILE_META = ("wall_time_s",)


def plan_result_to_dict(plan: PlanResult) -> dict:
    """JSON data of a plan: an object per record with one key per field
    (building ids as text, design keys as ``"entity:device"``), the
    breakdown under its ``O_*`` names, and ``solve_meta`` without its
    wall-clock keys."""
    meta = {k: v for k, v in plan.solve_meta.items() if k not in _VOLATILE_META}
    return _to_json(replace(plan, solve_meta=meta))


def plan_result_from_dict(data: Mapping) -> PlanResult:
    """The plan of :func:`plan_result_to_dict` data."""
    return _from_json(PlanResult, data, "plan result")


def save_plan_result(path: Path | str, plan: PlanResult) -> None:
    _write_json(path, plan_result_to_dict(plan))


def load_plan_result(path: Path | str) -> PlanResult:
    return plan_result_from_dict(json.loads(Path(path).read_text()))


def emit_reports(
    plan: PlanResult,
    out_dir: Path | str,
    manifest: "RunManifest | None" = None,
) -> list[Path]:
    """Write the result bundle: plan JSON, breakdown, design table CSV,
    trace CSV of the most probable scenario, and the run manifest.

    The breakdown identity is re-verified before anything is written.
    """
    gap = plan.breakdown.identity_gap()
    if gap > 1e-9:
        raise ValueError(f"objective breakdown violates its identity (gap {gap:.2e})")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    plan_path = out_dir / "plan_result.json"
    save_plan_result(plan_path, plan)
    written.append(plan_path)
    written.append(_write_json(out_dir / "objective_breakdown.json", plan.breakdown.as_dict()))

    design_path = out_dir / "design_table.csv"
    with design_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["entity", "device", "chi", "value"])
        for (entity, device), decision in sorted(plan.designs.items()):
            writer.writerow([entity, device, decision.chi, _fmt(decision.value)])
    written.append(design_path)

    traces_path = out_dir / "traces.csv"
    if plan.operations:
        # most probable scenario carries the traces; ties go to lowest id
        report_sid = min(
            sorted(plan.operations),
            key=lambda sid: -plan.operations[sid].probability,
        )
        with traces_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["scenario", "building", "t", "indoor_celsius", "heat_kw",
                 "e_in_kw", "e_out_kw", "gas_kw"]
            )
            # one column per field of the building's traces
            for bid, traces in sorted(plan.operations[report_sid].buildings.items()):
                columns = (getattr(traces, f.name) for f in fields(traces))
                for t, row in enumerate(zip(*columns)):
                    writer.writerow([report_sid, bid, t, *map(_fmt, row)])
        written.append(traces_path)

    if manifest is not None:
        written.append(_write_json(out_dir / "run_manifest.json", manifest.as_dict()))
    return written


def save_sensitivity_report(report: SensitivityReport, out_dir: Path | str) -> list[Path]:
    """``sensitivity_report.json``, the report by field (``spreads``,
    ``reference``, ``nominal_ids``, ``infeasible``), and
    ``design_spread.csv``, one row per factor and design."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = _write_json(out_dir / "sensitivity_report.json", _to_json(report))
    csv_path = out_dir / "design_spread.csv"
    with csv_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["factor", "entity", "device", "min", "max", "mean", "std", "reference"]
        )
        for factor, spreads in sorted(report.spreads.items()):
            for (entity, device), spread in sorted(spreads.items()):
                ref = report.reference.get((entity, device))
                writer.writerow(
                    [
                        factor,
                        entity,
                        device,
                        _fmt(spread.minimum),
                        _fmt(spread.maximum),
                        _fmt(spread.mean),
                        _fmt(spread.std),
                        _fmt(ref.value) if ref else "",
                    ]
                )
    return [json_path, csv_path]


# -- run manifest ----------------------------------------------------------------


def sha256_of(path: Path | str) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to replay a run byte for byte."""

    config_path: str
    config_sha256: str
    scenario_manifest_sha256: str | None
    solver: str
    solver_options: Mapping[str, object]
    seeds: Mapping[str, int]
    tool_version: str = _tool_version
    created_utc: str = ""
    scenario_manifest_path: str | None = None  # None without a bundle

    def __post_init__(self) -> None:
        object.__setattr__(self, "solver_options", dict(self.solver_options))
        object.__setattr__(self, "seeds", dict(self.seeds))

    def as_dict(self) -> dict:
        """One key per field."""
        return asdict(self)

    @staticmethod
    def from_dict(data: Mapping) -> "RunManifest":
        """The manifest of :meth:`as_dict` data; fields with a default may
        be missing (manifests written before they were added)."""
        return RunManifest(**_fields_from_json(RunManifest, data, "run manifest"))


def make_run_manifest(
    config_path: Path | str,
    scenario_dir: Path | str | None,
    solver: str,
    solver_options: Mapping[str, object],
    seeds: Mapping[str, int],
    clock: str | None = None,
) -> RunManifest:
    """Hash the inputs into a manifest; ``clock`` injects a fixed
    timestamp for reproducible output (defaults to now, UTC)."""
    scenario_hash = scenario_path = None
    if scenario_dir is not None:
        manifest_path = Path(scenario_dir) / "manifest.json"
        if manifest_path.exists():
            scenario_hash = sha256_of(manifest_path)
            scenario_path = str(manifest_path)
    created = clock if clock is not None else (
        datetime.now(timezone.utc).replace(tzinfo=None).isoformat() + "Z"
    )
    return RunManifest(
        config_path=str(config_path),
        config_sha256=sha256_of(config_path),
        scenario_manifest_sha256=scenario_hash,
        scenario_manifest_path=scenario_path,
        solver=solver,
        solver_options=solver_options,
        seeds=seeds,
        created_utc=created,
    )


def verify_run_manifest(manifest: RunManifest) -> list[str]:
    """Recompute the stored hashes of the config and, when recorded, the
    scenario manifest; non-empty return means drift."""
    checks = [(manifest.config_path, manifest.config_sha256)]
    if manifest.scenario_manifest_path is not None:
        checks.append((manifest.scenario_manifest_path, manifest.scenario_manifest_sha256))
    problems = []
    for path, digest in checks:
        path = Path(path)
        if not path.exists():
            problems.append(f"{path}: missing")
        elif sha256_of(path) != digest:
            problems.append(f"{path}: sha256 differs from manifest")
    return problems
