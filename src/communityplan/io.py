"""File formats: series CSVs, configuration JSON, scenario bundles,
plan results, reports and the reproducibility manifest.

Conventions: CSVs carry a ``timestamp,value`` header with ISO-8601
timestamps at strictly increasing uniform spacing; numbers are written as
the shortest decimal that round-trips; JSON is emitted sorted and
indented so identical runs produce identical bytes.  Every randomness
source and input hash lands in the :class:`RunManifest`.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import operator
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import __version__ as _tool_version
from .core import (
    BuildingConfig,
    CommunityConfig,
    DeviceKind,
    DeviceSpec,
    RCParameters,
    Scenario,
    TimeSeries,
    Unit,
    channel_names,
    channel_unit,
    check_channel_names,
    distinct_bits,
    scenario_channels,
    scenario_from_channels,
    validate_config,
)
from .planner import (
    BuildingTraces,
    DesignDecision,
    PlanResult,
    ScenarioOperations,
    SensitivityReport,
)
from .objective import ObjectiveBreakdown

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


def write_series_csv(path: Path | str, series: TimeSeries) -> None:
    """Write ``timestamp,value`` rows with ``\\r\\n`` line ends: ISO-8601
    timestamps and the shortest decimal (``repr``) of each value, each
    distinct value formatted once."""
    start = series.start
    fields = _timestamp_fields(
        start, start.tzinfo, start.fold, series.step_hours, len(series)
    )
    with Path(path).open("w", newline="") as handle:
        handle.write("timestamp,value")
        handle.writelines(map(operator.add, fields, _value_texts(series.values)))
        handle.write("\r\n")


# Lines read per block while a series file is read: bounds the strings held
# at once, which the allocator keeps after a long file is read.
_READ_BLOCK = 1024
_COMMA, _LINE_END = ord(","), ord("\n")


def _split_rows(text: str) -> tuple[list[str], list[str]]:
    """Timestamp and value cells of lines that each read ``timestamp,value``,
    with any line ends; ``ValueError`` for any other shape."""
    text = text.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n")
    # each line holds exactly one comma when the commas and line ends of
    # the text alternate, starting and ending with a comma (neither byte
    # occurs inside a multi-byte UTF-8 character)
    raw = np.frombuffer(text.encode(), np.uint8)
    marks = raw[(raw == _COMMA) | (raw == _LINE_END)]
    if not (len(marks) % 2 and (marks[0::2] == _COMMA).all()
            and (marks[1::2] == _LINE_END).all()):
        raise ValueError("not one timestamp,value pair per line")
    cells = text.replace("\n", ",").split(",")
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


def _read_rows(handle) -> tuple[datetime, set[timedelta], list[float]]:
    """The fast path of :func:`read_series_csv`: the first sample time, the
    set of spacings between sample times, and the values.  Each block of
    lines is split in one call; raises ``ValueError`` at any row that does
    not read ``timestamp,value``.  The spacing of the first two stamps is
    the step; a block that continues the series at that step in canonical
    spelling is checked by comparison, any other block is parsed."""
    start = last = step = None
    spacings: set[timedelta] = set()
    values: list[float] = []
    for lines in iter(lambda: list(itertools.islice(handle, _READ_BLOCK)), []):
        stamps, block = _split_rows("".join(lines))
        values += map(float, block)
        if step is not None and _continues(stamps, last, step):
            last += len(stamps) * step  # ``spacings`` already holds ``step``
            continue
        times = [] if last is None else [last]
        times += map(datetime.fromisoformat, stamps)
        if start is None:
            start = times[0]
        if step is None and len(times) > 1:
            step = times[1] - times[0]
        spacings.update(map(operator.sub, times[1:], times[:-1]))
        last = times[-1]
    return start, spacings, values


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
    blocks of lines split in one call, values parsed with ``map``.  The
    first two stamps give the start and step; a block whose stamps equal
    the canonical ``isoformat()`` of the times that continue the series
    at that step is checked by comparison, and any other block is parsed
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


def _device_from_dict(name: str, data: Mapping) -> DeviceSpec:
    return DeviceSpec(
        kind=DeviceKind(data["kind"]),
        cap_min=float(data["cap_min"]),
        cap_max=float(data["cap_max"]),
        eta_ch=float(data.get("eta_ch", 1.0)),
        eta_dch=float(data.get("eta_dch", 1.0)),
        sigma=float(data.get("sigma", 1.0)),
        gamma_ch=float(data.get("gamma_ch", 1.0)),
        gamma_dch=float(data.get("gamma_dch", 1.0)),
        size_price=float(data.get("size_price", 0.0)),
        base_price=float(data.get("base_price", 0.0)),
        lifetime_years=float(data.get("lifetime_years", 20.0)),
        extra=dict(data.get("extra", {})),
    )


def _rc_from_dict(data: Mapping) -> RCParameters:
    return RCParameters(
        order=int(data["order"]),
        resistances={k: float(v) for k, v in data["resistances"].items()},
        capacities={k: float(v) for k, v in data["capacities"].items()},
        window_area=float(data["window_area"]),
        envelope_area=float(data.get("envelope_area", 0.0)),
    )


def load_config_tree(directory: Path | str) -> CommunityConfig:
    """config.json plus the RC and device catalogues of a data directory."""
    directory = Path(directory)
    config_path = directory / "config.json"
    if not config_path.exists():
        raise ValueError(f"{config_path}: missing configuration file")
    raw = json.loads(config_path.read_text())
    rc_catalogue = json.loads((directory / "rc_catalogue.json").read_text())
    device_catalogue = json.loads((directory / "device_catalogue.json").read_text())
    devices = {
        name: _device_from_dict(name, entry) for name, entry in device_catalogue.items()
    }

    def _resolve(names: Iterable[str], where: str) -> tuple[DeviceSpec, ...]:
        out = []
        for name in names:
            if name not in devices:
                raise ValueError(f"{where}: unknown device '{name}' (not in catalogue)")
            out.append(devices[name])
        return tuple(out)

    buildings = []
    for entry in raw["buildings"]:
        bid = int(entry["id"])
        if str(bid) not in rc_catalogue:
            raise ValueError(f"rc_catalogue.json: missing building id {bid}")
        buildings.append(
            BuildingConfig(
                id=bid,
                rc=_rc_from_dict(rc_catalogue[str(bid)]),
                roof_area=float(entry["roof_area"]),
                comfort_buffer=float(entry.get("comfort_buffer", 0.5)),
                devices=_resolve(entry.get("devices", []), f"buildings[{bid}]"),
            )
        )
    return CommunityConfig(
        buildings=tuple(buildings),
        community_devices=_resolve(raw.get("community_devices", []), "community_devices"),
        lv_limit=float(raw["lv_limit"]),
        mv_limit=float(raw["mv_limit"]),
        slack_price=float(raw["slack_price"]),
        discount_rate=float(raw["discount_rate"]),
        horizon_steps=int(raw["horizon_steps"]),
        step_hours=float(raw["step_hours"]),
    )


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


def save_scenarios(
    directory: Path | str,
    scenarios: Sequence[Scenario],
    rng_seed: int | None = None,
    source_days: Sequence[Sequence[int]] | None = None,
    probabilities_exact: Sequence[Fraction] | None = None,
) -> Path:
    """Persist a scenario set as per-scenario CSV folders plus manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for pos, scenario in enumerate(scenarios):
        sub = directory / f"s{pos:03d}"
        sub.mkdir(exist_ok=True)
        for name, series in scenario_channels(scenario).items():
            write_series_csv(sub / f"{name}.csv", series)
        entry = {
            "id": scenario.id,
            "probability": scenario.probability,
            "dir": sub.name,
        }
        if probabilities_exact is not None:
            frac = probabilities_exact[pos]
            entry["probability_fraction"] = f"{frac.numerator}/{frac.denominator}"
        if source_days is not None:
            entry["source_days"] = list(source_days[pos])
        entries.append(entry)
    manifest = {
        "format": "communityplan-scenarios-v1",
        "tool_version": _tool_version,
        "rng_seed": rng_seed,
        "scenarios": entries,
    }
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_scenarios(directory: Path | str) -> tuple[list[Scenario], dict]:
    """Read a bundle written by :func:`save_scenarios`; returns the
    scenarios and the manifest.  A scenario folder must hold every channel
    file of its scenario and no other CSV, all with one start, step and
    length."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise ValueError(f"{manifest_path}: missing scenario manifest")
    manifest = json.loads(manifest_path.read_text())
    scenarios = []
    for entry in manifest["scenarios"]:
        sub = directory / entry["dir"]
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
        scenarios.append(
            scenario_from_channels(entry["id"], float(entry["probability"]), channels)
        )
    return scenarios, manifest


# -- plan results and reports --------------------------------------------------


def _design_key(entity: str, device: str) -> str:
    return f"{entity}:{device}"


# wall-clock measurements are the one non-deterministic part of a solve;
# serialized results must be byte-identical across identical runs
_VOLATILE_META = ("wall_time_s",)


def plan_result_to_dict(plan: PlanResult) -> dict:
    return {
        "designs": {
            _design_key(*key): {"chi": d.chi, "value": d.value}
            for key, d in sorted(plan.designs.items())
        },
        "breakdown": plan.breakdown.as_dict(),
        "operations": {
            sid: {
                "probability": ops.probability,
                "hv_import": list(ops.hv_import),
                "mv_to_lv": list(ops.mv_to_lv),
                "lv_to_mv": list(ops.lv_to_mv),
                "slack_mv": ops.slack_mv,
                "slack_lv": {str(b): v for b, v in sorted(ops.slack_lv.items())},
                "buildings": {
                    str(b): {
                        "indoor_celsius": list(tr.indoor_celsius),
                        "heat": list(tr.heat),
                        "e_in": list(tr.e_in),
                        "e_out": list(tr.e_out),
                        "gas": list(tr.gas),
                    }
                    for b, tr in sorted(ops.buildings.items())
                },
            }
            for sid, ops in sorted(plan.operations.items())
        },
        "solve_meta": {
            k: v for k, v in plan.solve_meta.items() if k not in _VOLATILE_META
        },
    }


def plan_result_from_dict(data: Mapping) -> PlanResult:
    designs = {}
    for key, entry in data["designs"].items():
        entity, device = key.split(":", 1)
        designs[(entity, device)] = DesignDecision(
            chi=int(entry["chi"]), value=float(entry["value"])
        )
    breakdown_raw = data["breakdown"]
    breakdown = ObjectiveBreakdown(
        o_inv_lvl=float(breakdown_raw["O_inv_lvl"]),
        o_opr=float(breakdown_raw["O_opr"]),
        o_co2=float(breakdown_raw["O_co2"]),
        o_slk=float(breakdown_raw["O_slk"]),
        o_tot=float(breakdown_raw["O_tot"]),
        per_scenario={
            sid: {
                "o_opr": float(vals["O_opr"]),
                "o_co2": float(vals["O_co2"]),
                "o_slk": float(vals["O_slk"]),
            }
            for sid, vals in breakdown_raw["per_scenario"].items()
        },
    )
    operations = {}
    for sid, ops in data["operations"].items():
        operations[sid] = ScenarioOperations(
            probability=float(ops["probability"]),
            hv_import=tuple(ops["hv_import"]),
            mv_to_lv=tuple(ops["mv_to_lv"]),
            lv_to_mv=tuple(ops["lv_to_mv"]),
            slack_mv=float(ops["slack_mv"]),
            slack_lv={int(b): float(v) for b, v in ops["slack_lv"].items()},
            buildings={
                int(b): BuildingTraces(
                    indoor_celsius=tuple(tr["indoor_celsius"]),
                    heat=tuple(tr["heat"]),
                    e_in=tuple(tr["e_in"]),
                    e_out=tuple(tr["e_out"]),
                    gas=tuple(tr["gas"]),
                )
                for b, tr in ops["buildings"].items()
            },
        )
    return PlanResult(
        designs=designs,
        breakdown=breakdown,
        operations=operations,
        solve_meta=dict(data["solve_meta"]),
    )


def save_plan_result(path: Path | str, plan: PlanResult) -> None:
    Path(path).write_text(
        json.dumps(plan_result_to_dict(plan), indent=2, sort_keys=True) + "\n"
    )


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

    breakdown_path = out_dir / "objective_breakdown.json"
    breakdown_path.write_text(
        json.dumps(plan.breakdown.as_dict(), indent=2, sort_keys=True) + "\n"
    )
    written.append(breakdown_path)

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
            ops = plan.operations[report_sid]
            for bid, tr in sorted(ops.buildings.items()):
                for t in range(len(tr.indoor_celsius)):
                    writer.writerow(
                        [
                            report_sid,
                            bid,
                            t,
                            _fmt(tr.indoor_celsius[t]),
                            _fmt(tr.heat[t]),
                            _fmt(tr.e_in[t]),
                            _fmt(tr.e_out[t]),
                            _fmt(tr.gas[t]),
                        ]
                    )
        written.append(traces_path)

    if manifest is not None:
        manifest_path = out_dir / "run_manifest.json"
        manifest_path.write_text(
            json.dumps(manifest.as_dict(), indent=2, sort_keys=True) + "\n"
        )
        written.append(manifest_path)
    return written


def save_sensitivity_report(report: SensitivityReport, out_dir: Path | str) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = {
        "factors": {
            factor: {
                _design_key(*key): {
                    "min": spread.minimum,
                    "max": spread.maximum,
                    "mean": spread.mean,
                    "std": spread.std,
                    "values": dict(spread.values),
                }
                for key, spread in sorted(spreads.items())
            }
            for factor, spreads in report.spreads.items()
        },
        "reference": {
            _design_key(*key): {"chi": d.chi, "value": d.value}
            for key, d in sorted(report.reference.items())
        },
        "nominal_ids": {f: dict(v) for f, v in report.nominal_ids.items()},
        "infeasible": [list(item) for item in report.infeasible],
    }
    json_path = out_dir / "sensitivity_report.json"
    json_path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
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
        return {
            "config_path": self.config_path,
            "config_sha256": self.config_sha256,
            "scenario_manifest_sha256": self.scenario_manifest_sha256,
            "scenario_manifest_path": self.scenario_manifest_path,
            "solver": self.solver,
            "solver_options": dict(self.solver_options),
            "seeds": dict(self.seeds),
            "tool_version": self.tool_version,
            "created_utc": self.created_utc,
        }

    @staticmethod
    def from_dict(data: Mapping) -> "RunManifest":
        return RunManifest(
            config_path=data["config_path"],
            config_sha256=data["config_sha256"],
            scenario_manifest_sha256=data.get("scenario_manifest_sha256"),
            solver=data["solver"],
            solver_options=dict(data["solver_options"]),
            seeds={k: int(v) for k, v in data["seeds"].items()},
            tool_version=data.get("tool_version", _tool_version),
            created_utc=data.get("created_utc", ""),
            scenario_manifest_path=data.get("scenario_manifest_path"),
        )


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
