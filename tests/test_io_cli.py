import hashlib
import json
import sys
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import communityplan.io
from communityplan.cli import main
from communityplan.core import (
    CHANNELS, BuildingConfig, DeviceKind, DeviceSpec, RCParameters, Scenario, TimeSeries,
    Unit, channel_names, scenario_channels,
)
from communityplan.fixtures import generate_fixture
from communityplan.io import (
    RunManifest,
    emit_reports,
    ingest_community,
    load_plan_result,
    load_scenarios,
    make_run_manifest,
    read_series_csv,
    save_plan_result,
    save_scenarios,
    verify_run_manifest,
    write_series_csv,
)
from communityplan.objective import ObjectiveBreakdown
from communityplan.planner import (
    BuildingTraces, DesignDecision, PlanResult, ScenarioOperations, solve_centralized,
)
from communityplan.scenarios import BootstrapSpec, bootstrap_years, channels_to_scenario
from communityplan.solvers import HIGHS_OPTIONS

from conftest import (
    START, battery_spec, boiler_spec, simple_building, simple_config, simple_scenario, ts,
)


def tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


def seeded_bundle() -> list[Scenario]:
    """Two 36 h scenarios of two buildings with seeded values, plus values
    whose shortest round-trip text is unusual."""
    rng = np.random.default_rng(20240)
    names = ["T_amb", "I_sol", "p_el", "p_gas", "p_co2",
             "E_base_b1", "T_set_b1", "E_base_b2", "T_set_b2"]
    scenarios = []
    for sid, probability in (("m3", 1 / 3), ("m7", 2 / 3)):
        channels = {name: rng.normal(10.0, 5.0, 36) for name in names}
        channels["p_co2"][:7] = [0.0, -0.0, 1e-18, 1e16, 123456789.0, 5e-324, -2.5]
        scenarios.append(channels_to_scenario(sid, probability, channels, START, 1.0))
    return scenarios


# SHA-256 of every file save_scenarios writes for seeded_bundle()
BUNDLE_GOLDEN = {
    "manifest.json":
        "b6b94f03a076af2f3a5fbbd623577a1a507ea43e4b6221eed153a7a2152b0001",
    "s000/E_base_b1.csv":
        "3654d330a4806cb45f54f03931f6606e01401600a8ddce141309d54b68491b33",
    "s000/E_base_b2.csv":
        "ffaaf35410b82c7e76746cff950ec2c7c518dd089efb77a57ca443e026b95139",
    "s000/I_sol.csv":
        "552e16c55f83498e43e3743ee6c934ef6ccbe096e07267c714d40cc06633bf82",
    "s000/T_amb.csv":
        "12e76a62b3fad9f543734a34745ddfd2d26dd73886a2af4c9978fd7e0ed1b8fa",
    "s000/T_set_b1.csv":
        "4fcd67241faf6d26d70e39bbabeaea63e4953cfbf9770a7b874b6ac554711ee5",
    "s000/T_set_b2.csv":
        "d72496219085513a06383a31abfb75d743e2e90a9f06601a38005c6ecf851159",
    "s000/p_co2.csv":
        "99bf1d78d5929bb6cb96fb25c38689d8afa63c21ee67b8962d4ac5f92d07d8c8",
    "s000/p_el.csv":
        "2ec2a667459a4fad30d6ff7e824d32dd168971f8808fc5910d59b204b4c44684",
    "s000/p_gas.csv":
        "ca1d68043e5838e4d9bd9aecc04ff262b4bd85c4f897fe854314e4534262cfa9",
    "s001/E_base_b1.csv":
        "7485961a04b621344d6eaf2ab051beda2c113fb19e073f7e615560fc811703cb",
    "s001/E_base_b2.csv":
        "100b1c656c71f15dfdb54a7be14b3cd6635e0a64c5725e63572b7a2d48f02278",
    "s001/I_sol.csv":
        "9943215b7d52105eed8a3abae5c533c206eff950e890f743c62c0d64b094ccc3",
    "s001/T_amb.csv":
        "4c99d7bc5f684839e25cc353c79822dcf517475f68fad72ec767b6bcb7c64fc7",
    "s001/T_set_b1.csv":
        "381e20d993503f3ef2e8e6e5a186ab27e184ffe2620ac5bcc565713b4c1443a0",
    "s001/T_set_b2.csv":
        "acaa79a722d748055a2a7bfc8d75bb4a9b550974f7715840d7e2812ec029122e",
    "s001/p_co2.csv":
        "538268c31fccca0b65e43c638283e96b9b8c7542d57f11d27def493697c775e5",
    "s001/p_el.csv":
        "08dab267123ccbbb0fdce3fb14e21de45e91f872a38119a1d142d2e3765ff0a3",
    "s001/p_gas.csv":
        "505f48c349592fe51b57ff7e264473e48a5e31a66d758c3b9475c9f6d4593ef6",
}


# Stamps of 8 rows for the fast and row readers; the row reader's outcome
# is the reference for each.
_HOUR = timedelta(hours=1)
_OFFSET = timezone(timedelta(hours=1))
READER_STAMPS = {
    "canonical": [(START + i * _HOUR).isoformat() for i in range(8)],
    "space_separator": [str(START + i * _HOUR) for i in range(8)],
    "z_suffix": [(START + i * _HOUR).isoformat() + "Z" for i in range(8)],
    "zero_fraction": [(START + i * _HOUR).isoformat() + ".000" for i in range(8)],
    "fractional_step": [(START + i * timedelta(seconds=1.5)).isoformat() for i in range(8)],
    "utc_offset": [(START.replace(tzinfo=_OFFSET) + i * timedelta(minutes=15)).isoformat()
                   for i in range(8)],
    # rows 0-2, then a gap: the boundary of blocks of 1 and of 3
    "gap_on_block_boundary": [(START + (i + (i >= 3)) * _HOUR).isoformat() for i in range(8)],
    # a gap before the last row: inside the last block of 3, whose first
    # stamp continues the series
    "gap_inside_last_block": [(START + (i + (i >= 7)) * _HOUR).isoformat() for i in range(8)],
    "decreasing": [(START - i * _HOUR).isoformat() for i in range(8)],
    "repeated": [START.isoformat()] * 8,
    "canonical_then_spaced": [(START + i * _HOUR).isoformat(sep=" " if i >= 4 else "T")
                              for i in range(8)],
}
READER_SERIES_CASES = {"canonical", "space_separator", "z_suffix", "zero_fraction",
                       "fractional_step", "utc_offset", "canonical_then_spaced"}


class TestSeriesCsv:
    def test_round_trip(self, tmp_path):
        series = ts(np.linspace(0.0, 5.0, 30), Unit.KILOWATT)
        path = tmp_path / "load.csv"
        write_series_csv(path, series)
        back, warnings = read_series_csv(path, Unit.KILOWATT)
        assert warnings == []
        assert back == series

    def test_header_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,power\n2019-01-01T00:00:00,1\n")
        with pytest.raises(ValueError, match=r"bad\.csv:1"):
            read_series_csv(path, Unit.KILOWATT)

    def test_extra_column_warns_but_parses(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text(
            "timestamp,value,comment\n"
            "2019-01-01T00:00:00,1.0,hello\n"
            "2019-01-01T01:00:00,2.0,world\n"
        )
        series, warnings = read_series_csv(path, Unit.KILOWATT)
        assert len(series) == 2
        assert any("extra columns" in w for w in warnings)

    def test_non_uniform_spacing_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "timestamp,value\n"
            "2019-01-01T00:00:00,1.0\n"
            "2019-01-01T01:00:00,2.0\n"
            "2019-01-01T03:00:00,3.0\n"
        )
        with pytest.raises(ValueError, match="uniform"):
            read_series_csv(path, Unit.KILOWATT)

    @pytest.mark.parametrize("block", [1, 3, 1024])
    def test_bad_value_after_blank_line_names_its_line(self, tmp_path, monkeypatch, block):
        # rows are parsed in blocks; the failing block may follow good ones
        monkeypatch.setattr(communityplan.io, "_READ_BLOCK", block)
        path = tmp_path / "bad.csv"
        path.write_text(
            "timestamp,value\n"
            "2019-01-01T00:00:00,1.0\n"
            "\n"
            "2019-01-01T01:00:00,2.0\n"
            "2019-01-01T02:00:00,oops\n"
        )
        with pytest.raises(ValueError, match=r"bad\.csv:5: bad row .*oops"):
            read_series_csv(path, Unit.KILOWATT)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text(
            "timestamp,value\n"
            "2019-01-01T00:00:00,1.0\n"
            "\n"
            "2019-01-01T01:00:00,2.0\n"
            "\n"
        )
        series, warnings = read_series_csv(path, Unit.KILOWATT)
        assert warnings == []
        assert series == ts([1.0, 2.0], Unit.KILOWATT, start=datetime(2019, 1, 1))

    def test_decreasing_timestamps_rejected(self, tmp_path):
        path = tmp_path / "down.csv"
        path.write_text(
            "timestamp,value\n"
            "2019-01-01T02:00:00,1.0\n"
            "2019-01-01T01:00:00,2.0\n"
            "2019-01-01T00:00:00,3.0\n"
        )
        with pytest.raises(ValueError, match="strictly increasing"):
            read_series_csv(path, Unit.KILOWATT)

    def test_single_sample_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("timestamp,value\n2019-01-01T00:00:00,1.0\n")
        with pytest.raises(ValueError, match="at least two samples"):
            read_series_csv(path, Unit.KILOWATT)

    def test_fixed_offset_quarter_hour_round_trip(self, tmp_path):
        start = datetime(2019, 3, 31, 1, 45, tzinfo=timezone(timedelta(hours=1)))
        series = ts(np.linspace(-2.0, 3.0, 200), Unit.KILOWATT, start=start, step=0.25)
        path = tmp_path / "quarter.csv"
        write_series_csv(path, series)
        lines = path.read_bytes().split(b"\r\n")
        assert lines[0] == b"timestamp,value" and lines[-1] == b""
        assert [line.split(b",")[0].decode() for line in lines[1:-1]] == [
            (start + i * timedelta(minutes=15)).isoformat() for i in range(200)
        ]
        back, warnings = read_series_csv(path, Unit.KILOWATT)
        assert warnings == []
        assert back == series
        assert back.start.utcoffset() == timedelta(hours=1)


    # Rows in shapes other than the writer's: each case pins the series
    # (start, step, values) and warnings, or the error, that csv.reader
    # row parsing gives.
    HOURS = ("2019-01-01T00:00:00", "2019-01-01T01:00:00", "2019-01-01T02:00:00")
    SHAPES = {
        "lf": "timestamp,value\n{0},1\n{1},2.5\n{2},-3\n",
        "crlf": "timestamp,value\r\n{0},1\r\n{1},2.5\r\n{2},-3\r\n",
        "cr": "timestamp,value\r{0},1\r{1},2.5\r{2},-3\r",
        "mixed_ends": "timestamp,value\n{0},1\r\n{1},2.5\r{2},-3\n",
        "quoted": '"timestamp","value"\n"{0}","1"\n"{1}","2.5"\n"{2}","-3"\n',
        "some_quoted": 'timestamp,value\n{0},"1"\n"{1}",2.5\n{2},-3\n',
        "extra_column": "timestamp,value,note\n{0},1,a\n{1},2.5,b\n{2},-3,c\n",
        "extra_timestamp_column": "timestamp,value\n{0},1,{2}\n{1},2.5,{2}\n{2},-3,{2}\n",
        "blank_lines": "timestamp,value\n\n{0},1\n\n{1},2.5\n{2},-3\n\n",
        "no_final_newline": "timestamp,value\r\n{0},1\r\n{1},2.5\r\n{2},-3",
        "space_separated_iso": "timestamp,value\n{3},1\n{4},2.5\n{5},-3\n",
        "padded_values": "timestamp,value\n{0}, 1\n{1},2.5 \n{2},-3\n",
        "padded_header": " timestamp , value \n{0},1\n{1},2.5\n{2},-3\n",
        # a row of three cells then a row of one: as many cells as three
        # rows of two, but the second row has no value
        "three_cells_then_one": "timestamp,value\n{0},1,{1}\n2.5\n{2},-3\n",
        "short_row": "timestamp,value\n{0},1\n{1}\n{2},-3\n",
        "empty_value": "timestamp,value\n{0},1\n{1},\n{2},-3\n",
        "header_only": "timestamp,value\n",
    }
    WARNINGS = {"extra_column": ["{path}:1: ignoring extra columns ['note']"]}
    ERRORS = {
        "three_cells_then_one": "{path}:3: bad row ['2.5']: Invalid isoformat string: '2.5'",
        "short_row": "{path}:3: bad row ['2019-01-01T01:00:00']: list index out of range",
        "empty_value": "{path}:3: bad row ['2019-01-01T01:00:00', '']: "
                       "could not convert string to float: ''",
        "header_only": "{path}: needs at least two samples",
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_row_shapes(self, tmp_path, shape):
        path = tmp_path / f"{shape}.csv"
        spaced = tuple(h.replace("T", " ") for h in self.HOURS)
        path.write_bytes(self.SHAPES[shape].format(*self.HOURS, *spaced).encode())
        if shape in self.ERRORS:
            with pytest.raises(ValueError) as info:
                read_series_csv(path, Unit.KILOWATT)
            assert str(info.value) == self.ERRORS[shape].format(path=path)
            return
        series, warnings = read_series_csv(path, Unit.KILOWATT)
        assert warnings == [w.format(path=path) for w in self.WARNINGS.get(shape, [])]
        values = [1.0, 2.5, -3.0]
        assert series == ts(values, Unit.KILOWATT, start=datetime(2019, 1, 1))

    @pytest.mark.parametrize("text, stamps, values", [
        ("a,1\nb,2", ["a", "b"], ["1", "2"]),
        ("a,1\r\nb,2\r\n", ["a", "b"], ["1", "2"]),
        ("a,1\rb,2\n", ["a", "b"], ["1", "2"]),
        ("\u00e9,1\n\u20ac, 2 ", ["\u00e9", "\u20ac"], ["1", " 2 "]),
        (",", [""], [""]),
    ])
    def test_split_rows_takes_one_comma_per_line(self, text, stamps, values):
        assert communityplan.io._split_rows(text) == (stamps, values)

    @pytest.mark.parametrize("text", [
        "a,1,b\n2", "a\nb,1,2", "a,1,b,2", "a,1\n\nb,2", "a,1\nb", "a", "", "\n", "a,1\n,\n,,",
        "\u00e9,1,\u20ac\n2", "a,1\rb\nc,2", "a,1\r\nb,2\r\r\n",
    ])
    def test_split_rows_rejects_other_shapes(self, text):
        with pytest.raises(ValueError, match="one timestamp,value pair per line"):
            communityplan.io._split_rows(text)

    @pytest.mark.parametrize("edit", [
        "none", "lf", "value_padded", "extra_column", "blank_line", "appended_rows",
        "bad_value", "gap", "three_cells_then_one", "quoted_value", "lone_lf_line",
    ])
    def test_edited_written_file(self, tmp_path, edit):
        # a written file edited by hand afterwards: each edit sits in the
        # second read block, after a block the fast path has read
        n = 3000  # spans several read blocks
        series = ts(np.arange(n) * 0.5 - 7.0, Unit.KILOWATT)
        path = tmp_path / "edited.csv"
        write_series_csv(path, series)
        lines = path.read_bytes().decode().split("\r\n")
        row = 1500 + 1  # sample 1500, file line 1502, in the second read block
        expected, error = series.values.tolist(), None
        if edit == "lf":
            lines = [line + "\n" for line in lines]
            path.write_text("".join(lines).removesuffix("\n"), newline="")
        else:
            if edit == "value_padded":
                lines[row] += " "
            elif edit == "extra_column":
                lines[row] += ",note"
            elif edit == "blank_line":
                lines.insert(row, "")
            elif edit == "appended_rows":
                extra = [START + (n + i) * timedelta(hours=1) for i in range(5)]
                lines[-1:] = [f"{t.isoformat()},{i}" for i, t in enumerate(extra)] + [""]
                expected += [0.0, 1.0, 2.0, 3.0, 4.0]
            elif edit == "bad_value":
                lines[row] = lines[row].split(",")[0] + ",oops"
                error = rf"edited\.csv:{row + 1}: bad row .*oops"
            elif edit == "gap":
                del lines[row]
                error = "uniformly spaced"
            elif edit == "three_cells_then_one":
                stamp, value = lines[row + 1].split(",")
                lines[row] += "," + stamp
                lines[row + 1] = value
                error = rf"edited\.csv:{row + 2}: bad row"
            elif edit == "lone_lf_line":
                # "\n" ends a line too: the row after it holds one blank cell
                lines[row] += "\n "
                error = rf"edited\.csv:{row + 2}: bad row \[' '\]"
            elif edit == "quoted_value":
                stamp, value = lines[row].split(",")
                lines[row] = f'{stamp},"{value}"'
            path.write_text("\r\n".join(lines), newline="")
        if error is not None:
            with pytest.raises(ValueError, match=error):
                read_series_csv(path, Unit.KILOWATT)
            return
        back, warnings = read_series_csv(path, Unit.KILOWATT)
        assert warnings == []
        assert back == ts(expected, Unit.KILOWATT)

    @staticmethod
    def _outcome(path):
        try:
            return read_series_csv(path, Unit.KILOWATT)
        except ValueError as exc:
            return str(exc)

    @pytest.mark.parametrize("block", [1, 3, 1024])
    @pytest.mark.parametrize("case", sorted(READER_STAMPS))
    def test_fast_reader_agrees_with_row_reader(self, tmp_path, monkeypatch, case, block):
        monkeypatch.setattr(communityplan.io, "_READ_BLOCK", block)
        path = tmp_path / f"{case}.csv"
        rows = "".join(f"{stamp},{i * 0.5}\r\n" for i, stamp in enumerate(READER_STAMPS[case]))
        path.write_text("timestamp,value\r\n" + rows, newline="")
        fast = self._outcome(path)

        def refuse(handle):
            raise ValueError("use the row reader")

        with monkeypatch.context() as patch:
            patch.setattr(communityplan.io, "_read_rows", refuse)
            slow = self._outcome(path)
        assert fast == slow
        assert isinstance(fast, tuple) == (case in READER_SERIES_CASES)

    @pytest.mark.parametrize("block", [1, 3, 1024])
    def test_canonical_stamps_are_compared_not_parsed(self, tmp_path, monkeypatch, block):
        # once the first two stamps give the step, the rest of every block
        # is checked against the expected spelling; whatever the block
        # size, only the first two stamps are parsed
        class CountingDatetime(datetime):
            parsed = 0

            @classmethod
            def fromisoformat(cls, text):
                CountingDatetime.parsed += 1
                return datetime.fromisoformat(text)

        monkeypatch.setattr(communityplan.io, "_READ_BLOCK", block)
        monkeypatch.setattr(communityplan.io, "datetime", CountingDatetime)
        series = ts(np.arange(8) * 0.5, Unit.KILOWATT)
        path = tmp_path / "canonical.csv"
        write_series_csv(path, series)
        back, _ = read_series_csv(path, Unit.KILOWATT)
        assert back == series
        assert CountingDatetime.parsed == 2


    # Files of three rows in the shapes a block boundary can meet: the row
    # reader reads each to the same series; blank lines go to it.
    BLOCK_SHAPES = {
        "crlf": "timestamp,value\r\n{0},1\r\n{1},2.5\r\n{2},-3\r\n",
        "lf": "timestamp,value\n{0},1\n{1},2.5\n{2},-3\n",
        "lone_cr": "timestamp,value\r{0},1\r{1},2.5\r{2},-3\r",
        "mixed_ends": "timestamp,value\n{0},1\r\n{1},2.5\r{2},-3\n",
        "no_final_newline": "timestamp,value\r\n{0},1\r\n{1},2.5\r\n{2},-3",
        "blank_lines": "timestamp,value\r\n{0},1\r\n\r\n{1},2.5\r\n{2},-3\r\n\r\n",
    }

    @pytest.mark.parametrize("shape", sorted(BLOCK_SHAPES))
    def test_every_block_size_reads_the_same_series(self, tmp_path, monkeypatch, shape):
        path = tmp_path / f"{shape}.csv"
        text = self.BLOCK_SHAPES[shape].format(*self.HOURS)
        path.write_bytes(text.encode())
        row_reads = []
        parse_rows = communityplan.io._parse_rows
        monkeypatch.setattr(communityplan.io, "_parse_rows",
                            lambda *args: row_reads.append(1) or parse_rows(*args))
        expected = ts([1.0, 2.5, -3.0], Unit.KILOWATT, start=datetime(2019, 1, 1))
        for block in range(1, 6):  # one line per block, ..., the whole file
            monkeypatch.setattr(communityplan.io, "_READ_BLOCK", block)
            assert read_series_csv(path, Unit.KILOWATT) == (expected, [])
        assert len(row_reads) == (5 if shape == "blank_lines" else 0)

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("text", [
        "a,1\r\nb,2\r\nc,3\r\n", "a,1\nb,2\r\nc,3", "a,1\rb,2\rc,3\r", "a,1\r\n\r\nb,2\n",
        "\u00e9,1\r\nb,2\r\n", "",
    ])
    def test_blocks_end_after_line_feeds(self, monkeypatch, text, block):
        # blocks hold the text in order and end right after every
        # ``block``-th line feed, so no "\r\n" is cut in two; text that is
        # not ASCII is one block
        monkeypatch.setattr(communityplan.io, "_READ_BLOCK", block)
        blocks = communityplan.io._blocks(text)
        assert "".join(blocks) == text and all(blocks)
        if not text.isascii():
            assert blocks == [text]
            return
        assert [b.count("\n") for b in blocks[:-1]] == [block] * (len(blocks) - 1)
        assert all(b.endswith("\n") for b in blocks[:-1])
        assert blocks == [] or blocks[-1].count("\n") <= block


class TestFixture:
    def test_deterministic_in_n_and_seed(self, tmp_path):
        a = generate_fixture(tmp_path / "a", 3, seed=11)
        b = generate_fixture(tmp_path / "b", 3, seed=11)
        assert tree_digest(a) == tree_digest(b)
        c = generate_fixture(tmp_path / "c", 3, seed=12)
        assert tree_digest(a) != tree_digest(c)

    def test_paper_scale_roster_validates(self, tmp_path):
        directory = generate_fixture(tmp_path / "big", 41, seed=1)
        ingest = ingest_community(directory)
        assert len(ingest.config.buildings) == 41
        assert len(ingest.history.climate.t_amb) == 8760
        assert ingest.warnings == ()

    def test_history_holds_the_catalogue_channels(self, tmp_path):
        directory = generate_fixture(tmp_path / "h", 3, seed=5)
        names = channel_names([1, 2, 3])
        assert sorted(p.stem for p in (directory / "history").iterdir()) == sorted(names)
        history = scenario_channels(ingest_community(directory).history)
        assert list(history) == names
        units = {channel.stem: channel.unit for channel in CHANNELS}
        assert [series.unit for series in history.values()] == [
            units[name.rpartition("_b")[0] or name] for name in names
        ]

    def test_missing_price_file_named_error(self, tmp_path):
        directory = generate_fixture(tmp_path / "x", 2, seed=2)
        (directory / "history" / "p_el.csv").unlink()
        with pytest.raises(ValueError, match=r"p_el\.csv"):
            ingest_community(directory)

    def test_unknown_device_named_error(self, tmp_path):
        directory = generate_fixture(tmp_path / "y", 1, seed=3)
        config = json.loads((directory / "config.json").read_text())
        config["buildings"][0]["devices"].append("FUSION")
        (directory / "config.json").write_text(json.dumps(config))
        with pytest.raises(ValueError, match="FUSION"):
            ingest_community(directory)


def edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


class TestConfigKeys:
    # (file, edit, the entry and key the error names)
    UNKNOWN = {
        "config": ("config.json", lambda c: c.update(slack_prices=1.0),
                   "config.json: unknown key 'slack_prices'"),
        "building": ("config.json", lambda c: c["buildings"][0].update(comfort_bufer=2.0),
                     "config.json: buildings[0]: unknown key 'comfort_bufer'"),
        "building_rc": ("config.json", lambda c: c["buildings"][0].update(rc={}),
                        "config.json: buildings[0]: unknown key 'rc'"),
        "device": ("device_catalogue.json",
                   lambda c: c["BOL"].update(lifetime_year=5.0, szie_price=1.0),
                   "device_catalogue.json: entry 'BOL': "
                   "unknown key 'lifetime_year', 'szie_price'"),
        "rc": ("rc_catalogue.json", lambda c: c["1"].update(windw_area=1.0),
               "rc_catalogue.json: entry '1': unknown key 'windw_area'"),
    }
    # every key these files required before they were read by field, by
    # the file and entry the error names
    REQUIRED = {
        ("config.json", None): ["buildings", "lv_limit", "mv_limit", "slack_price",
                                "discount_rate", "horizon_steps", "step_hours"],
        ("config.json", "buildings[0]"): ["id", "roof_area"],
        ("device_catalogue.json", "entry 'BOL'"): ["kind", "cap_min", "cap_max"],
        ("rc_catalogue.json", "entry '1'"): ["order", "resistances", "capacities",
                                             "window_area"],
    }
    ENTRIES = {None: lambda c: c, "buildings[0]": lambda c: c["buildings"][0],
               "entry 'BOL'": lambda c: c["BOL"], "entry '1'": lambda c: c["1"]}

    @pytest.mark.parametrize("case", sorted(UNKNOWN))
    def test_unknown_key_named(self, tmp_path, capsys, case):
        name, change, message = self.UNKNOWN[case]
        fx = generate_fixture(tmp_path / "fx", 1, seed=9)
        edit_json(fx / name, change)
        with pytest.raises(ValueError) as info:
            ingest_community(fx)
        assert str(info.value) == f"{fx}/{message}"
        assert main(["validate", "--dir", str(fx)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name, entry, key", [
        (name, entry, key) for (name, entry), keys in REQUIRED.items() for key in keys
    ])
    def test_missing_required_key_named(self, tmp_path, capsys, name, entry, key):
        fx = generate_fixture(tmp_path / "fx", 1, seed=9)
        edit_json(fx / name, lambda c: self.ENTRIES[entry](c).pop(key))
        where = name if entry is None else f"{name}: {entry}"
        message = f"{fx}/{where}: missing required key '{key}'"
        with pytest.raises(ValueError) as info:
            ingest_community(fx)
        assert str(info.value) == message
        assert main(["validate", "--dir", str(fx)]) == 1
        assert message in capsys.readouterr().err

    def test_left_out_fields_take_their_defaults(self, tmp_path):
        fx = generate_fixture(tmp_path / "fx", 1, seed=9)
        edit_json(fx / "device_catalogue.json", lambda c: c.update(
            BOL={"kind": "BOL", "cap_min": 1, "cap_max": 15.0}))
        rc = json.loads((fx / "rc_catalogue.json").read_text())["1"]
        edit_json(fx / "rc_catalogue.json", lambda c: c["1"].pop("envelope_area"))
        edit_json(fx / "config.json", lambda c: c["buildings"][0].pop("comfort_buffer"))
        building = communityplan.io.load_config_tree(fx).buildings[0]
        boiler = building.devices[0]
        assert boiler == DeviceSpec(DeviceKind.BOL, 1.0, 15.0)
        assert type(boiler.cap_min) is float  # cast by field type
        assert building.rc == RCParameters(rc["order"], rc["resistances"],
                                           rc["capacities"], rc["window_area"])
        assert building.comfort_buffer == BuildingConfig.comfort_buffer


class TestScenarioBundles:
    def test_save_load_round_trip(self, tmp_path):
        scenarios = [
            simple_scenario("a", 0.25, horizon=30),
            simple_scenario("b", 0.75, horizon=30, t_amb_level=9.0),
        ]
        save_scenarios(tmp_path / "bundle", scenarios, rng_seed=5)
        back, manifest = load_scenarios(tmp_path / "bundle")
        assert manifest == json.loads((tmp_path / "bundle" / "manifest.json").read_text())
        assert manifest["rng_seed"] == 5
        assert [s.id for s in back] == ["a", "b"]
        for original, loaded in zip(scenarios, back):
            assert loaded.probability == original.probability
            for name, series in scenario_channels(original).items():
                assert np.array_equal(
                    scenario_channels(loaded)[name].values, series.values
                )

    def test_bootstrap_provenance_persisted(self, tmp_path):
        history = simple_scenario("hist", 1.0, horizon=8760)
        result = bootstrap_years(history, BootstrapSpec(n_years=2, rng_seed=3))
        save_scenarios(
            tmp_path / "boot", list(result.years), rng_seed=3,
            source_days=list(result.source_days),
        )
        _, manifest = load_scenarios(tmp_path / "boot")
        assert manifest["scenarios"][0]["source_days"] == list(result.source_days[0])

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            load_scenarios(tmp_path / "nothing")

    def test_bundle_bytes_are_pinned(self, tmp_path):
        save_scenarios(
            tmp_path / "bundle", seeded_bundle(), rng_seed=17,
            source_days=[[3, 1, 4], [1, 5, 9]],
            probabilities_exact=[Fraction(1, 3), Fraction(2, 3)],
        )
        assert tree_digest(tmp_path / "bundle") == BUNDLE_GOLDEN

    def test_bundle_files_hold_the_written_series_bytes(self, tmp_path):
        # each channel's values are formatted once over the whole bundle;
        # every file still holds what write_series_csv writes for its
        # series, across scenarios of other lengths, starts and buildings
        first, last = seeded_bundle()  # -0.0, 0.0, 1e-18, 1e16, 5e-324, ...
        shared = scenario_channels(first)
        hours = np.arange(30.0)
        channels = {name: shared[name].values[:30] for name in
                    ("T_amb", "I_sol", "p_gas", "p_co2", "E_base_b2")}  # values shared
        channels.update(p_el=hours - 7.0, T_set_b2=np.where(hours % 24 > 6, 19.0, 17.0),
                        E_base_b5=-hours * 0.0, T_set_b5=np.full(30, 1e-18))
        other = channels_to_scenario("odd", 0.5, channels, START + timedelta(hours=5), 1.0)
        scenarios = [first, other, last]
        bundle = tmp_path / "bundle"
        save_scenarios(bundle, scenarios)
        reference = tmp_path / "reference.csv"
        for pos, scenario in enumerate(scenarios):
            folder = bundle / f"s{pos:03d}"
            written = scenario_channels(scenario)
            assert sorted(path.stem for path in folder.iterdir()) == sorted(written)
            for name, series in written.items():
                write_series_csv(reference, series)
                assert (folder / f"{name}.csv").read_bytes() == reference.read_bytes(), name

    @pytest.mark.parametrize("edit, message", [
        (lambda entry: entry.pop("dir"), "missing required key 'dir'"),
        (lambda entry: entry.pop("probability"), "missing required key 'probability'"),
        (lambda entry: entry.update(probabilty=0.5), "unknown key 'probabilty'"),
    ])
    def test_manifest_entry_keys_are_checked(self, tmp_path, capsys, edit, message):
        fx = generate_fixture(tmp_path / "fx", 1, seed=10)
        bundle = tmp_path / "bundle"
        history = ingest_community(fx).history
        save_scenarios(bundle, [replace(history, id="a", probability=0.5),
                                replace(history, id="b", probability=0.5)])
        path = bundle / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest["scenarios"][1])
        path.write_text(json.dumps(manifest))
        expected = f"{path}: scenarios[1]: {message}"
        with pytest.raises(ValueError) as info:
            load_scenarios(bundle)
        assert str(info.value) == expected
        code = main(["plan", "centralized", "--dir", str(fx), "--scenarios", str(bundle),
                     "--out", str(tmp_path / "out"), "--horizon", "24"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda manifest: manifest.pop("scenarios"), "missing required key 'scenarios'"),
        (lambda manifest: manifest.update(scenarioz=[]), "unknown key 'scenarioz'"),
    ])
    def test_manifest_top_level_keys_are_checked(self, tmp_path, capsys, edit, message):
        bundle = tmp_path / "bundle"
        save_scenarios(bundle, seeded_bundle())
        path = bundle / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        expected = f"{path}: {message}"
        with pytest.raises(ValueError) as info:
            load_scenarios(bundle)
        assert str(info.value) == expected
        code = main(["scenarios", "nominal", "--scenarios", str(bundle), "--factor", "occ"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize("change", ["start", "step", "length"])
    def test_misaligned_channel_file_rejected(self, tmp_path, change):
        bundle = tmp_path / "bundle"
        save_scenarios(bundle, seeded_bundle())
        path = bundle / "s001" / "p_el.csv"
        series, _ = read_series_csv(path, Unit.EUR_PER_KWH)
        start, step, values = series.start, series.step_hours, series.values
        write_series_csv(path, {
            "start": TimeSeries(start + timedelta(days=31), step, values, series.unit),
            "step": TimeSeries(start, 2 * step, values, series.unit),
            "length": TimeSeries(start, step, values[:25], series.unit),
        }[change])
        with pytest.raises(ValueError, match=r"s001.p_el\.csv"):
            load_scenarios(bundle)


    @pytest.mark.parametrize("removed, missing", [
        (["p_gas"], "p_gas.csv"),
        (["E_base_b2"], "E_base_b2.csv"),
        (["p_el", "T_set_b1"], "p_el.csv, T_set_b1.csv"),
        ("all", "T_amb.csv, I_sol.csv, p_el.csv, p_gas.csv, p_co2.csv"),
    ])
    def test_missing_channel_file_named(self, tmp_path, removed, missing):
        bundle = tmp_path / "bundle"
        save_scenarios(bundle, seeded_bundle())
        folder = bundle / "s001"
        for path in folder.glob("*.csv"):
            if removed == "all" or path.stem in removed:
                path.unlink()
        with pytest.raises(ValueError) as info:
            load_scenarios(bundle)
        assert str(info.value) == f"{folder}: missing channel files {missing}"

    @pytest.mark.parametrize("added, message", [
        (["notes"], "unknown channel files notes.csv"),
        (["E_base", "T_set_bx"], "unknown channel files E_base.csv, T_set_bx.csv"),
        (["E_base_b9"], "missing channel files T_set_b9.csv"),
        (["E_base_b9", "p_el_b1"],
         "missing channel files T_set_b9.csv; unknown channel files p_el_b1.csv"),
    ])
    def test_extra_channel_file_named(self, tmp_path, added, message):
        bundle = tmp_path / "bundle"
        save_scenarios(bundle, seeded_bundle())
        folder = bundle / "s001"
        for stem in added:
            (folder / f"{stem}.csv").write_bytes((folder / "p_el.csv").read_bytes())
        with pytest.raises(ValueError) as info:
            load_scenarios(bundle)
        assert str(info.value) == f"{folder}: {message}"


class TestPlanResultRoundTrip:
    def test_identical_structures(self, tmp_path, boiler_community):
        cfg, scenario = boiler_community
        plan = solve_centralized(cfg, [scenario])
        path = tmp_path / "plan_result.json"
        save_plan_result(path, plan)
        back = load_plan_result(path)
        assert back.designs == plan.designs
        assert back.breakdown == plan.breakdown
        assert back.operations == plan.operations
        # solver meta round-trips minus wall-clock keys, via its JSON image
        filtered = {
            k: v for k, v in plan.solve_meta.items() if k != "wall_time_s"
        }
        assert json.loads(json.dumps(filtered, sort_keys=True, default=str)) == \
            json.loads(json.dumps(dict(back.solve_meta), sort_keys=True, default=str))


class TestReports:
    def warm_plan(self):
        # warm climate, battery priced out of the market: chi stays zero
        building = simple_building(
            1, devices=(battery_spec(size_price=1e5, base_price=1e6),)
        )
        cfg = simple_config([building], horizon=24)
        scenario = simple_scenario(horizon=24, t_amb_level=25.0, t_set_day=17.0)
        return solve_centralized(cfg, [scenario])

    def test_zero_existence_design_table(self, tmp_path):
        plan = self.warm_plan()
        files = emit_reports(plan, tmp_path)
        table = (tmp_path / "design_table.csv").read_text().splitlines()
        assert table[0] == "entity,device,chi,value"
        assert all(row.split(",")[2] == "0" for row in table[1:])
        assert {f.name for f in files} >= {
            "plan_result.json", "objective_breakdown.json", "design_table.csv",
            "traces.csv",
        }

    def test_traces_shape(self, tmp_path):
        building_ids = (1, 2)
        buildings = [simple_building(b, devices=(boiler_spec(),)) for b in building_ids]
        cfg = simple_config(buildings, horizon=24)
        scenario = simple_scenario(horizon=24, building_ids=building_ids)
        plan = solve_centralized(cfg, [scenario])
        emit_reports(plan, tmp_path)
        rows = (tmp_path / "traces.csv").read_text().splitlines()
        assert len(rows) - 1 == 24 * len(building_ids)

    def test_breakdown_identity_guard(self, tmp_path):
        plan = self.warm_plan()
        broken = type(plan.breakdown)(
            o_inv_lvl=plan.breakdown.o_inv_lvl + 5.0,
            o_opr=plan.breakdown.o_opr,
            o_co2=plan.breakdown.o_co2,
            o_slk=plan.breakdown.o_slk,
            o_tot=plan.breakdown.o_tot,
            per_scenario=plan.breakdown.per_scenario,
        )
        tampered = type(plan)(
            designs=plan.designs, breakdown=broken, operations=plan.operations,
            solve_meta=plan.solve_meta,
        )
        with pytest.raises(ValueError, match="identity"):
            emit_reports(tampered, tmp_path)


def pinned_plan() -> PlanResult:
    """A hand-built time-limited plan: buildings 2 and 10 (whose ids sort
    differently as numbers and as text), the hydrogen chain, two scenarios
    and values whose shortest round-trip text is unusual."""
    designs = {
        ("b2", "BOL"): DesignDecision(1, 7.25),
        ("b10", "HP"): DesignDecision(1, 0.1 + 0.2),
        ("b10", "BAT"): DesignDecision(0, 0.0),
        ("COM", "EL"): DesignDecision(1, 12.5),
        ("COM", "HYD"): DesignDecision(1, 1e-7),
        ("COM", "FC"): DesignDecision(1, 3.0000000000000004),
    }

    def traces(shift):
        return BuildingTraces(
            indoor_celsius=(19.0 + shift, 18.5, 1 / 3), heat=(2.0, -0.0, 5e-324),
            e_in=(0.5, 0.25 + shift, 0.0), e_out=(0.0, 1e16, 0.125),
            gas=(2.2, 2.0618556701030926, 0.0),
        )

    operations = {
        sid: ScenarioOperations(
            probability=probability, hv_import=(1.5, 2.5 + shift, 0.1),
            mv_to_lv=(0.0, 0.75, 1.0), lv_to_mv=(0.25, 0.0, 0.0),
            slack_mv=0.0, slack_lv={10: 1e-9 * shift, 2: 0.0},
            buildings={10: traces(shift), 2: traces(2 * shift)},
        )
        for sid, probability, shift in (("s1", 0.75, 0.5), ("s0", 0.25, 1.0))
    }
    breakdown = ObjectiveBreakdown.from_terms(
        1234.5678,
        {
            "s1": {"o_opr": 10.1, "o_co2": 0.7, "o_slk": 1e-4},
            "s0": {"o_opr": 11.3, "o_co2": 0.9000000000000001, "o_slk": 0.0},
        },
        {"s1": 0.75, "s0": 0.25},
    )
    meta = {"status": "limit", "backend": "scipy", "mip_gap": 0.0123,
            "iterations": 3, "converged": False, "o_tot_history": [1250.0, 1246.9],
            "wall_time_s": 1.5}
    return PlanResult(designs, breakdown, operations, meta)


# SHA-256 of every file emit_reports writes for pinned_plan() and
# PINNED_MANIFEST, recorded from the writer that listed each record's keys
# by hand; the writer that walks the record fields must give the same bytes
REPORT_GOLDEN = {
    "plan_result.json":
        "bf5d056428bcde1473300cd163bfc14a201871d704b71afc85c565072e16ed7e",
    "objective_breakdown.json":
        "09483e27458c3ad6d052f3b90a8f5a505a7dea3cb784ec18f460244b0c2a9ebf",
    "design_table.csv":
        "bb6aa76c92ffb5b3bf273f0c9625c3325a62e171e752dae9dbca5826ee56d905",
    "traces.csv":
        "3ade5ef304e5b8e2953741dd02c39b0086200f51735282e14b910ff1a704c019",
    "run_manifest.json":
        "77f19843130469e733aa8b0341c77b5c541fb08bc3e91ad89e1142a69d6022ad",
}

PINNED_MANIFEST = RunManifest(
    config_path="data/config.json", config_sha256="c" * 64,
    scenario_manifest_sha256="5" * 64, scenario_manifest_path="scn/manifest.json",
    solver="scipy", solver_options={"mip_gap": 1e-6, "time_limit_s": 60.0},
    seeds={"scenario_rng": 7}, tool_version="0.1.0",
    created_utc="2026-01-01T00:00:00Z",
)


class TestReportBytes:
    def test_report_bytes_are_pinned(self, tmp_path):
        files = emit_reports(pinned_plan(), tmp_path, PINNED_MANIFEST)
        assert [path.name for path in files] == list(REPORT_GOLDEN)
        assert tree_digest(tmp_path) == REPORT_GOLDEN
        # building ids are text keys: "10" sorts before "2"
        text = (tmp_path / "plan_result.json").read_text()
        assert text.index('"10": {') < text.index('"2": {')

    def test_plan_round_trips(self, tmp_path):
        plan = pinned_plan()
        save_plan_result(tmp_path / "plan.json", plan)
        meta = {k: v for k, v in plan.solve_meta.items() if k != "wall_time_s"}
        assert load_plan_result(tmp_path / "plan.json") == replace(plan, solve_meta=meta)


class TestRunManifest:
    def test_hashes_verify_and_detect_drift(self, tmp_path):
        directory = generate_fixture(tmp_path / "fx", 1, seed=4)
        manifest = make_run_manifest(
            directory / "config.json", None, "scipy", {"mip_gap": 1e-6},
            {"scenario_rng": 7}, clock="2026-01-01T00:00:00Z",
        )
        assert verify_run_manifest(manifest) == []
        (directory / "config.json").write_text("{}")
        assert verify_run_manifest(manifest) != []

    def test_detects_scenario_manifest_drift(self, tmp_path):
        directory = generate_fixture(tmp_path / "fx3", 1, seed=4)
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        scenario_manifest = bundle / "manifest.json"
        scenario_manifest.write_text('{"scenarios": []}\n')
        manifest = make_run_manifest(
            directory / "config.json", bundle, "scipy", {}, {}, clock="t0",
        )
        assert manifest.scenario_manifest_path == str(scenario_manifest)
        assert RunManifest.from_dict(manifest.as_dict()) == manifest
        assert verify_run_manifest(manifest) == []
        scenario_manifest.write_text('{"scenarios": [], "rng_seed": 1}\n')
        assert verify_run_manifest(manifest) == [
            f"{scenario_manifest}: sha256 differs from manifest"
        ]
        scenario_manifest.unlink()
        assert verify_run_manifest(manifest) == [f"{scenario_manifest}: missing"]
        # manifests written before the path was recorded still load
        old = manifest.as_dict()
        del old["scenario_manifest_path"]
        assert RunManifest.from_dict(old).scenario_manifest_path is None

    def test_round_trip(self, tmp_path):
        directory = generate_fixture(tmp_path / "fx2", 1, seed=4)
        manifest = make_run_manifest(
            directory / "config.json", None, "scipy", {}, {}, clock="t0",
        )
        back = RunManifest.from_dict(manifest.as_dict())
        assert back == manifest


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_full_flow_and_exit_codes(self, tmp_path, capsys):
        fx = tmp_path / "fx"
        assert self.run("fixture", "--out", str(fx), "--buildings", "2",
                        "--seed", "6") == 0
        assert self.run("validate", "--dir", str(fx)) == 0

        bundle = tmp_path / "scn"
        assert self.run(
            "scenarios", "generate", "--dir", str(fx), "--out", str(bundle),
            "--years", "4", "--seed", "1",
        ) == 0
        reduced = tmp_path / "scn2"
        assert self.run(
            "scenarios", "reduce", "--scenarios", str(bundle), "--out",
            str(reduced), "--k", "2", "--seed", "1",
        ) == 0
        assert self.run(
            "scenarios", "nominal", "--scenarios", str(reduced), "--factor", "occ"
        ) == 0

        out = tmp_path / "plan"
        assert self.run(
            "plan", "centralized", "--dir", str(fx), "--scenarios", str(reduced),
            "--out", str(out), "--horizon", "24",
        ) == 0
        assert (out / "plan_result.json").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["solver_options"] == {
            "time_limit_s": None, "mip_gap": 1e-6, **HIGHS_OPTIONS,
        }

        rep = tmp_path / "rep"
        assert self.run(
            "report", "--plan", str(out / "plan_result.json"), "--out", str(rep)
        ) == 0
        assert (rep / "traces.csv").read_bytes() == (out / "traces.csv").read_bytes()

    def test_validation_failure_is_user_error(self, tmp_path, capsys):
        fx = generate_fixture(tmp_path / "fx", 1, seed=9)
        config = json.loads((fx / "config.json").read_text())
        config["lv_limit"] = 0.0
        config["mv_limit"] = -1.0
        (fx / "config.json").write_text(json.dumps(config))
        assert self.run("validate", "--dir", str(fx)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: {fx / 'config.json'}: invalid configuration:",
            "lv_limit: requires lv_limit > 0",
            "mv_limit: requires mv_limit > 0",
        ]

    @pytest.mark.parametrize("change, violation", [
        (lambda c: c["buildings"][0]["devices"].append("PV_COM"),
         "buildings[0].devices[6]: PV_COM is not a building device"),
        (lambda c: c["community_devices"].remove("HYD"),
         "community_devices: hydrogen chain EL, HYD, FC lacks HYD"),
    ])
    def test_device_placement_is_user_error(self, tmp_path, capsys, change, violation):
        fx = generate_fixture(tmp_path / "fx", 1, seed=9)
        config = json.loads((fx / "config.json").read_text())
        change(config)
        (fx / "config.json").write_text(json.dumps(config))
        assert self.run("validate", "--dir", str(fx)) == 1
        assert violation in capsys.readouterr().err

    def test_negative_building_id_is_user_error(self, tmp_path, capsys):
        fx = generate_fixture(tmp_path / "fx", 1, seed=9)
        config = json.loads((fx / "config.json").read_text())
        config["buildings"][0]["id"] = -1
        (fx / "config.json").write_text(json.dumps(config))
        rc = json.loads((fx / "rc_catalogue.json").read_text())
        (fx / "rc_catalogue.json").write_text(json.dumps({"-1": rc["1"]}))
        assert self.run("validate", "--dir", str(fx)) == 1
        assert "buildings[0].id: requires id >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["centralized", "distributed"])
    def test_scenario_step_other_than_config_step_is_user_error(self, tmp_path, capsys, verb):
        fx = generate_fixture(tmp_path / "fx", 1, seed=10)
        bundle = tmp_path / "scn"
        save_scenarios(bundle, [ingest_community(fx).history])
        config = json.loads((fx / "config.json").read_text())
        config["step_hours"] = 0.5
        (fx / "config.json").write_text(json.dumps(config))
        code = self.run(
            "plan", verb, "--dir", str(fx), "--scenarios", str(bundle),
            "--out", str(tmp_path / "out"), "--horizon", "24",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "scenarios step 1.0 h differs from the configured step_hours 0.5 h" in err

    def test_negative_probability_is_user_error(self, tmp_path, capsys):
        fx = generate_fixture(tmp_path / "fx", 1, seed=10)
        bundle = tmp_path / "scn"
        history = ingest_community(fx).history
        save_scenarios(bundle, [replace(history, id=sid) for sid in ("a", "b")])
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest["scenarios"][1]["probability"] = -0.2
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        code = self.run(
            "plan", "centralized", "--dir", str(fx), "--scenarios", str(bundle),
            "--out", str(tmp_path / "out"), "--horizon", "24",
        )
        assert code == 1
        assert "scenario 'b': probability" in capsys.readouterr().err

    def test_missing_dir_is_user_error(self, tmp_path):
        assert self.run("validate", "--dir", str(tmp_path / "nope")) == 1

    def test_bad_flag_is_user_error(self):
        assert self.run("validate", "--no-such-flag") == 1

    @pytest.mark.parametrize("verb", ["centralized", "distributed"])
    def test_scenario_without_a_building_is_user_error(self, tmp_path, capsys, verb):
        fx = generate_fixture(tmp_path / "fx", 2, seed=10)
        bundle = tmp_path / "scn"
        history = ingest_community(fx).history
        kept = min(history.occupant)
        missing = sorted(set(history.occupant) - {kept})
        save_scenarios(bundle, [Scenario("h", 1.0, {kept: history.occupant[kept]},
                                         history.economic, history.climate)])
        code = self.run(
            "plan", verb, "--dir", str(fx), "--scenarios", str(bundle),
            "--out", str(tmp_path / "out"), "--horizon", "24",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"scenario 'h' has no occupant profile for building(s) {missing}" in err

    def test_solver_failure_exit_code(self, tmp_path):
        fx = generate_fixture(tmp_path / "fx", 1, seed=10)
        bundle = tmp_path / "scn"
        history = ingest_community(fx).history
        save_scenarios(bundle, [Scenario("h", 1.0, history.occupant,
                                         history.economic, history.climate)])
        code = self.run(
            "plan", "centralized", "--dir", str(fx), "--scenarios", str(bundle),
            "--out", str(tmp_path / "out"), "--horizon", "24",
            "--solver", "no-such-binary {model} {sol}",
        )
        assert code == 2

    def test_env_solver_template(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COMMUNITYPLAN_SOLVER", "still-not-a-solver {model} {sol}")
        fx = generate_fixture(tmp_path / "fx", 1, seed=10)
        bundle = tmp_path / "scn"
        history = ingest_community(fx).history
        save_scenarios(bundle, [Scenario("h", 1.0, history.occupant,
                                         history.economic, history.climate)])
        code = self.run(
            "plan", "centralized", "--dir", str(fx), "--scenarios", str(bundle),
            "--out", str(tmp_path / "out"), "--horizon", "24",
        )
        assert code == 2

    def test_limit_without_solution_is_solver_failure(self, tmp_path):
        # an external solver that stops at its limit before any incumbent
        script = tmp_path / "limit_solver.py"
        script.write_text(
            "import sys\n"
            "open(sys.argv[2], 'w').write('=status= limit\\n')\n"
        )
        fx = generate_fixture(tmp_path / "fx", 1, seed=10)
        bundle = tmp_path / "scn"
        history = ingest_community(fx).history
        save_scenarios(bundle, [Scenario("h", 1.0, history.occupant,
                                         history.economic, history.climate)])
        code = self.run(
            "plan", "centralized", "--dir", str(fx), "--scenarios", str(bundle),
            "--out", str(tmp_path / "out"), "--horizon", "24", "--time-limit", "0.01",
            "--solver", f"{sys.executable} {script} {{model}} {{sol}}",
        )
        assert code == 2
