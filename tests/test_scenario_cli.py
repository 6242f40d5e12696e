import contextlib
import hashlib
import io
import itertools
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarsnap import cli, links, scenario
from polarsnap.cli import main
from polarsnap.errors import ScenarioError
from polarsnap.geometry import (
    POSITION_BLOCK_ROWS,
    ConstellationSpec,
    SatId,
    orbit_period,
    satellite_ids,
)
from polarsnap.links import HORIZONTAL, KINDS, OBLIQUE, IslEdge, TopologyEdgeSet
from polarsnap.report import (
    ComparisonReport,
    ComparisonRow,
    border_name,
    export_topology,
    format_summary,
    load_topology,
    run_compare,
    write_delay_csv,
    write_snapshot_csv,
)
from polarsnap.routing import MAX_SENDS, delay_experiment
from polarsnap.scenario import MAX_SATELLITES, apply_overrides, load_scenario
from polarsnap.snapshots import (
    SnapshotSequence,
    TopologySnapshot,
    analytic_summary,
    partition,
    partition_reassignment,
)
from tests.oracles import make_edge, set_by_set_export_topology

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
IRIDIUM_HEAD = (b"[constellation]\nplanes = 6\nsats_per_plane = 11\n"
                b"inclination_deg = 86.4\naltitude_km = 780\n")
# sha256 of the export of iridium's reassignment sequence at 60 degrees
PINNED_SHA256 = "133e4c2f0630b35a82653c8da6770a6b3f7e944e07904db1e56baa991b3705ee"
# sha256 of the same export in format 2, which versions before format 3 wrote
PINNED_V2_SHA256 = "a7eab5ca79ba7030a6797bedfcc0574f4775444983e83749ce4ff67552e1a57f"
STATIONS = b"source = A, 39.9, 116.4\ndestination = B, 51.5, -0.1\n"
# 2x3 at 60 degrees: its links span 120 degrees, past the 58.8 degree
# visibility limit, so every snapshot of every method fails validation
TINY = (b"[constellation]\nname = tiny\nplanes = 2\nsats_per_plane = 3\n"
        b"inclination_deg = 86\naltitude_km = 1000\n[partition]\npolar_border_deg = 60\n"
        b"[experiment]\n" + STATIONS + b"duration_s = 600\n")


def reference_export_topology(seq, spec, path):
    """The format 1 (``polarsnap-topology/1``) dict-plus-``json.dumps``
    writer: every snapshot lists its edges as objects. ``load_topology``
    reads only format 3, and must reject its files by their format."""
    def edge_key(edge):
        return (edge.kind, edge.endpoint_a.plane, edge.endpoint_a.index_in_plane,
                edge.endpoint_b.plane, edge.endpoint_b.index_in_plane)

    doc = {
        "format": "polarsnap-topology/1",
        "constellation": {
            "name": spec.name,
            "plane_count": spec.plane_count,
            "sats_per_plane": spec.sats_per_plane,
            "inclination_deg": spec.inclination_deg,
            "altitude_km": spec.altitude_km,
            "period_s": orbit_period(spec),
            "inter_plane_spacing_deg": spec.plane_spacing_deg,
            "earth_radius_km": spec.earth_radius_km,
            "grazing_altitude_km": spec.grazing_altitude_km,
        },
        "method": seq.method,
        "polar_border_deg": seq.polar_border_deg,
        "trigger": seq.trigger,
        "period_s": seq.period_s,
        "truncated_final": seq.truncated_final,
        "snapshots": [
            {
                "index": i,
                "start_s": snap.start_s,
                "end_s": snap.end_s,
                "edges": [
                    {
                        "kind": e.kind,
                        "a": [e.endpoint_a.plane, e.endpoint_a.index_in_plane],
                        "b": [e.endpoint_b.plane, e.endpoint_b.index_in_plane],
                    }
                    for e in sorted(snap.edges.edges, key=edge_key)
                ],
            }
            for i, snap in enumerate(seq.snapshots)
        ],
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def mask_rows(mask: str, rows: int) -> list[int]:
    """The rows an ``edge_mask`` sets, read digit by digit: bit i is bit
    3 - i % 4 of hex digit i // 4."""
    return [i for i in range(rows) if int(mask[i // 4], 16) >> (3 - i % 4) & 1]


def format_2_text(text: str) -> str:
    """A format 3 export rewritten as the format 2 writer wrote it: the
    same document with each ``edge_mask`` spelt out as ``edge_ids``."""
    rows = len(json.loads(text)["edges"])
    text = text.replace('"polarsnap-topology/3"', '"polarsnap-topology/2"', 1)
    return re.sub(r'\{"edge_mask": "([0-9a-f]*)",',
                  lambda match: f'{{"edge_ids": {mask_rows(match[1], rows)},', text)


class TestLoadScenario:
    def test_iridium_fixture(self):
        config = load_scenario(SCENARIOS / "iridium.scenario")
        spec = config.constellation
        assert spec.plane_count == 6
        assert spec.sats_per_plane == 11
        assert spec.inclination_deg == 86.4
        assert spec.altitude_km == 780.0
        assert config.polar_borders_deg == [60.0, 65.0, 70.0, 75.0]
        assert config.methods == ["reassignment", "fixed", "equal_time"]
        assert config.source.name == "Beijing"
        assert config.destination.latitude_deg == pytest.approx(51.507)

    def test_teledesic_fixture(self):
        config = load_scenario(SCENARIOS / "teledesic.scenario")
        spec = config.constellation
        assert spec.plane_count == 12
        assert spec.sats_per_plane == 24
        assert spec.inclination_deg == 84.7
        assert spec.altitude_km == 1375.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "nope.scenario")

    @pytest.mark.parametrize("key,value", [("duration_s", "nan"), ("interval_s", "inf"),
                                           ("duration_s", "-inf")])
    def test_non_finite_value_names_field(self, tmp_path, key, value):
        p = tmp_path / "bad.scenario"
        p.write_bytes(IRIDIUM_HEAD + f"[experiment]\n{key} = {value}\n".encode())
        with pytest.raises(ScenarioError, match=f"line 7: {key} must be positive and finite"):
            load_scenario(p)

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read scenario file"):
            load_scenario(tmp_path)

    def test_non_utf8_file_rejected(self, tmp_path):
        p = tmp_path / "latin1.scenario"
        p.write_bytes("[constellation]\nname = M\xfcnchen\n".encode("latin-1"))
        with pytest.raises(ScenarioError, match="not UTF-8 text: byte 24 is 0xfc"):
            load_scenario(p)

    def test_out_of_range_border_names_field(self, tmp_path):
        p = tmp_path / "bad.scenario"
        p.write_text("[constellation]\nplanes = 6\nsats_per_plane = 11\n"
                     "inclination_deg = 86.4\naltitude_km = 780\n"
                     "[partition]\npolar_border_deg = 95\n")
        with pytest.raises(ScenarioError, match="polar_border_deg"):
            load_scenario(p)

    def test_unknown_key_reports_line(self, tmp_path):
        p = tmp_path / "bad.scenario"
        base = ("[constellation]\nplanes = 6\nsats_per_plane = 11\n"
                "inclination_deg = 86.4\naltitude_km = 780\n")
        for extra, line in (("warp_drive = 1\n", 6), ("[output]\nrandom_seed = 1\n", 7)):
            p.write_text(base + extra)
            with pytest.raises(ScenarioError, match=f"line {line}"):
                load_scenario(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "bad.scenario"
        p.write_text("[constellation]\nplanes 6\n")
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(p)

    def test_odd_plane_count_rejected(self, tmp_path):
        p = tmp_path / "bad.scenario"
        p.write_text("[constellation]\nplanes = 5\nsats_per_plane = 11\n"
                     "inclination_deg = 86.4\naltitude_km = 780\n")
        with pytest.raises(ScenarioError, match="even"):
            load_scenario(p)

    @pytest.mark.parametrize("key,line", [("planes", 2), ("sats_per_plane", 3)])
    @pytest.mark.parametrize("value", ["6.5", "nan", "inf", "-inf", "1e400"])
    def test_non_whole_count_names_key_and_line(self, tmp_path, key, line, value):
        p = tmp_path / "bad.scenario"
        head = IRIDIUM_HEAD.decode().replace(f"{key} = {'6' if key == 'planes' else '11'}",
                                             f"{key} = {value}")
        p.write_text(head)
        with pytest.raises(ScenarioError, match=f"line {line}: {key} must be a whole number"):
            load_scenario(p)

    def test_whole_count_written_as_float_accepted(self, tmp_path):
        p = tmp_path / "ok.scenario"
        p.write_bytes(IRIDIUM_HEAD.replace(b"planes = 6", b"planes = 6.0"))
        assert load_scenario(p).constellation.plane_count == 6

    @pytest.mark.parametrize("experiment,line", [
        (b"duration_s = 30\ninterval_s = 60\n", 8),
        (b"duration_s = 30\n", 7),
        (b"interval_s = 90000\n", 7),
    ])
    def test_zero_sends_rejected(self, tmp_path, experiment, line):
        p = tmp_path / "bad.scenario"
        p.write_bytes(IRIDIUM_HEAD + b"[experiment]\n" + experiment)
        with pytest.raises(ScenarioError, match=f"line {line}: .* leaves no sends"):
            load_scenario(p)

    def test_unknown_method_rejected(self, tmp_path):
        p = tmp_path / "bad.scenario"
        p.write_text("[constellation]\nplanes = 6\nsats_per_plane = 11\n"
                     "inclination_deg = 86.4\naltitude_km = 780\n"
                     "[partition]\nmethods = dijkstra\n")
        with pytest.raises(ScenarioError, match="methods"):
            load_scenario(p)

    @pytest.mark.parametrize("line,field", [
        (b"polar_border_deg = 65, 70, 65.0", "polar_border_deg lists a border twice"),
        (b"polar_border_deg = 60, 60", "polar_border_deg lists a border twice"),
        (b"methods = fixed, reassignment, fixed", "methods lists a method twice"),
    ])
    def test_colliding_file_names_rejected(self, tmp_path, line, field):
        # artifact names hold the method and the border (``border_name``)
        p = tmp_path / "bad.scenario"
        p.write_bytes(IRIDIUM_HEAD + b"[partition]\n" + line + b"\n")
        with pytest.raises(ScenarioError, match=f"line 7: {field}"):
            load_scenario(p)

    @pytest.mark.parametrize("value,message", [
        ("95", r"in \[0, 90\], got 95.0"), ("-0.5", r"in \[0, 90\], got -0.5"),
        ("nan", "finite, got nan"), ("inf", "finite, got inf")])
    def test_elevation_checked_on_its_own_line(self, tmp_path, value, message):
        # the stations follow on line 8, but the error names line 7
        p = tmp_path / "bad.scenario"
        p.write_bytes(IRIDIUM_HEAD + f"[experiment]\nmin_elevation_deg = {value}\n".encode()
                      + STATIONS)
        with pytest.raises(ScenarioError, match=f"^line 7: min_elevation_deg must be {message}$"):
            load_scenario(p)

    @pytest.mark.parametrize("name", ["", "sub/iridium", "../escaped", "..\\escaped",
                                      "a\\b", ".", ".."])
    def test_name_must_be_a_file_name_part(self, tmp_path, name):
        p = tmp_path / "bad.scenario"
        p.write_bytes(IRIDIUM_HEAD + f"name = {name}\n".encode())
        with pytest.raises(ScenarioError, match=re.escape(
                f"line 6: name must be a file name part: not empty, '.' or '..', and "
                f"without '/' or '\\', got {name!r}")):
            load_scenario(p)

    @pytest.mark.parametrize("name", ["iridium.2", "...", "M\u00fcnchen 66"])
    def test_name_with_dots_or_spaces_accepted(self, tmp_path, name):
        p = tmp_path / "ok.scenario"
        p.write_bytes(IRIDIUM_HEAD + f"name = {name}\n".encode())
        assert load_scenario(p).constellation.name == name

    def test_defaults_without_optional_sections(self, tmp_path):
        p = tmp_path / "min.scenario"
        p.write_text("[constellation]\nplanes = 6\nsats_per_plane = 11\n"
                     "inclination_deg = 86.4\naltitude_km = 780\n")
        config = load_scenario(p)
        assert config.trigger == "enter"
        assert config.equal_time_delta == "match_reassignment"
        assert config.source is None


class TestEqualTimeDeltaPolicy:
    def test_match_reassignment_uses_reassignment_duration(self, tmp_path):
        config = load_scenario(SCENARIOS / "iridium.scenario")
        config.polar_borders_deg = [60.0]
        config.methods = ["reassignment", "equal_time"]
        config.source = config.destination = None
        config.output_dir = tmp_path
        report = run_compare(config)
        by_method = {r.method: r for r in report.rows}
        assert by_method["equal_time"].snapshot_count == 22
        assert by_method["equal_time"].duration_max_s == pytest.approx(
            by_method["reassignment"].duration_max_s, abs=1e-6)

    def _iridium_delta_1000(self, tmp_path) -> Path:
        text = (SCENARIOS / "iridium.scenario").read_text()
        path = tmp_path / "iridium.scenario"
        path.write_text(text.replace("equal_time_delta = match_reassignment",
                                     "equal_time_delta = 1000"))
        return path

    def test_simulate_uses_scenario_delta(self, tmp_path, capsys):
        scenario = self._iridium_delta_1000(tmp_path)
        rc = main(["simulate", str(scenario), "--methods", "equal_time",
                   "--polar-border", "60", "--output-dir", str(tmp_path / "sim")])
        assert rc == 0
        csv = tmp_path / "sim" / "iridium_equal_time_60_snapshots.csv"
        assert len(csv.read_text().splitlines()) == 1 + 7

    def test_route_and_compare_share_delta(self, tmp_path, capsys, monkeypatch):
        # simulate, route and compare each run the pipeline once, and the
        # files they have in common are byte-identical
        scenario = self._iridium_delta_1000(tmp_path)
        calls = []

        def counted_run_compare(config):
            calls.append(config)
            return run_compare(config)

        monkeypatch.setattr(cli, "run_compare", counted_run_compare)
        commands = ("simulate", "route", "compare")
        trees = {}
        for command in commands:
            out = tmp_path / command
            duration = [] if command == "simulate" else ["--duration", "3000"]
            rc = main([command, str(scenario), "--methods", "equal_time",
                       "--polar-border", "60", *duration, "--output-dir", str(out)])
            assert rc == 0
            assert len(calls) == 1, command
            calls.clear()
            trees[command] = {p.name: p.read_bytes() for p in out.iterdir()}
        stem = "iridium_equal_time_60_"
        assert stem + "delay.csv" not in trees["simulate"]
        for suffix, sharing in (("snapshots.csv", commands), ("topology.json", commands),
                                ("delay.csv", commands[1:])):
            assert len({trees[c][stem + suffix] for c in sharing}) == 1, suffix


class TestTopologyExport:
    def test_round_trip(self, iridium, tmp_path):
        seq = partition_reassignment(iridium, 60.0)
        path = tmp_path / "topo.json"
        export_topology(seq, iridium, path)
        spec2, seq2 = load_topology(path)
        assert spec2.plane_count == iridium.plane_count
        assert seq2.method == seq.method
        assert seq2.count == seq.count
        for a, b in zip(seq.snapshots, seq2.snapshots):
            assert a.start_s == b.start_s
            assert a.end_s == b.end_s
            assert a.edges.edges == b.edges.edges
            assert a.n_inter_plane == b.n_inter_plane

    def test_re_export_is_byte_identical(self, iridium, tmp_path):
        seq = partition_reassignment(iridium, 65.0)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        export_topology(seq, iridium, p1)
        export_topology(seq, iridium, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("system", ["iridium", "teledesic"])
    @pytest.mark.parametrize("border", [60.0, 75.0])
    def test_matches_reference_exporter(self, system, border, request, tmp_path):
        spec = request.getfixturevalue(system)
        for method in ("reassignment", "fixed", "equal_time"):
            seq = partition(spec, method, border)
            self.assert_matches_reference(seq, spec, tmp_path)

    def test_handmade_sequence_matches_reference_exporter(self, iridium, tmp_path):
        # horizontal edges, an empty edge set, odd edges (a horizontal one
        # with its endpoints out of canonical order, an oblique one on a ring
        # edge's endpoints, a seam edge), no trigger, truncated final snapshot
        snaps = partition_reassignment(iridium, 75.0).snapshots[:2]
        odd = snaps[1].edges.edges | {IslEdge(SatId(4, 2), SatId(3, 7), HORIZONTAL),
                                      IslEdge(SatId(1, 1), SatId(1, 2), OBLIQUE),
                                      make_edge(SatId(1, 1), SatId(6, 1), OBLIQUE)}
        # bounds of int and numpy types, written as json.dumps writes them
        edge = np.float64(2.5e3)
        snaps = (snaps[0],
                 TopologySnapshot(1000, edge, TopologyEdgeSet.from_edges(iridium, ())),
                 TopologySnapshot(edge, 6027.0, TopologyEdgeSet.from_edges(iridium, odd)))
        seq = SnapshotSequence("handmade", snaps, 6027.0, 75.0, trigger=None,
                               truncated_final=True)
        assert any(e.kind == "horizontal" for e in snaps[0].edges.edges)
        self.assert_matches_reference(seq, iridium, tmp_path)

    @staticmethod
    def assert_matches_reference(seq, spec, tmp_path):
        # the format 3 export has the set-by-set writer's bytes and loads to
        # the sequence
        path = tmp_path / "got.json"
        export_topology(seq, spec, path)
        assert_set_by_set_bytes(seq, spec, path)
        assert json.loads(path.read_text())["format"] == "polarsnap-topology/3"
        spec2, seq2 = load_topology(path)
        assert spec2 == spec
        assert (seq2.method, seq2.period_s, seq2.polar_border_deg, seq2.trigger,
                seq2.truncated_final) == (seq.method, seq.period_s, seq.polar_border_deg,
                                          seq.trigger, seq.truncated_final)
        assert [(s.start_s, s.end_s, s.edges.edges) for s in seq2.snapshots] == \
            [(s.start_s, s.end_s, s.edges.edges) for s in seq.snapshots], (spec.name, seq.method)
        assert [s.n_inter_plane for s in seq2.snapshots] == \
            [s.edges.n_inter_plane for s in seq.snapshots]

    def test_peak_memory_bounded(self, tmp_path):
        # 600 snapshots of 800 edges each: the table is marked a block of
        # sets at a time in a 1.08 MB key-space array, so the export's peak
        # stays far below the 15 MB that keys over every snapshot's edges
        # at once took
        spec = ConstellationSpec(2, 300, 86.0, 1000.0, name="wide")
        seq = partition(spec, "reassignment", 60.0)
        path = tmp_path / "wide.json"
        tracemalloc.start()
        try:
            export_topology(seq, spec, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        loaded = load_topology(path)[1]
        assert [(s.start_s, s.end_s, s.edges) for s in loaded.snapshots] == \
            [(s.start_s, s.end_s, s.edges) for s in seq.snapshots]

    def test_pinned_bytes(self, iridium, tmp_path):
        # any change to the bytes the writer produces shows here
        path = tmp_path / "topo.json"
        export_topology(partition(iridium, "reassignment", 60.0), iridium, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256
        # format 3 differs from format 2 only in how a snapshot names its rows
        assert hashlib.sha256(format_2_text(path.read_text()).encode()).hexdigest() == \
            PINNED_V2_SHA256

    def test_str_path(self, iridium, tmp_path):
        seq = partition(iridium, "fixed", 60.0)
        export_topology(seq, iridium, str(tmp_path / "str.json"))
        export_topology(seq, iridium, tmp_path / "path.json")
        assert (tmp_path / "str.json").read_bytes() == (tmp_path / "path.json").read_bytes()

    def test_layout(self, iridium, tmp_path):
        seq = partition(iridium, "fixed", 60.0)
        path = tmp_path / "topo.json"
        export_topology(seq, iridium, path)
        doc = json.loads(path.read_text())
        table = [tuple(row) for row in doc["edges"]]
        assert table == sorted(set(table))
        assert len(table) == len(set().union(*(s.edges.edges for s in seq.snapshots)))
        assert len(table) % 8 != 0  # so the masks have padding bits
        for i, (entry, snap) in enumerate(zip(doc["snapshots"], seq.snapshots)):
            assert list(entry) == ["edge_mask", "end_s", "index", "start_s"]
            assert entry["index"] == i
            mask = entry["edge_mask"]
            assert re.fullmatch("[0-9a-f]*", mask) and len(mask) == 2 * math.ceil(len(table) / 8)
            assert {(table[k][0], SatId(*table[k][1:3]), SatId(*table[k][3:]))
                    for k in mask_rows(mask, len(table))} == \
                {(e.kind, e.endpoint_a, e.endpoint_b) for e in snap.edges.edges}
            assert mask_rows(mask, 4 * len(mask)) == mask_rows(mask, len(table))  # padding

    @pytest.mark.parametrize("rows", [0, 1, 7, 8, 9, 670])
    def test_random_subsets_round_trip(self, rows, teledesic, tmp_path):
        # a table of the given size, snapshots drawing random subsets of it,
        # one of them empty, and every row in some snapshot
        rng = np.random.default_rng(rows)
        kinds = ("oblique", "horizontal", "intra_plane")
        sats = satellite_ids(teledesic.plane_count, teledesic.sats_per_plane)
        a, b = np.triu_indices(teledesic.total_satellites, 1)  # undirected links
        universe = [IslEdge(sats[a[key % len(a)]], sats[b[key % len(a)]], kinds[key // len(a)])
                    for key in rng.choice(3 * len(a), rows, replace=False).tolist()]
        picks = rng.random((5, rows)) < [[0.0], [0.5], [0.9], [0.1], [0.5]]
        picks[-1] |= ~picks.any(0)
        snaps = tuple(TopologySnapshot(100.0 * i, 100.0 * (i + 1), TopologyEdgeSet.from_edges(
            teledesic, [e for e, pick in zip(universe, row) if pick]))
            for i, row in enumerate(picks))
        seq = SnapshotSequence("handmade", snaps, 500.0, 60.0)
        path = tmp_path / "topo.json"
        export_topology(seq, teledesic, path)
        assert_set_by_set_bytes(seq, teledesic, path)
        doc = json.loads(path.read_text())
        assert len(doc["edges"]) == rows
        assert doc["snapshots"][0]["edge_mask"] == "0" * 2 * math.ceil(rows / 8)
        for entry, snap in zip(doc["snapshots"], snaps):
            assert len(mask_rows(entry["edge_mask"], rows)) == len(snap.edges)
        _, loaded = load_topology(path)
        assert [(s.start_s, s.end_s, s.edges) for s in loaded.snapshots] == \
            [(s.start_s, s.end_s, s.edges) for s in snaps]

    @pytest.mark.parametrize("system", ["iridium", "teledesic"])
    def test_table_rows_are_json_dumps(self, system, request, tmp_path):
        # each row is written as json.dumps of its list would write it, also
        # for hand-made edges; a kind outside KINDS cannot be exported, as no
        # set can hold it
        spec = request.getfixturevalue(system)
        snaps = partition_reassignment(spec, 75.0).snapshots
        for name in ('we"ird', "m\u00fcnchen\\\t"):
            with pytest.raises(ValueError, match="unknown link kind"):
                TopologyEdgeSet.from_edges(spec, [IslEdge(SatId(1, 1), SatId(2, 1), name)])
        odd = snaps[-1].edges.edges | {IslEdge(SatId(3, 1), SatId(1, 1), HORIZONTAL),
                                       IslEdge(SatId(2, 2), SatId(3, 5), OBLIQUE)}
        last = TopologySnapshot(snaps[-1].start_s, snaps[-1].end_s,
                                TopologyEdgeSet.from_edges(spec, odd))
        handmade = SnapshotSequence("handmade", snaps[:-1] + (last,), orbit_period(spec), 75.0)
        path = tmp_path / "topo.json"
        for seq in (*(partition(spec, m, 60.0) for m in ("reassignment", "fixed")), handmade):
            export_topology(seq, spec, path)
            text = path.read_text()
            rows = text.split('\n "edges": [\n', 1)[1].split("\n ],\n", 1)[0].split(",\n")
            table = json.loads(text)["edges"]
            assert [row.removeprefix("  ") for row in rows] == list(map(json.dumps, table))
        assert {row[0] for row in table} == set(KINDS)

    def test_sweep_matches_set_by_set_writer(self, tmp_path):
        # every sequence of the geometry sweep, and each one loaded back,
        # whose sets hold no universe ids, writes the set-by-set bytes
        for n, m, border in itertools.product((2, 4, 6, 8), (3, 5, 8, 11, 16), range(30, 90, 5)):
            spec = ConstellationSpec(n, m, 86.0, 1000.0)
            for method in ("reassignment", "fixed", "equal_time"):
                path = tmp_path / "got.json"
                export_topology(partition(spec, method, border), spec, path)
                assert_set_by_set_bytes(load_topology(path)[1], spec, path)

    def test_shipped_loaded_sequences_match_set_by_set_writer(self, tmp_path):
        for name in ("iridium", "teledesic"):
            config = load_scenario(SCENARIOS / f"{name}.scenario")
            spec = config.constellation
            for border, method in itertools.product(config.polar_borders_deg, config.methods):
                path = tmp_path / "got.json"
                export_topology(partition(spec, method, border, trigger=config.trigger,
                                          equal_time_delta_s=config.equal_time_delta_s),
                                spec, path)
                loaded = load_topology(path)[1]
                assert all(snap.edges._ids is None for snap in loaded.snapshots)
                assert_set_by_set_bytes(loaded, spec, path)

    def test_two_by_thousand_one_set_per_block(self, two_by_thousand, tmp_path):
        # 2 x 1000 at 60 degrees: 1000 distinct sets per sequence, each
        # larger than half a block, so each block holds one set
        path = tmp_path / "got.json"
        for method in ("reassignment", "fixed", "equal_time"):
            seq = partition(two_by_thousand, method, 60.0)
            assert len({id(snap.edges) for snap in seq.snapshots}) == 1000
            assert min(len(snap.edges) for snap in seq.snapshots) > POSITION_BLOCK_ROWS // 2
            export_topology(seq, two_by_thousand, path)
            assert_set_by_set_bytes(seq, two_by_thousand, path)

    def test_empty_sequence_rejected(self, iridium, tmp_path):
        seq = SnapshotSequence("reassignment", (), 6027.0, 60.0)
        target = tmp_path / "never.json"
        with pytest.raises(ValueError):
            export_topology(seq, iridium, target)
        assert not target.exists()


def assert_set_by_set_bytes(seq, spec, path):
    """The file at path holds the bytes the set-by-set writer writes for seq."""
    want = path.with_name("set_by_set.json")
    set_by_set_export_topology(seq, spec, want)
    assert path.read_bytes() == want.read_bytes(), (spec.name, seq.method)


class TestCsvWriters:
    def test_str_path(self, iridium, beijing, london, tmp_path):
        # a str path writes what a Path writes, as export_topology's does
        seq = partition(iridium, "fixed", 60.0)
        series = delay_experiment(iridium, "fixed", 60.0, beijing, london, 600.0, 60.0,
                                  sequence=seq)
        for write, arg, name in ((write_snapshot_csv, seq, "snapshots.csv"),
                                 (write_delay_csv, series, "delay.csv")):
            write(arg, str(tmp_path / f"str_{name}"))
            write(arg, tmp_path / name)
            assert (tmp_path / f"str_{name}").read_bytes() == (tmp_path / name).read_bytes()


def _put(keys, value):
    """An edit that sets the value at a path of keys, or deletes it when
    the value is ``_DROP``."""
    def edit(doc):
        *head, last = keys
        for key in head:
            doc = doc[key]
        if value is _DROP:
            del doc[last]
        else:
            doc[last] = value
    return edit


_DROP = object()


def _reverse(doc):
    doc["snapshots"].reverse()
    for i, entry in enumerate(doc["snapshots"]):
        entry["index"] = i


def _overlap(doc):
    doc["snapshots"][2]["start_s"] = doc["snapshots"][1]["end_s"] - 1.0


def _swap_rows(doc):
    doc["edges"][0], doc["edges"][1] = doc["edges"][1], doc["edges"][0]


def _swap_ends(doc):
    # the last row: read as given, the swapped row would still sort last
    kind, plane_a, index_a, plane_b, index_b = doc["edges"][-1]
    doc["edges"][-1] = [kind, plane_b, index_b, plane_a, index_a]


def _mask(edit):
    """An edit of snapshot 1's ``edge_mask`` text."""
    def apply(doc):
        doc["snapshots"][1]["edge_mask"] = edit(doc["snapshots"][1]["edge_mask"])
    return apply


# (case, edit, what the message names after the file)
MALFORMED_EITHER = [
    ("reverse_order", _reverse, "snapshot 1: "),
    ("overlapping_bounds", _overlap, "snapshot 2: "),
    ("nan_end", _put(("snapshots", 3, "end_s"), math.nan), "snapshot 3: "),
    ("string_start", _put(("snapshots", 3, "start_s"), "10"), "snapshot 3: "),
    ("end_before_start", _put(("snapshots", 4, "end_s"), 1.0), "snapshot 4: "),
    ("negative_period", _put(("period_s",), -6027.0), "period_s"),
    ("empty_snapshots", _put(("snapshots",), []), "snapshots"),
    ("missing_top_key", _put(("method",), _DROP), "missing key 'method'"),
    ("missing_snapshot_key", _put(("snapshots", 2, "start_s"), _DROP),
     "snapshot 2: missing key 'start_s'"),
    ("index_gap", _put(("snapshots", 2, "index"), 3), "snapshot 2: index 3"),
    ("unknown_format", _put(("format",), "polarsnap-topology/4"), "format"),
    ("bad_constellation", _put(("constellation", "planes"), 6), "constellation"),
    ("float_count", _put(("constellation", "plane_count"), 6.0),
     "plane_count and sats_per_plane must be integers, got (6.0, 11)"),
    ("bool_count", _put(("constellation", "sats_per_plane"), True),
     "plane_count and sats_per_plane must be integers, got (6, True)"),
    ("missing_count", _put(("constellation", "sats_per_plane"), _DROP),
     "constellation: missing key 'sats_per_plane'"),
    # header values the writer never writes
    ("method_not_string", _put(("method",), ["reassignment"]),
     "method must be a string, got ['reassignment']"),
    ("unknown_trigger", _put(("trigger",), 5), "trigger must be 'enter', 'exit' or null, got 5"),
    ("truncated_not_bool", _put(("truncated_final",), "yes"),
     "truncated_final must be true or false, got 'yes'"),
    ("border_above_90", _put(("polar_border_deg",), 95),
     "polar_border_deg must be in (0, 90), got 95"),
    ("negative_border", _put(("polar_border_deg",), -3),
     "polar_border_deg must be in (0, 90), got -3"),
    ("border_90", _put(("polar_border_deg",), 90.0), "polar_border_deg must be in (0, 90)"),
]
MALFORMED_V3 = [
    ("short_row", _put(("edges", 0), ["horizontal", 1, 2, 3]), "edges table"),
    ("kind_not_string", _put(("edges", 0, 0), 0), "edges table"),
    ("unknown_kind", _put(("edges", 0, 0), "laser"), "edges table: unknown link kind 'laser'"),
    ("float_endpoint", _put(("edges", 0, 2), 2.5), "edges table"),
    ("string_endpoint", _put(("edges", 0, 2), "2"), "edges table"),
    ("endpoint_outside", _put(("edges", 0, 3), 7), "edges table"),
    ("duplicate_rows", lambda doc: doc["edges"].insert(1, doc["edges"][0]), "edges table"),
    ("rows_out_of_order", _swap_rows, "edges table"),
    # a link read either way round is one set, so a table row must list it sorted
    ("endpoints_swapped", _swap_ends,
     "edges table: rows must be distinct and in canonical order"),
    ("mask_too_short", _mask(lambda mask: mask[:-2]), "snapshot 1: edge_mask"),
    ("mask_too_long", _mask(lambda mask: mask + "00"), "snapshot 1: edge_mask"),
    ("mask_non_hex", _mask(lambda mask: "g" + mask[1:]), "snapshot 1: edge_mask"),
    # bytes.fromhex skips the spaces, so only the decoded length shows them
    ("mask_inner_space", _mask(lambda mask: mask[:2] + "  " + mask[4:]), "snapshot 1: edge_mask"),
    # the 220-row table leaves the mask's last digit 4 padding bits
    ("mask_padding_bit", _mask(lambda mask: mask[:-1] + "1"), "snapshot 1: edge_mask"),
    ("mask_not_a_string", _put(("snapshots", 1, "edge_mask"), 0), "snapshot 1: edge_mask"),
    ("mask_missing", _put(("snapshots", 1, "edge_mask"), _DROP),
     "snapshot 1: missing key 'edge_mask'"),
    ("index_not_integer", _put(("snapshots", 0, "index"), 0.0), "snapshot 0: index"),
]


class TestMalformedTopology:
    """``load_topology`` rejects malformed files with a ValueError that
    names the file and, where there is one, the snapshot."""

    @staticmethod
    def assert_rejected(write, spec, edit, names, tmp_path):
        path = tmp_path / "topo.json"
        write(partition(spec, "reassignment", 60.0), spec, path)
        load_topology(path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load_topology(path)
        assert str(info.value).startswith(f"{path}: "), info.value
        assert names in str(info.value), info.value

    @pytest.mark.parametrize("write", [export_topology], ids=["v3"])
    @pytest.mark.parametrize("case, edit, names", MALFORMED_EITHER,
                             ids=[c[0] for c in MALFORMED_EITHER])
    def test_either_format(self, write, case, edit, names, iridium, tmp_path):
        self.assert_rejected(write, iridium, edit, names, tmp_path)

    def test_format_1_rejected(self, iridium, tmp_path):
        path = tmp_path / "topo.json"
        reference_export_topology(partition(iridium, "reassignment", 60.0), iridium, path)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: unrecognised topology format 'polarsnap-topology/1'")):
            load_topology(path)

    def test_format_2_rejected(self, iridium, tmp_path):
        path = tmp_path / "topo.json"
        export_topology(partition(iridium, "reassignment", 60.0), iridium, path)
        text = format_2_text(path.read_text())
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_V2_SHA256
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: unrecognised topology format 'polarsnap-topology/2'")):
            load_topology(path)

    @pytest.mark.parametrize("case, edit, names", MALFORMED_V3, ids=[c[0] for c in MALFORMED_V3])
    def test_v3(self, case, edit, names, iridium, tmp_path):
        self.assert_rejected(export_topology, iridium, edit, names, tmp_path)

    def test_satellite_limit(self, iridium, tmp_path):
        # a header naming more satellites than a scenario may is refused before
        # any set is built or validated; the limit itself loads
        path = tmp_path / "topo.json"
        export_topology(partition(iridium, "fixed", 60.0), iridium, path)
        doc = json.loads(path.read_text())

        def load(n, m):
            doc["constellation"].update(plane_count=n, sats_per_plane=m)
            path.write_text(json.dumps(doc))
            return load_topology(path)

        assert load(8, MAX_SATELLITES // 8)[0].sats_per_plane == MAX_SATELLITES // 8
        for n, m in ((2000, 2000), (8, MAX_SATELLITES // 8 + 1)):
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}: plane_count x sats_per_plane = {n} x {m} satellites, "
                    f"above the limit of {MAX_SATELLITES}")):
                load(n, m)

    @pytest.mark.parametrize("text", ["[]", "{", ""])
    def test_not_a_document(self, text, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            load_topology(path)


class TestCli:
    def test_analyze_runs(self, capsys):
        rc = main(["analyze", str(SCENARIOS / "iridium.scenario")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "34" in out and "44" in out and "22" in out

    def test_analyze_columns_stay_apart(self, tmp_path, capsys):
        # the shipped table is unchanged; a period of 1e11 s widens the
        # duration column past its width, and it keeps a space before it
        assert main(["analyze", str(SCENARIOS / "iridium.scenario")]) == 0
        assert capsys.readouterr().out.splitlines()[1:3] == [
            "  L_pa  duration_s  count  oblique  horizontal inter_total",
            "    60      273.95     22       30           4          34"]
        path = tmp_path / "slow.scenario"
        path.write_text((SCENARIOS / "iridium.scenario").read_text().replace(
            "period_s = 6027\n", "period_s = 1e11\n"))
        assert main(["analyze", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            f"    {border} 4545454545.45     22       {oblique}           {horizontal}"
            f"          {oblique + horizontal}"
            for border, oblique, horizontal in ((60, 30, 4), (65, 30, 4), (70, 40, 0),
                                                (75, 40, 4))]

    def test_simulate_writes_artifacts(self, tmp_path, capsys):
        rc = main([
            "simulate", str(SCENARIOS / "iridium.scenario"),
            "--polar-border", "60", "--methods", "reassignment",
            "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "comparison_iridium.csv", "iridium_reassignment_60_snapshots.csv",
            "iridium_reassignment_60_topology.json", "summary_iridium.txt"]

    def test_route_runs(self, tmp_path, capsys):
        rc = main([
            "route", str(SCENARIOS / "iridium.scenario"),
            "--polar-border", "60", "--methods", "reassignment",
            "--duration", "1800", "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "iridium_reassignment_60_delay.csv").exists()
        out = capsys.readouterr().out
        assert "avg delay" in out

    @pytest.mark.parametrize("command", ["simulate", "route", "compare"])
    def test_validation_failures_exit_1(self, command, tmp_path, capsys):
        path = tmp_path / "tiny.scenario"
        path.write_bytes(TINY)
        out = tmp_path / "out"
        rc = main([command, str(path), "--output-dir", str(out)])
        assert rc == 1
        assert "18 validation failures" in capsys.readouterr().err
        written = {p.name for p in out.iterdir()}
        for method in ("reassignment", "fixed", "equal_time"):
            assert {f"tiny_{method}_60_snapshots.csv",
                    f"tiny_{method}_60_topology.json"} <= written
            assert (f"tiny_{method}_60_delay.csv" in written) == (command != "simulate")
        assert {"summary_tiny.txt", "comparison_tiny.csv"} <= written

    @pytest.mark.parametrize("argv,message", [
        (["--polar-border", "75", "--polar-border", "75.0"],
         "polar_border_deg lists a border twice: '75,75.0'"),
        (["--methods", "fixed,equal_time,fixed"], "methods lists a method twice"),
    ])
    def test_colliding_file_names_rejected(self, argv, message, tmp_path, capsys):
        rc = main(["compare", str(SCENARIOS / "iridium.scenario"), *argv,
                   "--duration", "600", "--output-dir", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_distinct_borders_get_distinct_names(self, tmp_path, capsys):
        # 60 and 60.0000001 write two file sets; a border that f"{b:g}"
        # would round, such as 89.999999 (not 90), is printed and named as given
        argv = ["--polar-border", "60", "--polar-border", "60.0000001",
                "--polar-border", "89.999999"]
        assert main(["simulate", str(SCENARIOS / "iridium.scenario"), *argv,
                     "--methods", "reassignment", "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        names = ("60", "60.0000001", "89.999999")
        assert [line.split()[2] for line in out.splitlines()[:3]] == [
            f"L_pa={name}:" for name in names]
        assert {p.name for p in tmp_path.glob("*_snapshots.csv")} == {
            f"iridium_reassignment_{name}_snapshots.csv" for name in names}
        rows = (tmp_path / "summary_iridium.txt").read_text().splitlines()[4:7]
        assert [row.split()[1] for row in rows] == list(names)
        assert main(["analyze", str(SCENARIOS / "iridium.scenario"), *argv]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split()[0] for row in rows] == list(names)

    @pytest.mark.parametrize("border,name", [
        (60.0, "60"), (65.0, "65"), (70.0, "70"), (75.0, "75"), (62.5, "62.5"),
        (81.818181, "81.818181"), (89.999999, "89.999999"), (1e-05, "1e-05"),
        (60.0000001, "60.0000001"), (math.nextafter(60.0, 90.0), "60.00000000000001")])
    def test_border_name(self, border, name):
        # f"{border:g}" when it reads back as the border, else its repr
        assert border_name(border) == name and float(name) == border

    def test_scenario_error_reported_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text("[constellation]\nplanes = 6\nsats_per_plane = 11\n"
                       "inclination_deg = 86.4\naltitude_km = 780\n"
                       "[partition]\npolar_border_deg = 95\n")
        rc = main(["analyze", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "polar_border_deg" in err and "line 7" in err

    @pytest.mark.parametrize("contents,message", [
        (IRIDIUM_HEAD + b"[experiment]\nduration_s = nan\n",
         "duration_s must be positive and finite"),
        (IRIDIUM_HEAD + b"[experiment]\ninterval_s = inf\n",
         "interval_s must be positive and finite"),
        (b"[constellation]\nname = M\xfcnchen\n", "not UTF-8 text"),
        (None, "cannot read scenario file"),
    ])
    def test_bad_scenario_file_reported_cleanly(self, contents, message, tmp_path, capsys):
        path = tmp_path / "in"
        if contents is None:
            path.mkdir()
        else:
            path.write_bytes(contents)
        out = tmp_path / "out"
        rc = main(["route", str(path), "--output-dir", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,field", [
        (["route", "--interval", "-5"], "interval_s"),
        (["route", "--duration", "0"], "duration_s"),
        (["compare", "--polar-border", "95"], "polar_border_deg"),
        (["route", "--methods", "bogus"], "methods"),
        (["route", "--duration", "nan"], "duration_s"),
        (["route", "--interval", "inf"], "interval_s"),
    ])
    def test_bad_override_reported_cleanly(self, argv, field, tmp_path, capsys):
        rc = main([argv[0], str(SCENARIOS / "iridium.scenario"), *argv[1:],
                   "--output-dir", str(tmp_path)])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("head,experiment,field", [
        (IRIDIUM_HEAD, b"source = A, nan, 10\ndestination = B, 51.5, -0.1\n",
         "latitude_deg"),
        (IRIDIUM_HEAD, STATIONS + b"min_elevation_deg = nan\n", "min_elevation_deg"),
        (IRIDIUM_HEAD.replace(b"780", b"nan"), STATIONS, "altitude_km"),
    ])
    def test_non_finite_input_reported_cleanly(self, head, experiment, field, tmp_path,
                                               capsys):
        path = tmp_path / "in.scenario"
        path.write_bytes(head + b"[experiment]\n" + experiment)
        out = tmp_path / "out"
        rc = main(["route", str(path), "--duration", "600", "--output-dir", str(out)])
        assert rc == 2
        assert f"{field} must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "route"])
    @pytest.mark.parametrize("value", [b"6.5", b"nan", b"1e400"])
    def test_non_whole_plane_count_reported_cleanly(self, command, value, tmp_path,
                                                    capsys):
        path = tmp_path / "in.scenario"
        path.write_bytes(IRIDIUM_HEAD.replace(b"planes = 6", b"planes = " + value)
                         + b"[experiment]\n" + STATIONS)
        out = tmp_path / "out"
        assert main([command, str(path), "--output-dir", str(out)]) == 2
        assert "line 2: planes must be a whole number" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_sends_in_file_reported_cleanly(self, tmp_path, capsys):
        path = tmp_path / "in.scenario"
        path.write_bytes(IRIDIUM_HEAD + b"[experiment]\n" + STATIONS
                         + b"duration_s = 30\ninterval_s = 60\n")
        out = tmp_path / "out"
        assert main(["route", str(path), "--output-dir", str(out)]) == 2
        assert "leaves no sends" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--duration", "30"], ["--interval", "90000"],
                                      ["--duration", "50", "--interval", "60"]])
    def test_zero_sends_from_flags_reported_cleanly(self, argv, tmp_path, capsys):
        rc = main(["route", str(SCENARIOS / "iridium.scenario"), *argv,
                   "--output-dir", str(tmp_path)])
        assert rc == 2
        assert "leaves no sends" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_route_at_period_end_fold(self, tmp_path, capsys):
        # 6 x 33 at 60 degrees: the reassignment and fixed sequences start at
        # 1.2e-13 s, and the send at t = 0 folds onto the period's end
        text = (SCENARIOS / "iridium.scenario").read_text()
        path = tmp_path / "m33.scenario"
        path.write_text(text.replace("sats_per_plane = 11", "sats_per_plane = 33"))
        rc = main(["route", str(path), "--polar-border", "60", "--duration", "600",
                   "--output-dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == 0, err
        assert out.count("over 10 sends (0.0% unreachable)") == 3

    @pytest.mark.parametrize("lines,message", [
        (b"period_s = 6027\n[partition]\nequal_time_delta = 1e-9\n",
         "line 8: equal_time_delta: equal_time delta 1e-09 s cuts the 6027.0 s period into "
         "6.027e+12 snapshots, outside (0, 10000]"),
        (b"[partition]\nequal_time_delta = 5e-324\n", "into inf snapshots"),
        (b"period_s = 6027\n[partition]\nequal_time_delta = 0.6\n", "into 10045 snapshots"),
        (b"period_s = 5e-324\n", "period (5e-324 s) in [0.001, 1e+12]"),
        (b"[experiment]\ninterval_s = 1e-6\n",
         "line 7: duration_s 86400.0 over interval_s 1e-06 makes 8.64e+10 sends, above the "
         "limit of 100000"),
        (b"[experiment]\nduration_s = 1e308\ninterval_s = 1e-300\n", "makes inf sends"),
        (b"earth_radius_km = 0\n", "earth_radius_km must be positive, got 0.0"),
        (b"period_s = 0.01\n", "line 6: [constellation]: slot period / (2 * sats_per_plane) = "
         "0.00045454545454545455 s must exceed 0.002 s, two 0.001 s ties"),
        (b"period_s = 1\n[partition]\nequal_time_delta = 0.002\n",
         "line 8: equal_time_delta: equal_time delta 0.002 s must exceed 0.002 s, "
         "two 0.001 s ties"),
    ], ids=["delta-1e-9", "delta-5e-324", "delta-over-limit", "period-5e-324",
            "interval-1e-6", "inf-sends", "earth-radius-0", "slot-floor", "delta-floor"])
    def test_hostile_values_reported_before_any_work(self, lines, message, tmp_path, capsys):
        # analyze loads and checks the file but partitions and routes nothing,
        # so a missing check fails here without allocating
        path = tmp_path / "in.scenario"
        path.write_bytes(IRIDIUM_HEAD + lines)
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1 and err.startswith("scenario error: ")

    def test_slot_floor_of_derived_period_names_sats_line(self, tmp_path, capsys):
        # a 3.6 s Keplerian period over 2000 slots: no period_s line to name
        path = tmp_path / "in.scenario"
        path.write_bytes(b"[constellation]\nplanes = 2\nsats_per_plane = 1000\n"
                         b"inclination_deg = 86\naltitude_km = 50\nearth_radius_km = 1\n")
        assert main(["simulate", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: line 3: [constellation]: slot period")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("planes, sats", [("2", "1001"), ("40", "51"), ("1e300", "3")])
    def test_satellite_limit_before_any_work(self, planes, sats, tmp_path, capsys,
                                             monkeypatch):
        # rejected before the ConstellationSpec, let alone any array, is built
        def refuse(**fields):
            raise AssertionError("ConstellationSpec built")

        monkeypatch.setattr(scenario, "ConstellationSpec", refuse)
        path = tmp_path / "in.scenario"
        path.write_text(f"[constellation]\nplanes = {planes}\nsats_per_plane = {sats}\n"
                        "inclination_deg = 86.4\naltitude_km = 780\n")
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: line 3: planes x sats_per_plane = ")
        assert f"satellites, above the limit of {MAX_SATELLITES}" in err

    def test_satellite_limit_itself_accepted(self, tmp_path):
        path = tmp_path / "in.scenario"
        path.write_text(f"[constellation]\nplanes = 2\nsats_per_plane = {MAX_SATELLITES // 2}\n"
                        "inclination_deg = 86.4\naltitude_km = 780\n")
        assert load_scenario(path).constellation.total_satellites == MAX_SATELLITES

    def test_huge_orbit_radius_reported_cleanly(self, tmp_path, capsys):
        # with period_s given, nothing overflowed until positions were squared
        path = tmp_path / "in.scenario"
        path.write_text((SCENARIOS / "iridium.scenario").read_text()
                        .replace("altitude_km = 780\n", "altitude_km = 1e300\n"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["route", str(path), "--duration", "600", "--output-dir", str(out)]) == 2
        assert "must be positive and at most 1e+150" in capsys.readouterr().err
        assert not out.exists()

    def test_send_limit_from_flags(self):
        # checked on the overrides directly, before any send is made
        config = load_scenario(SCENARIOS / "iridium.scenario")
        with pytest.raises(ScenarioError, match=re.escape(
                "duration_s 86400.0 over interval_s 1e-06 makes 8.64e+10 sends")):
            apply_overrides(config, interval_s="1e-6")
        apply_overrides(config, interval_s="0.864")
        assert int(config.duration_s // config.interval_s) == MAX_SENDS

    def test_elevation_above_90_reported_cleanly(self, tmp_path, capsys):
        path = tmp_path / "in.scenario"
        path.write_bytes(IRIDIUM_HEAD + b"[experiment]\n" + STATIONS
                         + b"min_elevation_deg = 95\n")
        out = tmp_path / "out"
        assert main(["route", str(path), "--duration", "600", "--output-dir", str(out)]) == 2
        assert "min_elevation_deg must be in [0, 90], got 95.0" in capsys.readouterr().err
        assert not out.exists()

    def test_elevation_above_90_without_stations_reported_cleanly(self, tmp_path, capsys):
        path = tmp_path / "in.scenario"
        path.write_bytes(IRIDIUM_HEAD + b"[experiment]\nmin_elevation_deg = 95\n")
        assert main(["analyze", str(path)]) == 2
        assert "line 7: min_elevation_deg must be in [0, 90], got 95.0" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("name", ["sub/iridium", "../escaped"])
    def test_bad_name_reported_cleanly(self, name, tmp_path, capsys):
        path = tmp_path / "in.scenario"
        path.write_bytes(IRIDIUM_HEAD + f"name = {name}\n".encode())
        out = tmp_path / "run" / "out"
        assert main(["simulate", str(path), "--output-dir", str(out)]) == 2
        assert "line 6: name must be a file name part" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("lines,message", [
        (b"name = a\0b\n", "line 6: name must not hold a NUL character, got 'a\\x00b'"),
        (b"[output]\ndirectory = o\0p\n",
         "line 7: directory must not hold a NUL character, got 'o\\x00p'")],
        ids=["name", "directory"])
    def test_nul_in_file_name_or_directory_reported_cleanly(self, lines, message, tmp_path,
                                                            capsys, monkeypatch):
        # no file system call takes the byte, so it is a scenario error
        path = tmp_path / "in.scenario"
        path.write_bytes(IRIDIUM_HEAD + lines)
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_nul_in_output_dir_override_rejected(self):
        # argv cannot carry the byte, so the override is checked directly
        config = load_scenario(SCENARIOS / "iridium.scenario")
        with pytest.raises(ScenarioError, match=re.escape(
                "directory must not hold a NUL character, got 'o\\x00p'")):
            apply_overrides(config, output_dir="o\0p")

    @pytest.mark.parametrize("below,reason", [("", "File exists"), ("sub", "Not a directory")])
    def test_output_dir_through_a_file_reported_cleanly(self, below, reason, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / below if below else taken
        rc = main(["simulate", str(SCENARIOS / "iridium.scenario"), "--polar-border", "60",
                   "--methods", "fixed", "--output-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"scenario error: cannot create output directory {out}: {reason}\n"
        assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept\n"

    @pytest.mark.parametrize("section,key,flag,text", [
        (section, key, flag, text) for section, key, flag, texts in (
            ("partition", "polar_border_deg", "--polar-border",
             ("95", "0", "nan", "sixty", "", "60, 60", "65, 70, 65.0")),
            ("partition", "methods", "--methods", ("dijkstra", "fixed, fixed", "")),
            ("partition", "trigger", "--trigger", ("both", "")),
            ("experiment", "duration_s", "--duration", ("0", "-5", "nan", "inf", "day", "30")),
            ("experiment", "interval_s", "--interval", ("0", "-inf", "nan", "x", "90000")),
        ) for text in texts])
    def test_flag_and_file_give_the_same_message(self, section, key, flag, text, tmp_path,
                                                  capsys):
        # every field a flag overrides, except output_dir (any text is a
        # path): the flag's text goes through the key's parser, so only the
        # line number tells the two apart
        path = tmp_path / "in.scenario"
        path.write_bytes(IRIDIUM_HEAD + f"[{section}]\n{key} = {text}\n".encode())
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value).startswith("line 7: ")
        message = str(info.value).removeprefix("line 7: ")
        rc = main(["route", str(SCENARIOS / "iridium.scenario"), f"{flag}={text}",
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"scenario error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_compare_subset_omits_baselines(self, tmp_path, capsys):
        rc = main([
            "compare", str(SCENARIOS / "iridium.scenario"),
            "--polar-border", "60", "--methods", "reassignment",
            "--duration", "600", "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reassignment" in out
        assert "fixed" not in out
        assert not list(tmp_path.glob("*fixed*"))


# One value of a shipped file replaced by hostile text: float extremes,
# non-finite values, empty text, commas, non-ASCII text and NUL.
HOSTILE_TEXT = ["1.7976931348623157e308", "-1.7976931348623157e308", "5e-324", "-5e-324",
                "2.2250738585072014e-308", "1e300", "1e150", "1e-300", "0", "-0.0", "-1",
                "nan", "-nan", "inf", "-inf", "", "1,2", ",", "x, 1e308, -1e308", "x, nan, 0",
                "x, 90, 5e-324", "Z\u00fcrich", "\u6771\u4eac", "\0", "6\0"]
IRIDIUM_TEXT = (SCENARIOS / "iridium.scenario").read_text()
# [constellation] keys the iridium file leaves at their defaults; they are added
ADDED_KEYS = ["earth_radius_km", "grazing_altitude_km"]
IRIDIUM_KEYS = [line.split(" = ")[0] for line in IRIDIUM_TEXT.splitlines() if " = " in line]


class TestHostileScenario:
    @settings(max_examples=100, deadline=None)
    @given(key=st.sampled_from(IRIDIUM_KEYS + ADDED_KEYS), text=st.sampled_from(HOSTILE_TEXT))
    # values that once ended in a traceback or a numpy warning
    @example(key="period_s", text="1.7976931348623157e308")
    @example(key="period_s", text="2.2250738585072014e-308")
    @example(key="altitude_km", text="1e300")
    @example(key="sats_per_plane", text="1.7976931348623157e308")
    def test_one_hostile_value(self, key, text):
        # analyze and a short route end with a status, never a traceback or
        # a numpy warning, which the filter turns into an exception
        line = f"{key} = {text}\n"
        if key in ADDED_KEYS:
            edited = IRIDIUM_TEXT.replace("[constellation]\n", "[constellation]\n" + line, 1)
        else:
            edited = re.sub(rf"^{key} = .*\n", lambda _: line, IRIDIUM_TEXT, count=1, flags=re.M)
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            path = Path(tmp) / "in.scenario"
            path.write_text(edited, encoding="utf-8")
            for argv in (["analyze", str(path)],
                         ["route", str(path), "--duration", "600", "--output-dir", tmp + "/out"]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    status = main(argv)
                assert status in (0, 1, 2), (argv[0], status)
                assert "Traceback" not in err.getvalue()


def _tree_digest(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestEdgeObjects:
    def test_compare_builds_no_edge_objects(self, tmp_path, monkeypatch):
        # partition, validation, routing and export all work on the edge
        # universe's integer ids, and the universe itself is built from
        # integers; IslEdge objects are only for callers
        config = load_scenario(SCENARIOS / "teledesic.scenario")
        config.duration_s = 600.0
        config.output_dir = tmp_path
        built = []
        init = links.IslEdge.__init__

        def counted_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(links.IslEdge, "__init__", counted_init)
        links._wiring.cache_clear()
        report = run_compare(config)
        assert report.ok and len(report.rows) == 12
        assert built == []
        # the counter does count
        links.IslEdge(SatId(1, 1), SatId(1, 2), "intra_plane")
        assert len(built) == 1

    @pytest.mark.parametrize("name,snapshots,distinct", [
        ("teledesic", 576, 108), ("iridium", 352, 88)])
    def test_compare_draws_one_object_per_distinct_set(self, name, snapshots, distinct):
        # the partitions of a compare reuse a few link patterns; each is one
        # object, so what is computed once per set is computed once per pattern
        config = load_scenario(SCENARIOS / f"{name}.scenario")
        sets = [snap.edges for border in config.polar_borders_deg for method in config.methods
                for snap in partition(config.constellation, method, border,
                                      trigger=config.trigger,
                                      equal_time_delta_s=config.equal_time_delta_s).snapshots]
        assert len(sets) == snapshots
        assert len({id(topo) for topo in sets}) == len(set(sets)) == distinct


class TestSatelliteLimit:
    def test_compare_peak_memory_bounded(self, tmp_path):
        # 2 x 1000 satellites at 60 degrees, 600 s of sends, all three
        # methods: the traced peak is one sequence's own work, at about
        # 50 MB. It was 229 MB while the baselines evaluated their
        # active-couple table for every instant in one call, and 321 MB
        # with 20-byte links and the finished sequence still live while the
        # next was partitioned.
        text = (SCENARIOS / "iridium.scenario").read_text()
        path = tmp_path / "big.scenario"
        path.write_text(text.replace("\nplanes = 6\n", "\nplanes = 2\n")
                        .replace("\nsats_per_plane = 11\n", "\nsats_per_plane = 1000\n"))
        config = load_scenario(path)
        assert config.constellation.total_satellites == 2000
        config.polar_borders_deg, config.duration_s = [60.0], 600.0
        config.output_dir = tmp_path / "out"
        tracemalloc.start()
        try:
            report = run_compare(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and len(report.rows) == 3
        assert peak < 100e6, f"{peak / 1e6:.1f} MB"


class TestSummary:
    def test_wide_cell_keeps_a_space(self):
        # 2 x 1000 satellites: the reassignment count 2000/2000 fills its
        # 9-wide column and pushes the rest of its line one place right;
        # a row whose cells fit lines up with the header
        spec = ConstellationSpec(2, 1000, 86.4, 780.0, period_s=6027.0, name="wide")
        rows = [ComparisonRow("reassignment", 60.0, 2000, 3.0135, 3.0135, 666, 666, 0.666,
                              None, None, analytic_summary(spec, 60.0)),
                ComparisonRow("fixed", 60.0, 2000, 1.0, 5.02, 664, 666, 0.6657,
                              None, None, None)]
        header, wide, fits = format_summary(spec, ComparisonReport("wide", rows, [])
                                            ).splitlines()[3:]
        assert wide.split() == ["reassignment", "60", "2000/2000", "3.01/3.01", "3.01/3.01",
                                "666/666", "0.6660", "-"]
        assert re.match("reassignment +60 +2000/2000", wide)
        assert len(wide) == len(header) + 1 and len(fits) == len(header)
        assert fits.split() == ["fixed", "60", "2000", "1.00", "5.02", "664-666", "0.6657", "-"]


class TestDeterminism:
    def test_compare_twice_is_byte_identical(self, tmp_path):
        config = load_scenario(SCENARIOS / "iridium.scenario")
        config.polar_borders_deg = [60.0]
        config.duration_s = 900.0
        digests = []
        for run in ("one", "two"):
            config.output_dir = tmp_path / run
            report = run_compare(config)
            assert report.ok
            digests.append(_tree_digest(config.output_dir))
        assert digests[0] == digests[1]
